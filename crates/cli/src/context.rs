//! Shared construction of machines, spaces, and databases from CLI
//! options.

use crate::args::Args;
use acclaim_collectives::{Collective, MicrobenchConfig};
use acclaim_dataset::{BenchmarkDatabase, DatasetConfig, FeatureSpace};
use acclaim_netsim::{Allocation, Cluster, NoiseModel};

/// Build the cluster selected by `--machine` (`bebop` | `theta`),
/// restricted to `--nodes` and with `--latency-factor` applied.
pub fn cluster_from(args: &Args) -> Result<Cluster, String> {
    let machine = args.get_or("machine", "bebop");
    let base = match machine {
        "bebop" => Cluster::bebop_like(),
        "theta" => Cluster::theta_like(),
        other => return Err(format!("unknown machine '{other}' (bebop | theta)")),
    };
    let nodes: u32 = args.num_or("nodes", base.num_nodes())?;
    if nodes == 0 || nodes > base.num_nodes() {
        return Err(format!(
            "--nodes must be in 1..={} for {machine}",
            base.num_nodes()
        ));
    }
    let factor: f64 = args.num_or("latency-factor", 1.0)?;
    if factor < 1.0 {
        return Err("--latency-factor must be >= 1.0".into());
    }
    let alloc = Allocation::contiguous(&base.topology, nodes);
    Ok(base.with_allocation(alloc).with_job_latency_factor(factor))
}

/// Build the P2 feature space bounded by the job: nodes up to the
/// allocation, ppn up to `--ppn`, messages up to `--max-msg`.
pub fn space_from(args: &Args, cluster: &Cluster) -> Result<FeatureSpace, String> {
    let max_ppn: u32 = args.num_or("ppn", 16)?;
    let max_msg: u64 = args.num_or("max-msg", 1 << 20)?;
    let min_msg: u64 = args.num_or("min-msg", 8)?;
    if max_ppn == 0 || max_msg < min_msg {
        return Err("--ppn must be positive and --max-msg >= --min-msg".into());
    }
    let p2_up_to = |hi: u64| -> Vec<u64> {
        let mut v = Vec::new();
        let mut x = 1u64;
        while x <= hi {
            v.push(x);
            x *= 2;
        }
        v
    };
    Ok(FeatureSpace::new(
        p2_up_to(cluster.num_nodes() as u64)
            .into_iter()
            .filter(|&n| n >= 2)
            .map(|n| n as u32)
            .collect(),
        p2_up_to(max_ppn as u64)
            .into_iter()
            .map(|p| p as u32)
            .collect(),
        p2_up_to(max_msg)
            .into_iter()
            .filter(|&m| m >= min_msg)
            .collect(),
    ))
}

/// Build (or load via `--db`) the benchmark database.
pub fn database_from(args: &Args, cluster: Cluster) -> Result<BenchmarkDatabase, String> {
    if let Some(path) = args.get("db") {
        let p = std::path::Path::new(path);
        if p.exists() {
            return BenchmarkDatabase::load(p).map_err(|e| format!("loading {path}: {e}"));
        }
    }
    let seed: u64 = args.num_or("seed", 0xACC1A1)?;
    Ok(BenchmarkDatabase::new(DatasetConfig {
        cluster,
        bench: MicrobenchConfig::default(),
        noise: NoiseModel::production(),
        seed,
    }))
}

/// Persist the database cache back to `--db`, if requested.
pub fn maybe_save_db(args: &Args, db: &BenchmarkDatabase) -> Result<(), String> {
    if let Some(path) = args.get("db") {
        db.save(std::path::Path::new(path))
            .map_err(|e| format!("saving {path}: {e}"))?;
    }
    Ok(())
}

/// Parse `--collectives a,b,c` (default: all four).
pub fn collectives_from(args: &Args) -> Result<Vec<Collective>, String> {
    match args.list("collectives") {
        None => Ok(Collective::ALL.to_vec()),
        Some(names) => names
            .iter()
            .map(|n| {
                Collective::parse(n).ok_or_else(|| {
                    format!("unknown collective '{n}' (allgather | allreduce | bcast | reduce)")
                })
            })
            .collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::args::Args;

    fn args(tokens: &[&str]) -> Args {
        Args::parse(tokens.iter().map(|s| s.to_string())).unwrap()
    }

    #[test]
    fn default_cluster_is_bebop() {
        let c = cluster_from(&args(&[])).unwrap();
        assert_eq!(c.num_nodes(), 64);
        assert_eq!(c.job_latency_factor, 1.0);
    }

    #[test]
    fn theta_with_nodes_and_latency() {
        let c = cluster_from(&args(&[
            "x",
            "--machine",
            "theta",
            "--nodes",
            "32",
            "--latency-factor",
            "1.5",
        ]))
        .unwrap();
        assert_eq!(c.num_nodes(), 32);
        assert_eq!(c.job_latency_factor, 1.5);
    }

    #[test]
    fn bad_machine_and_oversized_nodes_rejected() {
        assert!(cluster_from(&args(&["x", "--machine", "fugaku"])).is_err());
        assert!(cluster_from(&args(&["x", "--nodes", "4096"])).is_err());
    }

    #[test]
    fn space_is_bounded_by_job() {
        let c = cluster_from(&args(&["x", "--nodes", "16"])).unwrap();
        let s = space_from(
            &args(&["x", "--ppn", "8", "--max-msg", "65536", "--min-msg", "64"]),
            &c,
        )
        .unwrap();
        assert_eq!(s.max_nodes(), 16);
        assert_eq!(*s.ppns.last().unwrap(), 8);
        assert_eq!(*s.msg_sizes.last().unwrap(), 65_536);
        assert_eq!(*s.msg_sizes.first().unwrap(), 64);
    }

    #[test]
    fn collectives_parse_and_default() {
        assert_eq!(collectives_from(&args(&[])).unwrap().len(), 4);
        let two = collectives_from(&args(&["x", "--collectives", "bcast,reduce"])).unwrap();
        assert_eq!(two, vec![Collective::Bcast, Collective::Reduce]);
        assert!(collectives_from(&args(&["x", "--collectives", "gather"])).is_err());
    }

    #[test]
    fn database_save_and_reload_via_db_option() {
        let path = std::env::temp_dir().join("acclaim-cli-db-test.json");
        let _ = std::fs::remove_file(&path);
        let a = args(&["x", "--nodes", "4", "--db", path.to_str().unwrap()]);
        let cluster = cluster_from(&a).unwrap();
        let db = database_from(&a, cluster.clone()).unwrap();
        let t = db.time(
            acclaim_collectives::Algorithm::BcastBinomial,
            acclaim_dataset::Point::new(2, 1, 64),
        );
        maybe_save_db(&a, &db).unwrap();
        let db2 = database_from(&a, cluster).unwrap();
        assert_eq!(db2.len(), 1);
        let t2 = db2.time(
            acclaim_collectives::Algorithm::BcastBinomial,
            acclaim_dataset::Point::new(2, 1, 64),
        );
        assert!((t - t2).abs() < 1e-9);
        std::fs::remove_file(&path).ok();
    }
}
