//! The tuning jobs the workloads run, expressed both as `acclaim tune`
//! flags and as the equivalent library configuration.

use acclaim_collectives::{Collective, MicrobenchConfig};
use acclaim_core::AcclaimConfig;
use acclaim_dataset::{DatasetConfig, FeatureSpace};
use acclaim_netsim::{Allocation, Cluster, NoiseModel};
use acclaim_serve::{Priority, TuneRequest};

/// The collectives both tune workloads ask for, in CLI order.
pub const COLLECTIVES: [Collective; 4] = [
    Collective::Bcast,
    Collective::Allreduce,
    Collective::Reduce,
    Collective::Allgather,
];

/// A job shape on the bebop machine: `--nodes`, `--ppn`, `--max-msg`.
#[derive(Debug, Clone, Copy)]
pub struct Shape {
    pub nodes: u32,
    pub ppn: u32,
    /// `None` keeps the CLI default (1 MiB).
    pub max_msg: Option<u64>,
}

const CLI_DEFAULT_MAX_MSG: u64 = 1 << 20;
const CLI_DEFAULT_MIN_MSG: u64 = 8;

/// One tuning job: the environment, the learner configuration, and
/// the collectives, exactly as the CLI builds them from its flags.
#[derive(Debug, Clone)]
pub struct Job {
    pub dataset: DatasetConfig,
    pub config: AcclaimConfig,
    pub collectives: Vec<Collective>,
}

impl Job {
    /// The daemon request for this job.
    pub fn request(&self) -> TuneRequest {
        TuneRequest {
            dataset: self.dataset.clone(),
            config: self.config.clone(),
            collectives: self.collectives.clone(),
            priority: Priority::Normal,
        }
    }
}

fn powers_of_two_up_to(hi: u64) -> impl Iterator<Item = u64> {
    std::iter::successors(Some(1u64), |x| x.checked_mul(2)).take_while(move |&x| x <= hi)
}

impl Shape {
    /// `acclaim tune` arguments for one cold tune with `seed`, writing
    /// the tuning file to `out`.
    pub fn tune_args(&self, seed: u64, out: &str) -> Vec<String> {
        let mut args: Vec<String> = [
            "tune",
            "--quiet",
            "--machine",
            "bebop",
            "--nodes",
            &self.nodes.to_string(),
            "--ppn",
            &self.ppn.to_string(),
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        if let Some(m) = self.max_msg {
            args.extend(["--max-msg".to_string(), m.to_string()]);
        }
        let names: Vec<&str> = COLLECTIVES.iter().map(|c| c.name()).collect();
        args.extend([
            "--collectives".to_string(),
            names.join(","),
            "--seed".to_string(),
            seed.to_string(),
            "--out".to_string(),
            out.to_string(),
        ]);
        args
    }

    /// The library-side twin of [`Shape::tune_args`]: the same cluster,
    /// grid, dataset, and learner seed the CLI derives from those flags.
    pub fn job(&self, seed: u64) -> Job {
        let base = Cluster::bebop_like();
        let alloc = Allocation::contiguous(&base.topology, self.nodes);
        let cluster = base.with_allocation(alloc).with_job_latency_factor(1.0);
        let max_msg = self.max_msg.unwrap_or(CLI_DEFAULT_MAX_MSG);
        let space = FeatureSpace::new(
            powers_of_two_up_to(cluster.num_nodes() as u64)
                .filter(|&n| n >= 2)
                .map(|n| n as u32)
                .collect(),
            powers_of_two_up_to(self.ppn as u64)
                .map(|p| p as u32)
                .collect(),
            powers_of_two_up_to(max_msg)
                .filter(|&m| m >= CLI_DEFAULT_MIN_MSG)
                .collect(),
        );
        let mut config = AcclaimConfig::new(space);
        config.learner.seed = seed;
        config.learner.flat = true;
        Job {
            dataset: DatasetConfig {
                cluster,
                bench: MicrobenchConfig::default(),
                noise: NoiseModel::production(),
                seed,
            },
            config,
            collectives: COLLECTIVES.to_vec(),
        }
    }
}
