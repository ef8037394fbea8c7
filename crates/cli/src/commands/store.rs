//! `acclaim store` — inspect and maintain a persistent tuning store.
//!
//! Actions: `ls` (list cached entries), `gc` (drop corrupt or
//! foreign-version files), `export` (bundle every entry into one JSON
//! file), `import` (merge a bundle; existing keys win).

use crate::args::Args;
use crate::trace::TraceOutputs;
use acclaim_obs::Diag;
use acclaim_store::TuningStore;
use std::fmt::Write;

/// Run the subcommand; returns the report printed to stdout.
pub fn run(args: &Args, diag: &Diag) -> Result<String, String> {
    let dir = args
        .get("store")
        .ok_or("missing required option --store DIR")?;
    let store = TuningStore::open(dir).map_err(|e| format!("opening store {dir}: {e}"))?;
    match args.action.as_deref() {
        Some("ls") => ls(&store),
        Some("gc") => gc(&store, args, diag),
        Some("export") => export(&store, args, diag),
        Some("import") => import(&store, args, diag),
        Some(other) => Err(format!(
            "unknown store action '{other}' (ls | gc | export | import)"
        )),
        None => Err("missing store action (ls | gc | export | import)".into()),
    }
}

fn ls(store: &TuningStore) -> Result<String, String> {
    let entries = store
        .summaries()
        .map_err(|e| format!("reading store: {e}"))?;
    if entries.is_empty() {
        return Ok("store is empty\n".to_string());
    }
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<16} {:<10} {:>6} {:>5} {:>10}  axes",
        "key", "collective", "points", "iters", "coll (min)"
    );
    for e in &entries {
        let _ = writeln!(
            out,
            "{:<16} {:<10} {:>6} {:>5} {:>10.2}  nodes {:?} ppn {:?}",
            e.key,
            e.collective,
            e.points,
            e.iterations,
            e.collection_wall_us / 60e6,
            e.nodes,
            e.ppns,
        );
    }
    let _ = writeln!(out, "{} entries", entries.len());
    Ok(out)
}

fn gc(store: &TuningStore, args: &Args, diag: &Diag) -> Result<String, String> {
    let (obs, outputs) = TraceOutputs::from_args(args)?;
    // Failed reclaims must be visible to monitoring even when the
    // operator isn't reading exit codes.
    let obs = if !obs.is_enabled() {
        acclaim_obs::Obs::enabled()
    } else {
        obs
    };
    let report = store.gc().map_err(|e| format!("sweeping store: {e}"))?;
    obs.incr_counter("store.gc_failed", report.failed as u64);
    diag.progress(&format!("gc swept {}", store.root().display()));
    let mut out = format!(
        "gc: kept {} entries, removed {}",
        report.kept, report.removed
    );
    // Race/fault tallies only when something actually raced or failed.
    if report.skipped > 0 {
        let _ = write!(out, ", skipped {} (vanished mid-sweep)", report.skipped);
    }
    if report.failed > 0 {
        let _ = write!(out, ", failed {} (left in place)", report.failed);
    }
    out.push('\n');
    for line in outputs.write(&obs)? {
        out.push_str(&line);
        out.push('\n');
    }
    // A sweep that could not reclaim damaged files is a failure: the
    // debris it exists to remove is still there. Nonzero exit so cron
    // jobs and CI notice.
    if report.failed > 0 {
        return Err(format!(
            "{out}gc: {} damaged file(s) could not be reclaimed",
            report.failed
        ));
    }
    Ok(out)
}

fn export(store: &TuningStore, args: &Args, diag: &Diag) -> Result<String, String> {
    let out_path = args.get_or("out", "store-export.json");
    let n = store
        .export(out_path)
        .map_err(|e| format!("exporting to {out_path}: {e}"))?;
    diag.progress(&format!("exported {n} entries"));
    Ok(format!("exported {n} entries to {out_path}\n"))
}

fn import(store: &TuningStore, args: &Args, diag: &Diag) -> Result<String, String> {
    let in_path = args
        .get("in")
        .ok_or("missing required option --in FILE (an `acclaim store export` bundle)")?;
    let report = store
        .import(in_path)
        .map_err(|e| format!("importing {in_path}: {e}"))?;
    diag.progress(&format!("imported from {in_path}"));
    Ok(format!(
        "imported {} entries, skipped {} (already present or unreadable)\n",
        report.imported, report.skipped
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run_tokens(tokens: &[&str]) -> Result<String, String> {
        let args = Args::parse(tokens.iter().map(|s| s.to_string())).unwrap();
        run(&args, &Diag::new(true))
    }

    fn temp_store(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(name);
        std::fs::remove_dir_all(&dir).ok();
        dir
    }

    #[test]
    fn ls_on_an_empty_store() {
        let dir = temp_store("acclaim-cli-store-ls");
        let out = run_tokens(&["store", "ls", "--store", dir.to_str().unwrap()]).unwrap();
        assert!(out.contains("store is empty"));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn gc_reclaims_corrupt_files() {
        let dir = temp_store("acclaim-cli-store-gc");
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join("0123456789abcdef.json"), "not json").unwrap();
        let out = run_tokens(&["store", "gc", "--store", dir.to_str().unwrap()]).unwrap();
        assert!(out.contains("removed 1"), "{out}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn export_import_roundtrip_on_empty_store() {
        let dir = temp_store("acclaim-cli-store-exp");
        let bundle = std::env::temp_dir().join("acclaim-cli-store-exp-bundle.json");
        let out = run_tokens(&[
            "store",
            "export",
            "--store",
            dir.to_str().unwrap(),
            "--out",
            bundle.to_str().unwrap(),
        ])
        .unwrap();
        assert!(out.contains("exported 0"));
        let out = run_tokens(&[
            "store",
            "import",
            "--store",
            dir.to_str().unwrap(),
            "--in",
            bundle.to_str().unwrap(),
        ])
        .unwrap();
        assert!(out.contains("imported 0"));
        std::fs::remove_dir_all(&dir).ok();
        std::fs::remove_file(&bundle).ok();
    }

    #[test]
    fn gc_fails_loudly_when_debris_cannot_be_reclaimed() {
        let dir = temp_store("acclaim-cli-store-gc-fail");
        std::fs::create_dir_all(&dir).unwrap();
        // A *directory* at an entry path reads as corrupt (not valid
        // JSON) but cannot be reclaimed by remove_file — even as root.
        let blocker = dir.join("00000000deadbeef.json");
        std::fs::create_dir_all(blocker.join("pin")).unwrap();
        let metrics = std::env::temp_dir().join("acclaim-cli-store-gc-fail-metrics.jsonl");
        let e = run_tokens(&[
            "store",
            "gc",
            "--store",
            dir.to_str().unwrap(),
            "--metrics-out",
            metrics.to_str().unwrap(),
        ])
        .unwrap_err();
        assert!(e.contains("could not be reclaimed"), "{e}");
        assert!(e.contains("failed 1"), "{e}");
        // The failure is also counted for monitoring.
        let text = std::fs::read_to_string(&metrics).unwrap();
        assert!(text.contains("store.gc_failed"), "{text}");
        std::fs::remove_dir_all(&dir).ok();
        std::fs::remove_file(&metrics).ok();
    }

    #[test]
    fn bad_or_missing_action_is_rejected() {
        let dir = temp_store("acclaim-cli-store-bad");
        let e = run_tokens(&["store", "prune", "--store", dir.to_str().unwrap()]).unwrap_err();
        assert!(e.contains("unknown store action"));
        let e = run_tokens(&["store", "--store", dir.to_str().unwrap()]).unwrap_err();
        assert!(e.contains("missing store action"));
        let e = run_tokens(&["store", "ls"]).unwrap_err();
        assert!(e.contains("--store"));
        std::fs::remove_dir_all(&dir).ok();
    }
}
