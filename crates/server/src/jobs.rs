//! Job definitions and the child-side runner.
//!
//! A job is `design × config (× fault word)`. The daemon never runs a
//! flow in-process: every attempt re-execs `slltd --job …` so a panic,
//! OOM kill, or stack overflow is contained by the process boundary
//! ([`crate::supervise`]), and a failed attempt retries after a
//! deterministic backoff ([`crate::backoff`]).
//!
//! The child runs with the recovery ladder on, checkpoints levels next
//! to the daemon's journal, and watches its own flow event stream: a
//! [`ProgressJournal`] observer writes the progress journal the daemon
//! tails for `status`/`watch`, and the same stream flags storage
//! degradation. It reports through its exit code plus a final
//! `RESULT {json}` stdout line (skew, wirelength, `runtime_s`, and the
//! child's peak RSS). A cancelled child exits [`EXIT_JOB_CANCELLED`]
//! and leaves its checkpoint for the next attempt to resume; a
//! checkpoint it cannot resume (another configuration, corruption, or a
//! journal from before the current fingerprint) is discarded and the
//! job starts fresh.
//!
//! A job's fault word (`panic`, `hang`, `oom`, `sleep:<ms>`) is the
//! test lever behind the isolation, deadline, and drain contracts. The
//! daemon only carries the word; the child parses it into a
//! [`FaultPlan`] and hands it to the flow like any other run context, so
//! the fault fires at its planned stage site — after the design has
//! loaded and the checkpoint exists.

use sllt_cts::flow::HierarchicalCts;
use sllt_cts::{
    evaluate, CancelToken, CheckpointMode, CtsError, FaultPlan, FlowEvent, FlowObserver, NullSink,
    ProgressJournal, RunContext,
};
use sllt_obs::Value;
use std::collections::HashSet;
use std::io::BufReader;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Child exit code for a job that failed with a reported error.
pub const EXIT_JOB_ERROR: i32 = 2;
/// Child exit code for a cooperatively cancelled job (checkpoint kept).
pub const EXIT_JOB_CANCELLED: i32 = 3;

/// Named constraint configurations jobs may request. All run with the
/// recovery ladder on — a served job should degrade, not die.
pub fn config_by_name(name: &str) -> Result<HierarchicalCts, String> {
    let base = HierarchicalCts {
        recovery: true,
        ..HierarchicalCts::default()
    };
    match name {
        "base" => Ok(base),
        "tight" => Ok(HierarchicalCts {
            level_skew_fraction: 0.35,
            ..base
        }),
        "nosa" => Ok(HierarchicalCts {
            use_sa: false,
            ..base
        }),
        _ => Err(format!(
            "unknown config {name:?}; available: base, tight, nosa"
        )),
    }
}

/// Design names resolve through the one shared resolver: a suite design
/// or a synthetic `grid<N>` register grid for smoke-scale jobs.
pub use sllt_design::design_by_name;

/// A job child's checkpoint journal path.
pub fn ckpt_path(out_dir: &Path, job_id: &str) -> PathBuf {
    out_dir.join(format!("ckpt_{job_id}.jsonl"))
}

/// A job child's live progress journal path.
pub fn progress_path(out_dir: &Path, job_id: &str) -> PathBuf {
    out_dir.join(format!("progress_{job_id}.jsonl"))
}

/// Where a finished job's tree lands (written atomically; the e2e
/// bit-identity test compares these across killed and clean runs).
pub fn tree_path(out_dir: &Path, job_id: &str) -> PathBuf {
    out_dir.join(format!("tree_{job_id}.sllt"))
}

/// Everything a re-exec'd child needs to run one attempt.
#[derive(Debug, Clone)]
pub struct ChildArgs {
    /// Job id (names the checkpoint/progress/tree artifacts).
    pub job_id: String,
    /// Design name (used when `design_file` is `None`).
    pub design: String,
    /// Sanitized design artifact from the cache, if the job came in by
    /// file.
    pub design_file: Option<PathBuf>,
    /// Constraint config name.
    pub config: String,
    /// Threads for every fan-out of the child's flow (partition cells,
    /// restarts, SA chains, the median split and routing).
    pub workers: usize,
    /// State directory (checkpoints, progress, trees).
    pub out_dir: PathBuf,
    /// Optional fault word, parsed by the child into a [`FaultPlan`].
    pub fault: Option<String>,
}

/// Runs one job attempt in this process. Returns the exit code to
/// report: `Ok` on success, `Err(code)` otherwise. This is the
/// isolation boundary — anything in here may fail, panic, or be killed
/// without consequence for the daemon.
pub fn run_child(args: &ChildArgs) -> Result<(), u8> {
    let fail = |msg: String| -> u8 {
        eprintln!("error: {msg}");
        EXIT_JOB_ERROR as u8
    };

    let faults: FaultPlan = args
        .fault
        .as_deref()
        .map_or(Ok(FaultPlan::none()), str::parse)
        .map_err(fail)?;
    let design = match &args.design_file {
        Some(path) => {
            let f = std::fs::File::open(path)
                .map_err(|e| fail(format!("open {}: {e}", path.display())))?;
            sllt_design::read_design(&mut BufReader::new(f))
                .map_err(|e| fail(format!("{}: {e}", path.display())))?
        }
        None => design_by_name(&args.design).map_err(fail)?,
    };
    let mut cts = config_by_name(&args.config).map_err(fail)?;
    cts.workers = args.workers;

    let token = CancelToken::new();
    #[cfg(unix)]
    sllt_cts::cancel::install_signals(&token);

    // Live progress into the job's sealed journal; the daemon tails it
    // for status/watch. Not being able to create it is not fatal —
    // progress is observability, never a reason to fail a job.
    let mut journal = ProgressJournal::create(&progress_path(&args.out_dir, &args.job_id)).ok();
    let mut degraded = false;
    let mut observer = |ev: &FlowEvent| {
        degraded |= matches!(ev, FlowEvent::StorageDegraded { .. });
        if let Some(j) = journal.as_mut() {
            j.on_event(ev);
        }
    };

    let ckpt = ckpt_path(&args.out_dir, &args.job_id);
    let mut run = |checkpoint| {
        let ctx = RunContext {
            cancel: token.clone(),
            faults: faults.clone(),
            checkpoint,
            ..RunContext::new(&mut observer, &NullSink)
        };
        cts.run_in(&design, ctx)
    };
    let t0 = Instant::now();
    let result = if ckpt.exists() {
        match run(CheckpointMode::Resume(&ckpt)) {
            // Stale/mismatched journal (config drift, corruption beyond
            // the torn-tail tolerance): discard and start fresh.
            Err(CtsError::Checkpoint { .. }) => {
                std::fs::remove_file(&ckpt).ok();
                run(CheckpointMode::Fresh(&ckpt))
            }
            other => other,
        }
    } else {
        run(CheckpointMode::Fresh(&ckpt))
    };

    match result {
        Ok(tree) => {
            let report = evaluate(&tree, &cts.tech, &cts.lib);
            let tree_file = tree_path(&args.out_dir, &args.job_id);
            write_tree_atomic(&tree_file, &tree).map_err(fail)?;
            let mut v = Value::obj()
                .with("job", args.job_id.as_str())
                .with("design", design.name.as_str())
                .with("config", args.config.as_str())
                .with("sinks", design.num_ffs())
                .with("skew_ps", report.skew_ps)
                .with("wl_um", report.clock_wl_um)
                .with("buffers", report.num_buffers)
                .with("runtime_s", t0.elapsed().as_secs_f64())
                // VmHWM, bytes; JSON null off Linux (no procfs).
                .with("peak_rss_bytes", sllt_obs::peak_rss_bytes())
                .with("tree", tree_file.display().to_string());
            // Nonfatal storage degradation: the flow dropped its
            // checkpoint writer mid-run (full or failing disk) and
            // finished in memory. The event stream carries the
            // structured event; surface it as a flag in the run record
            // so the daemon's job row (and anything tailing RESULT
            // lines) sees the job succeeded on degraded storage.
            if degraded {
                v = v.with("storage_degraded", true);
            }
            println!("RESULT {}", v.encode());
            // The daemon's journal row is the durable record now; the
            // level checkpoint has nothing left to resume.
            std::fs::remove_file(&ckpt).ok();
            Ok(())
        }
        Err(CtsError::Cancelled) => {
            eprintln!(
                "{}: cancelled; committed levels remain at {}",
                args.job_id,
                ckpt.display()
            );
            Err(EXIT_JOB_CANCELLED as u8)
        }
        Err(e) => Err(fail(format!("{}: {e}", args.job_id))),
    }
}

/// What a [`gc_artifacts`] pass did.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct GcReport {
    /// Bytes reclaimed by deleting artifacts.
    pub freed: u64,
    /// Bytes of job artifacts still on disk after the pass.
    pub remaining: u64,
    /// Files deleted.
    pub deleted: usize,
}

/// Enforces the daemon's disk budget over per-job artifacts — result
/// trees (`tree_*.sllt`), progress journals (`progress_*.jsonl`), and
/// level checkpoints (`ckpt_*.jsonl`) under the state directory. When
/// their combined size exceeds `budget` bytes, artifacts are deleted
/// oldest-modified-first until the total fits, skipping any whose job
/// id is in `protect` (jobs not yet finally done still need their
/// checkpoints and progress). `jobs.jsonl` and the design cache are
/// never touched: the journal is the daemon's source of truth and the
/// cache has its own content-addressed lifecycle.
///
/// # Errors
///
/// Propagates a directory-scan failure; per-file stat/delete errors are
/// skipped (a file raced away is a file already reclaimed).
pub fn gc_artifacts(
    state_dir: &Path,
    budget: u64,
    protect: &HashSet<String>,
) -> std::io::Result<GcReport> {
    let job_id_of = |name: &str| -> Option<String> {
        for (prefix, suffix) in [
            ("tree_", ".sllt"),
            ("progress_", ".jsonl"),
            ("ckpt_", ".jsonl"),
        ] {
            if let Some(id) = name
                .strip_prefix(prefix)
                .and_then(|rest| rest.strip_suffix(suffix))
            {
                return Some(id.to_string());
            }
        }
        None
    };

    let mut files: Vec<(PathBuf, u64, std::time::SystemTime, String)> = Vec::new();
    for entry in std::fs::read_dir(state_dir)? {
        let Ok(entry) = entry else { continue };
        let name = entry.file_name();
        let Some(id) = name.to_str().and_then(job_id_of) else {
            continue;
        };
        let Ok(meta) = entry.metadata() else { continue };
        if !meta.is_file() {
            continue;
        }
        let mtime = meta.modified().unwrap_or(std::time::UNIX_EPOCH);
        files.push((entry.path(), meta.len(), mtime, id));
    }

    let mut total: u64 = files.iter().map(|(_, len, _, _)| *len).sum();
    let mut report = GcReport {
        remaining: total,
        ..GcReport::default()
    };
    if total <= budget {
        return Ok(report);
    }
    files.sort_by_key(|(_, _, mtime, _)| *mtime);
    for (path, len, _, id) in files {
        if total <= budget {
            break;
        }
        if protect.contains(&id) {
            continue;
        }
        if std::fs::remove_file(&path).is_ok() {
            total -= len;
            report.freed += len;
            report.deleted += 1;
        }
    }
    report.remaining = total;
    Ok(report)
}

/// Writes the result tree via temp + sync + rename, so neither a child
/// killed mid-write nor a power loss after the daemon journals `ok` can
/// leave a torn tree that a later comparison would trust (an unsynced
/// directory can still lose the rename: the tree is absent, not torn).
fn write_tree_atomic(path: &Path, tree: &sllt_tree::ClockTree) -> Result<(), String> {
    let tmp = path.with_extension("sllt.tmp");
    let mut f =
        std::fs::File::create(&tmp).map_err(|e| format!("create {}: {e}", tmp.display()))?;
    sllt_tree::io::write_tree(tree, &mut f).map_err(|e| format!("write {}: {e}", tmp.display()))?;
    f.sync_data()
        .map_err(|e| format!("sync {}: {e}", tmp.display()))?;
    drop(f);
    std::fs::rename(&tmp, path).map_err(|e| format!("rename {}: {e}", path.display()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn configs_resolve_and_unknowns_are_named() {
        for c in ["base", "tight", "nosa"] {
            assert!(config_by_name(c).is_ok(), "{c}");
        }
        let err = config_by_name("hyperdrive").unwrap_err();
        assert!(err.contains("hyperdrive"));
        assert!(design_by_name("not_a_design").is_err());
    }

    /// Every named config's tree at one worker, as `(bytes, FNV-1a-64)`
    /// of the `write_tree` text: what a config builds may not change
    /// while its settings are refactored. On s35932 the three configs
    /// build the same tree; `grid1500` tells all three apart.
    #[test]
    fn named_configs_build_golden_trees() {
        let mut got = Vec::new();
        for design in ["s35932", "grid1500"] {
            let design = design_by_name(design).unwrap();
            for name in ["base", "tight", "nosa"] {
                let cts = HierarchicalCts {
                    workers: 1,
                    ..config_by_name(name).unwrap()
                };
                let mut bytes = Vec::new();
                sllt_tree::io::write_tree(&cts.run(&design).unwrap(), &mut bytes).unwrap();
                got.push(format!(
                    "{} {name} {} {:016x}",
                    design.name,
                    bytes.len(),
                    sllt_obs::fnv1a64(&bytes)
                ));
            }
        }
        assert_eq!(
            got,
            [
                "s35932 base 282653 ea18a1633c1054d8",
                "s35932 tight 282653 ea18a1633c1054d8",
                "s35932 nosa 282653 ea18a1633c1054d8",
                "grid1500 base 127540 7ce3416466d794e3",
                "grid1500 tight 127535 0fdd760818467f4a",
                "grid1500 nosa 126900 a5f4c4097fb2428d",
            ]
        );
    }

    #[test]
    fn gc_deletes_oldest_unprotected_artifacts_until_under_budget() {
        let dir = std::env::temp_dir().join(format!("sllt_jobs_gc_{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        // Four artifacts of 1000 bytes each, mtime-ordered j1 < j2 < j3;
        // an unrelated file must never be touched.
        for name in ["tree_j1.sllt", "progress_j2.jsonl", "ckpt_j3.jsonl"] {
            std::fs::write(dir.join(name), vec![b'x'; 1000]).unwrap();
            std::thread::sleep(std::time::Duration::from_millis(20));
        }
        std::fs::write(dir.join("jobs.jsonl"), vec![b'x'; 1000]).unwrap();

        // j1 is oldest but protected; j2 goes first, then j3 would go
        // but the budget is already met.
        let protect: HashSet<String> = ["j1".to_string()].into();
        let rep = gc_artifacts(&dir, 2000, &protect).unwrap();
        assert_eq!(rep.deleted, 1, "{rep:?}");
        assert_eq!(rep.freed, 1000);
        assert_eq!(rep.remaining, 2000);
        assert!(dir.join("tree_j1.sllt").exists(), "protected survives");
        assert!(!dir.join("progress_j2.jsonl").exists(), "oldest victim");
        assert!(dir.join("ckpt_j3.jsonl").exists());
        assert!(dir.join("jobs.jsonl").exists(), "journal never GC'd");

        // Under budget: a pass is a no-op.
        let rep = gc_artifacts(&dir, 1 << 20, &HashSet::new()).unwrap();
        assert_eq!(
            rep,
            GcReport {
                remaining: 2000,
                ..GcReport::default()
            }
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn child_runs_a_grid_job_end_to_end() {
        let dir = std::env::temp_dir().join(format!("sllt_jobs_child_{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        let args = ChildArgs {
            job_id: "t1".into(),
            design: "grid36".into(),
            design_file: None,
            config: "base".into(),
            workers: 1,
            out_dir: dir.clone(),
            fault: None,
        };
        run_child(&args).expect("job runs");
        assert!(tree_path(&dir, "t1").exists());
        assert!(progress_path(&dir, "t1").exists());
        assert!(
            !ckpt_path(&dir, "t1").exists(),
            "finished job cleans its checkpoint"
        );
        std::fs::remove_dir_all(&dir).ok();
    }
}
