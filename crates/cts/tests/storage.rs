//! Storage fault tolerance: a failing disk must never abort a running
//! flow. With a [`FaultFs`] injecting ENOSPC/EIO/short-writes/torn-syncs
//! into the checkpoint journal, a checkpointed run must degrade to
//! in-memory-only operation — emitting the structured
//! `StorageDegraded` event — and still produce a tree bit-identical to
//! an unfaulted run. Whatever journal prefix survived must stay
//! loadable and resumable.

use sllt_cts::{CheckpointMode, FlowEvent, HierarchicalCts, NullSink, RunContext};
use sllt_obs::journal::read_journal;
use sllt_obs::vfs::{FaultConfig, FaultFs};
use std::path::PathBuf;
use std::sync::Arc;

fn cts() -> HierarchicalCts {
    HierarchicalCts {
        workers: 1,
        ..HierarchicalCts::default()
    }
}

fn design() -> sllt_design::Design {
    sllt_design::design_by_name("grid64").expect("grid64 synthesizes")
}

fn tmp(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("sllt_storage_{tag}_{}.jsonl", std::process::id()))
}

/// One degradation scenario: run with the fault schedule, assert the
/// tree is bit-identical to the clean reference, the degradation was
/// reported, and the surviving journal prefix still resumes to the
/// same tree.
fn degrades_and_stays_bit_identical(tag: &str, fault_spec: &str) {
    let design = design();
    let clean = cts();
    let reference = clean.run(&design).expect("clean run");

    let path = tmp(tag);
    let fs = FaultFs::over_real(FaultConfig::parse(fault_spec).expect("spec"));
    let mut degraded = Vec::new();
    let mut spy = |ev: &FlowEvent| {
        if let FlowEvent::StorageDegraded { level, detail } = ev {
            degraded.push((*level, detail.clone()));
        }
    };
    let tree = clean
        .run_in(
            &design,
            RunContext {
                vfs: Arc::new(fs.clone()),
                checkpoint: CheckpointMode::Fresh(&path),
                ..RunContext::new(&mut spy, &NullSink)
            },
        )
        .expect("storage failure must never abort the flow");
    assert_eq!(tree, reference, "degraded run must build the same tree");
    assert!(fs.injected() >= 1, "the schedule must actually fire");

    // The structured event reached the observer exactly once.
    assert_eq!(degraded.len(), 1, "{degraded:?}");
    assert!(
        !degraded[0].1.is_empty(),
        "the event names the storage error"
    );

    // Whatever prefix landed is a valid journal (at most one torn
    // tail), and resuming from it with a healthy disk rebuilds the
    // exact same tree.
    let j = read_journal(&path).expect("surviving journal prefix must stay readable");
    assert!(
        j.records.len() + j.frames.len() >= 1,
        "meta record must have committed before the fault"
    );
    let resumed = clean
        .run_in(
            &design,
            RunContext {
                checkpoint: CheckpointMode::Resume(&path),
                ..Default::default()
            },
        )
        .expect("resume from prefix");
    assert_eq!(resumed, reference, "resume must be bit-identical");
    std::fs::remove_file(&path).ok();
}

#[test]
fn enospc_mid_run_degrades_and_stays_bit_identical() {
    // Ops 1..=5 cover create + meta (write,sync) + level 0 (write,sync);
    // the level-1 append hits ENOSPC.
    degrades_and_stays_bit_identical("enospc", "seed=11,after=5,kinds=enospc");
}

#[test]
fn short_write_mid_run_degrades_and_stays_bit_identical() {
    degrades_and_stays_bit_identical("short", "seed=13,after=5,kinds=short");
}

#[test]
fn torn_sync_mid_run_degrades_and_stays_bit_identical() {
    degrades_and_stays_bit_identical("torn", "seed=17,after=6,kinds=torn");
}

#[test]
fn mixed_faults_at_low_rate_never_abort_the_flow() {
    let design = design();
    let clean = cts();
    let reference = clean.run(&design).expect("clean run");
    for seed in 0..8u64 {
        let path = tmp(&format!("mixed_{seed}"));
        let spec = format!("seed={seed},after=2,rate=0.35");
        let fs = FaultFs::over_real(FaultConfig::parse(&spec).unwrap());
        let faulty = RunContext {
            vfs: Arc::new(fs.clone()),
            checkpoint: CheckpointMode::Fresh(&path),
            ..Default::default()
        };
        match clean.run_in(&design, faulty) {
            Ok(tree) => assert_eq!(tree, reference, "seed {seed}"),
            // Creating the journal (file create + meta write + meta
            // sync = the first three ops) can fault — that is a
            // pre-flight error, reported before the flow runs. Any
            // later failure must degrade, never abort.
            Err(e) => assert!(
                fs.ops() <= 3,
                "seed {seed}: flow aborted mid-run on a storage fault: {e}"
            ),
        }
        if path.exists() {
            read_journal(&path).expect("journal readable after faults");
        }
        std::fs::remove_file(&path).ok();
    }
}
