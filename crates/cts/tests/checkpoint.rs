//! Kill/resume determinism suite.
//!
//! Simulates a crash at every point a real kill can leave the journal —
//! after any record boundary and mid-record — and asserts that a
//! [`CheckpointMode::Resume`] run rebuilds a tree bit-identical to the
//! uninterrupted reference. The small synthetic-design cases run in
//! every profile; the ISCAS sweeps (s35932, s38584 × 1/2/4 workers) are
//! release-only and exercised by `scripts/ci.sh`.

use sllt_cts::flow::HierarchicalCts;
use sllt_cts::CheckpointMode::{self, Fresh, Resume};
use sllt_cts::{Checkpoint, CtsError, FaultKind, FaultPlan, FaultStage, RunContext, StageFault};
use sllt_cts::{CollectingObserver, FlowEvent, FlowObserver, NullSink};
use sllt_design::{Design, DesignSpec};
use sllt_geom::{Point, Rect};
use sllt_obs::RealFs;
use sllt_tree::{ClockTree, Sink};
use std::path::{Path, PathBuf};

/// A run journaled per `checkpoint`.
fn journaled(
    cts: &HierarchicalCts,
    design: &Design,
    checkpoint: CheckpointMode,
) -> Result<ClockTree, CtsError> {
    let ctx = RunContext {
        checkpoint,
        ..Default::default()
    };
    cts.run_in(design, ctx)
}

fn grid_design() -> Design {
    let sinks: Vec<Sink> = (0..96)
        .map(|i| {
            Sink::new(
                Point::new((i % 12) as f64 * 15.0, (i / 12) as f64 * 15.0),
                1.0 + (i % 3) as f64 * 0.4,
            )
        })
        .collect();
    Design {
        name: "ckptgrid".into(),
        num_instances: 96,
        utilization: 0.5,
        die: Rect::new(Point::ORIGIN, Point::new(200.0, 150.0)),
        clock_root: Point::ORIGIN,
        sinks,
    }
}

fn journal_path(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("sllt_ckpt_{tag}_{}.jsonl", std::process::id()))
}

/// Byte offsets of every record boundary in the journal (after the
/// terminating newline of each record), including 0. Record-structure
/// aware: a binary frame's payload may contain `0x0A` bytes,
/// so newlines alone do not delimit records — frames are skipped whole
/// via their length header.
fn boundaries(bytes: &[u8]) -> Vec<usize> {
    use sllt_obs::journal::{FRAME_MARKER, FRAME_OVERHEAD};
    let mut out = vec![0usize];
    let mut i = 0;
    while i < bytes.len() {
        if bytes[i] == FRAME_MARKER {
            let Some(hdr) = bytes.get(i + 1..i + 5) else {
                break;
            };
            let len = u32::from_le_bytes(hdr.try_into().unwrap()) as usize;
            i += FRAME_OVERHEAD + len;
        } else {
            match bytes[i..].iter().position(|&b| b == b'\n') {
                Some(nl) => i += nl + 1,
                None => break,
            }
        }
        if i <= bytes.len() {
            out.push(i);
        }
    }
    out
}

/// Truncates `full` to `len` bytes at `path`, resumes, and asserts the
/// rebuilt tree matches `reference`. Returns the error when resume
/// legitimately cannot proceed (journal cut before the meta record).
fn resume_truncated(
    cts: &HierarchicalCts,
    design: &Design,
    full: &[u8],
    len: usize,
    path: &Path,
    reference: &ClockTree,
) -> Result<(), CtsError> {
    std::fs::write(path, &full[..len]).unwrap();
    let tree = journaled(cts, design, Resume(path))?;
    assert_eq!(
        &tree, reference,
        "resume from a journal cut at byte {len} diverged"
    );
    Ok(())
}

#[test]
fn checkpointed_run_matches_plain_run() {
    let design = grid_design();
    let cts = HierarchicalCts {
        workers: 1,
        ..HierarchicalCts::default()
    };
    let reference = cts.run(&design).unwrap();
    let path = journal_path("plain");
    let tree = journaled(&cts, &design, Fresh(&path)).unwrap();
    assert_eq!(tree, reference, "checkpointing must be observational");
    // The journal parses and carries one record per level.
    let ckpt = Checkpoint::load(&RealFs, &path, &cts, &design).unwrap();
    assert!(ckpt.levels() >= 2, "expected a multi-level run");
    assert!(ckpt.torn().is_none());
    std::fs::remove_file(&path).ok();
}

#[test]
fn resume_from_every_boundary_and_mid_record_rebuilds_the_same_tree() {
    let design = grid_design();
    let cts = HierarchicalCts {
        workers: 1,
        ..HierarchicalCts::default()
    };
    let path = journal_path("cut");
    let reference = journaled(&cts, &design, Fresh(&path)).unwrap();
    let full = std::fs::read(&path).unwrap();
    let cuts = boundaries(&full);
    assert!(cuts.len() >= 3, "expected meta + at least two levels");

    for (i, &cut) in cuts.iter().enumerate() {
        let r = resume_truncated(&cts, &design, &full, cut, &path, &reference);
        if i == 0 {
            // No meta record at all: resume must refuse, not guess.
            assert!(matches!(r, Err(CtsError::Checkpoint { .. })), "{r:?}");
        } else {
            r.unwrap();
        }
        // Mid-record cut: the torn tail is discarded and the journal
        // behaves as if cut at the previous boundary.
        if i + 1 < cuts.len() {
            let mid = cut + (cuts[i + 1] - cut) / 2;
            let r = resume_truncated(&cts, &design, &full, mid, &path, &reference);
            if i == 0 {
                assert!(matches!(r, Err(CtsError::Checkpoint { .. })), "{r:?}");
            } else {
                r.unwrap();
            }
        }
    }
    std::fs::remove_file(&path).ok();
}

#[test]
fn resume_after_kill_appends_a_journal_that_resumes_again() {
    // Two successive kills: cut once, resume (which re-appends), cut the
    // rewritten journal again, resume again. The writer must restore the
    // append invariant each time.
    let design = grid_design();
    let cts = HierarchicalCts {
        workers: 1,
        ..HierarchicalCts::default()
    };
    let path = journal_path("rekill");
    let reference = journaled(&cts, &design, Fresh(&path)).unwrap();
    let full = std::fs::read(&path).unwrap();
    let cuts = boundaries(&full);
    // Cut mid-way through the second level record.
    let cut = cuts[2] + 7;
    std::fs::write(&path, &full[..cut.min(full.len())]).unwrap();
    assert_eq!(journaled(&cts, &design, Resume(&path)).unwrap(), reference);
    // The resumed run rewrote a complete journal; kill it again.
    let rewritten = std::fs::read(&path).unwrap();
    let cuts2 = boundaries(&rewritten);
    std::fs::write(&path, &rewritten[..cuts2[cuts2.len() / 2]]).unwrap();
    assert_eq!(journaled(&cts, &design, Resume(&path)).unwrap(), reference);
    std::fs::remove_file(&path).ok();
}

#[test]
fn resume_replays_committed_levels_through_the_observer() {
    let design = grid_design();
    let cts = HierarchicalCts {
        workers: 1,
        ..HierarchicalCts::default()
    };
    let path = journal_path("replay");
    let observed = |checkpoint, observer: &mut dyn FlowObserver| {
        let ctx = RunContext {
            checkpoint,
            ..RunContext::new(observer, &NullSink)
        };
        cts.run_in(&design, ctx)
    };
    let mut obs = CollectingObserver::new();
    let reference = observed(Fresh(&path), &mut obs).unwrap();
    let levels = obs.levels.len();
    assert!(levels >= 2);

    // Cut after the first level record and resume: the committed level
    // replays (flagged resumed) before the remaining levels run live.
    let full = std::fs::read(&path).unwrap();
    let cuts = boundaries(&full);
    std::fs::write(&path, &full[..cuts[2]]).unwrap();
    let mut seen = Vec::new();
    let mut spy = |ev: &FlowEvent| {
        if let FlowEvent::LevelDone {
            report, resumed, ..
        } = ev
        {
            seen.push((report.level, *resumed));
        }
    };
    assert_eq!(observed(Resume(&path), &mut spy).unwrap(), reference);
    let expect: Vec<(usize, bool)> = (0..levels).map(|l| (l, l == 0)).collect();
    assert_eq!(
        seen, expect,
        "one committed level replays, the rest run live"
    );
    // A CollectingObserver collects replayed levels too, so it sees the
    // full sequence.
    std::fs::write(&path, &full[..cuts[2]]).unwrap();
    let mut collected = CollectingObserver::new();
    observed(Resume(&path), &mut collected).unwrap();
    assert_eq!(collected.levels.len(), levels);
    assert_eq!(
        collected.levels.iter().map(|l| l.level).collect::<Vec<_>>(),
        (0..levels).collect::<Vec<_>>()
    );
    std::fs::remove_file(&path).ok();
}

#[test]
fn fingerprint_guards_config_and_design_drift() {
    let design = grid_design();
    let cts = HierarchicalCts {
        workers: 1,
        ..HierarchicalCts::default()
    };
    let path = journal_path("fp");
    journaled(&cts, &design, Fresh(&path)).unwrap();

    // Same journal, different seed: refuse.
    let reseeded = HierarchicalCts {
        seed: cts.seed ^ 1,
        workers: 1,
        ..HierarchicalCts::default()
    };
    match journaled(&reseeded, &design, Resume(&path)) {
        Err(CtsError::Checkpoint { detail }) => {
            assert!(detail.contains("fingerprint"), "{detail}")
        }
        other => panic!("expected a fingerprint refusal, got {other:?}"),
    }
    // Different design: refuse.
    let mut other = grid_design();
    other.sinks[0].cap_ff += 0.5;
    assert!(matches!(
        journaled(&cts, &other, Resume(&path)),
        Err(CtsError::Checkpoint { .. })
    ));
    // Different worker count: fine — trees are worker-invariant.
    let wide = HierarchicalCts {
        workers: 4,
        ..HierarchicalCts::default()
    };
    let reference = cts.run(&design).unwrap();
    assert_eq!(journaled(&wide, &design, Resume(&path)).unwrap(), reference);
    std::fs::remove_file(&path).ok();
}

/// Journals of retired schemas are refused by name: a schema-2 journal's
/// breadth-first frames would lay the assembled tree out in another
/// arena order, and a schema-3 journal stores each level's nodes beside
/// its clusters. A `slltd` job child meets the refusal by deleting the
/// journal and running fresh, which builds the plain run's tree. Each
/// fixture is a `grid36` run at default settings, journaled by the last
/// build that wrote its schema.
#[test]
fn schema_2_journals_are_refused_by_name() {
    let design = sllt_design::design_by_name("grid36").unwrap();
    let cts = HierarchicalCts {
        workers: 1,
        ..HierarchicalCts::default()
    };
    let reference = cts.run(&design).unwrap();
    for (schema, file) in [(2, "schema2_grid36.ckpt"), (3, "schema3_grid36.ckpt")] {
        let fixture = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("tests/fixtures")
            .join(file);
        let old = sllt_obs::journal::read_journal_bytes(&std::fs::read(&fixture).unwrap()).unwrap();
        assert!(old.torn_tail.is_none() && !old.frames.is_empty());
        assert_eq!(
            old.records[0].get("schema").and_then(|v| v.as_u64()),
            Some(schema)
        );

        let path = journal_path(&format!("schema{schema}"));
        std::fs::copy(&fixture, &path).unwrap();
        match journaled(&cts, &design, Resume(&path)) {
            Err(CtsError::Checkpoint { detail }) => {
                assert!(
                    detail.contains(&format!("unsupported checkpoint schema {schema} ")),
                    "{detail}"
                )
            }
            other => panic!("a schema-{schema} journal must be refused, got {other:?}"),
        }

        // Starting over is what the refusal asks for: the fresh run
        // builds the plain tree, and its journal differs from the old one
        // only in schema, not in the run it is bound to.
        assert_eq!(journaled(&cts, &design, Fresh(&path)).unwrap(), reference);
        let new = sllt_obs::journal::read_journal_bytes(&std::fs::read(&path).unwrap()).unwrap();
        let field = |j: &sllt_obs::journal::Journal, k: &str| {
            j.records[0]
                .get(k)
                .and_then(|v| v.as_str())
                .map(str::to_owned)
        };
        assert_eq!(field(&new, "fingerprint"), field(&old, "fingerprint"));
        assert_eq!(new.frames.len(), old.frames.len());
        assert_eq!(
            Checkpoint::load(&RealFs, &path, &cts, &design)
                .unwrap()
                .levels(),
            old.frames.len()
        );
        std::fs::remove_file(&path).ok();
    }
}

#[test]
fn corrupt_interior_record_is_refused() {
    let design = grid_design();
    let cts = HierarchicalCts {
        workers: 1,
        ..HierarchicalCts::default()
    };
    let path = journal_path("corrupt");
    journaled(&cts, &design, Fresh(&path)).unwrap();
    let mut bytes = std::fs::read(&path).unwrap();
    // Flip one byte inside the second record (not the final line).
    let cuts = boundaries(&bytes);
    let target = cuts[1] + 10;
    bytes[target] ^= 0x01;
    std::fs::write(&path, &bytes).unwrap();
    match journaled(&cts, &design, Resume(&path)) {
        Err(CtsError::Checkpoint { detail }) => {
            assert!(
                detail.contains("corrupt") || detail.contains("line"),
                "{detail}"
            )
        }
        other => panic!("interior corruption must refuse, got {other:?}"),
    }
    std::fs::remove_file(&path).ok();
}

#[test]
fn downgraded_levels_checkpoint_and_resume_identically() {
    // A transient route fault forces the ladder to climb on level 0; the
    // downgrade's effects are embedded in the committed state, so resume
    // from any boundary must still match the recovered reference.
    let design = grid_design();
    let cts = HierarchicalCts {
        recovery: true,
        workers: 1,
        ..HierarchicalCts::default()
    };
    let faults = FaultPlan::single(StageFault::once(
        FaultStage::Route,
        0,
        Some(0),
        FaultKind::Error,
    ));
    let path = journal_path("downgrade");
    let faulty_run = |checkpoint| {
        let ctx = RunContext {
            faults: faults.clone(),
            checkpoint,
            ..Default::default()
        };
        cts.run_in(&design, ctx)
    };
    let reference = faulty_run(Fresh(&path)).unwrap();
    assert_eq!(reference, faulty_run(CheckpointMode::Off).unwrap());
    let ckpt = Checkpoint::load(&RealFs, &path, &cts, &design).unwrap();
    assert_eq!(
        ckpt.reports()[0].attempts,
        2,
        "level 0 must have recovered once"
    );
    assert_eq!(ckpt.reports()[0].downgrades.len(), 1);

    // Resumes re-inject the fault, so a cut before level 0 recovers the
    // same way.
    let full = std::fs::read(&path).unwrap();
    for &cut in &boundaries(&full)[1..] {
        std::fs::write(&path, &full[..cut]).unwrap();
        assert_eq!(faulty_run(Resume(&path)).unwrap(), reference, "cut {cut}");
    }
    std::fs::remove_file(&path).ok();
}

/// The acceptance sweep: s35932 and s38584, interrupted at every level
/// boundary, resumed at 1, 2, and 4 workers — every resume bit-identical
/// to the uninterrupted reference. Release-only (driven by
/// `scripts/ci.sh`); debug profiles skip it for runtime.
#[test]
#[cfg_attr(debug_assertions, ignore = "release-only: run via scripts/ci.sh")]
fn iscas_resume_after_kill_is_bit_identical_at_1_2_4_workers() {
    for name in ["s35932", "s38584"] {
        let design = DesignSpec::by_name(name).unwrap().instantiate();
        let writer_cts = HierarchicalCts {
            workers: 1,
            ..HierarchicalCts::default()
        };
        let path = journal_path(&format!("iscas_{name}"));
        let reference = journaled(&writer_cts, &design, Fresh(&path)).unwrap();
        let full = std::fs::read(&path).unwrap();
        let cuts = boundaries(&full);
        assert!(cuts.len() >= 3, "{name}: expected a multi-level journal");
        for workers in [1usize, 2, 4] {
            let cts = HierarchicalCts {
                workers,
                ..HierarchicalCts::default()
            };
            for &cut in &cuts[1..] {
                resume_truncated(&cts, &design, &full, cut, &path, &reference)
                    .unwrap_or_else(|e| panic!("{name} workers={workers} cut={cut}: {e}"));
            }
            // One mid-record cut per worker count.
            let mid = cuts[1] + (cuts[2] - cuts[1]) / 3;
            resume_truncated(&cts, &design, &full, mid, &path, &reference).unwrap();
        }
        std::fs::remove_file(&path).ok();
    }
}

/// The scale point of the kill/resume guarantee: a checkpointed
/// square-10⁵ run, cut at its middle level boundary and inside the
/// record after it, resumes at 1 and 2 workers to the tree `golden.rs`
/// pins (9 839 460 bytes written, FNV-1a-64 `025976b70ae35d8e`).
/// Release-only (driven by `scripts/ci.sh`).
#[test]
#[cfg_attr(debug_assertions, ignore = "release-only: run via scripts/ci.sh")]
fn square_100k_resumes_to_the_golden_tree_at_1_and_2_workers() {
    let design = sllt_design::GridSpec::square(100_000).instantiate();
    let writer = HierarchicalCts {
        workers: 2,
        ..HierarchicalCts::default()
    };
    let path = journal_path("square100k");
    journaled(&writer, &design, Fresh(&path)).unwrap();
    let full = std::fs::read(&path).unwrap();
    let cuts = boundaries(&full);
    // Meta, then one record per level.
    assert!(cuts.len() >= 4, "expected a multi-level journal");
    let middle = cuts.len() / 2;
    let inside = cuts[middle] + (cuts[middle + 1] - cuts[middle]) / 2;
    for cut in [cuts[middle], inside] {
        for workers in [1usize, 2] {
            std::fs::write(&path, &full[..cut]).unwrap();
            let cts = HierarchicalCts {
                workers,
                ..HierarchicalCts::default()
            };
            let tree = journaled(&cts, &design, Resume(&path)).unwrap();
            let mut bytes = Vec::new();
            sllt_tree::io::write_tree(&tree, &mut bytes).unwrap();
            assert_eq!(
                (bytes.len(), sllt_obs::journal::fnv1a64(&bytes)),
                (9_839_460, 0x025976b70ae35d8e),
                "resume from byte {cut} at {workers} workers"
            );
        }
    }
    std::fs::remove_file(&path).ok();
}
