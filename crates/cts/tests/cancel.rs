//! Cancellation-latency suite.
//!
//! Fires the [`CancelToken`] at deterministic "random" points across a
//! run and asserts the two halves of the contract: the flow stops within
//! a bounded number of work units (polls) after the fire, and the
//! checkpoint journal left behind is loadable and resumes to the exact
//! reference tree — at 1, 2, and 4 workers.

use sllt_cts::flow::HierarchicalCts;
use sllt_cts::{CancelToken, Checkpoint, CheckpointMode, CtsError, RunContext};
use sllt_design::Design;
use sllt_geom::{Point, Rect};
use sllt_obs::RealFs;
use sllt_tree::{ClockTree, Sink};
use std::path::PathBuf;

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
        name: "cancelgrid".into(),
        num_instances: 96,
        utilization: 0.5,
        die: Rect::new(Point::ORIGIN, Point::new(200.0, 150.0)),
        clock_root: Point::ORIGIN,
        sinks,
    }
}

fn journal_path(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("sllt_cancel_{tag}_{}.jsonl", std::process::id()))
}

fn flow(workers: usize) -> HierarchicalCts {
    HierarchicalCts {
        workers,
        ..HierarchicalCts::default()
    }
}

/// A `workers`-wide run stopped by `cancel`, journaled per `checkpoint`.
fn run(
    workers: usize,
    cancel: CancelToken,
    design: &Design,
    checkpoint: CheckpointMode,
) -> Result<ClockTree, CtsError> {
    flow(workers).run_in(
        design,
        RunContext {
            cancel,
            checkpoint,
            ..Default::default()
        },
    )
}

/// Total polls an uninterrupted serial run performs — the work-unit
/// budget the fire points sample from.
fn total_polls(design: &Design) -> u64 {
    let token = CancelToken::new();
    run(1, token.clone(), design, CheckpointMode::Off).unwrap();
    token.polls()
}

#[test]
fn pre_fired_token_stops_before_any_work() {
    let design = grid_design();
    let token = CancelToken::new();
    token.cancel();
    let err = run(1, token.clone(), &design, CheckpointMode::Off).unwrap_err();
    assert_eq!(err, CtsError::Cancelled);
    assert!(
        token.polls() <= 2,
        "a pre-fired token must stop at the first poll, took {}",
        token.polls()
    );
}

#[test]
fn cancelled_error_is_not_retried_by_the_ladder() {
    // With recovery enabled, cancellation must propagate immediately —
    // retrying a level against the caller's stop request would multiply
    // the latency by the ladder length.
    let design = grid_design();
    let token = CancelToken::fire_after_polls(3);
    let cts = HierarchicalCts {
        recovery: true,
        workers: 1,
        ..HierarchicalCts::default()
    };
    let ctx = RunContext {
        cancel: token.clone(),
        ..Default::default()
    };
    assert_eq!(cts.run_in(&design, ctx).unwrap_err(), CtsError::Cancelled);
    let after = token.polls().saturating_sub(3);
    assert!(
        after <= 3,
        "ladder retried after cancel: {after} extra polls"
    );
}

#[test]
fn inert_token_changes_nothing() {
    let design = grid_design();
    let reference = HierarchicalCts {
        workers: 1,
        ..HierarchicalCts::default()
    }
    .run(&design)
    .unwrap();
    let tree = run(1, CancelToken::new(), &design, CheckpointMode::Off).unwrap();
    assert_eq!(tree, reference, "an unfired token must be a no-op");
}

#[test]
fn randomized_fire_points_stop_within_bounded_work_and_resume_exactly() {
    let design = grid_design();
    let budget = total_polls(&design);
    assert!(budget > 8, "run too small to sample fire points: {budget}");
    let reference = HierarchicalCts {
        workers: 1,
        ..HierarchicalCts::default()
    }
    .run(&design)
    .unwrap();

    // Deterministic "random" sample across the whole run, plus the
    // edges. (SplitMix-style mixing of the index keeps the points stable
    // run-to-run without a time-seeded RNG.)
    let mut fire_points: Vec<u64> = (0..10u64)
        .map(|i| {
            let mut z = i.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(0xD1B5);
            z ^= z >> 31;
            z % budget.max(1)
        })
        .collect();
    fire_points.extend([1, 2, budget / 2, budget - 1]);

    for workers in [1usize, 2, 4] {
        for &fire_at in &fire_points {
            let token = CancelToken::fire_after_polls(fire_at.max(1));
            let path = journal_path(&format!("w{workers}_f{fire_at}"));
            let result = run(
                workers,
                token.clone(),
                &design,
                CheckpointMode::Fresh(&path),
            );
            match result {
                Err(CtsError::Cancelled) => {
                    // Bounded latency: after the token fires, each of
                    // the `workers` route threads may complete at most
                    // the poll it is about to make, plus the serial
                    // stage's own final poll.
                    let after = token.polls().saturating_sub(fire_at.max(1));
                    assert!(
                        after <= workers as u64 + 2,
                        "workers={workers} fire_at={fire_at}: {after} polls after fire"
                    );
                    // The journal is valid and resumes to the reference.
                    let ckpt = Checkpoint::load(&RealFs, &path, &flow(workers), &design).unwrap();
                    assert!(ckpt.torn().is_none(), "cancel never tears the journal");
                    let resumed = CheckpointMode::Resume(&path);
                    let tree = run(workers, CancelToken::new(), &design, resumed).unwrap();
                    assert_eq!(
                        tree, reference,
                        "workers={workers} fire_at={fire_at}: resume diverged"
                    );
                }
                Ok(tree) => {
                    // Fired too late to observe (or not at all): the run
                    // completed; it must have completed *correctly*.
                    assert_eq!(tree, reference);
                }
                Err(other) => panic!("unexpected error: {other}"),
            }
            std::fs::remove_file(&path).ok();
        }
    }
}

#[cfg(unix)]
#[test]
fn sigterm_cancels_a_running_flow() {
    // The daemon's drain trigger: a SIGTERM routed through
    // `install_signals` must behave exactly like a user cancel — the
    // flow stops with `Cancelled`, it is not torn down mid-write.
    extern "C" {
        fn raise(sig: i32) -> i32;
    }
    const SIGTERM: i32 = 15;

    let token = CancelToken::new();
    sllt_cts::cancel::install_signals(&token);
    // SAFETY: raising a signal we just installed a handler for; the
    // handler only stores an atomic.
    unsafe {
        raise(SIGTERM);
    }
    assert!(
        token.is_cancelled(),
        "SIGTERM handler must fire the installed token"
    );

    let design = grid_design();
    let err = run(1, token, &design, CheckpointMode::Off).unwrap_err();
    assert_eq!(err, CtsError::Cancelled);
}

#[test]
fn cancellation_mid_parallel_route_reports_cancelled_not_a_cluster_error() {
    // Fire inside the widest level so several route workers see the stop
    // mid-stage; the surfaced error must be Cancelled (not a synthetic
    // cluster failure), regardless of interleaving.
    let design = grid_design();
    let budget = total_polls(&design);
    for workers in [2usize, 4] {
        for fire_at in [budget / 4, budget / 3, budget / 2] {
            let token = CancelToken::fire_after_polls(fire_at.max(1));
            match run(workers, token, &design, CheckpointMode::Off) {
                Err(CtsError::Cancelled) | Ok(_) => {}
                Err(other) => panic!("workers={workers} fire_at={fire_at}: {other}"),
            }
        }
    }
}
