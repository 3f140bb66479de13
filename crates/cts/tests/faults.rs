//! Fault-injection suite: drives the degradation ladder with
//! deterministic injected failures and asserts the recovery contract —
//! transient faults recover with recorded downgrades, permanent faults
//! exhaust the ladder into a typed error, panics are contained at
//! cluster granularity, and recovered runs stay bit-identical at any
//! worker count.

use sllt_cts::flow::HierarchicalCts;
use sllt_cts::{
    CollectingObserver, CtsError, FaultKind, FaultPlan, FaultStage, FlowObserver, NullObserver,
    NullSink, RecoveryPolicy, RunContext, StageFault,
};
use sllt_design::Design;
use sllt_geom::{Point, Rect};
use sllt_tree::{ClockTree, Sink};

/// A 96-FF grid: small enough for fast ladder retries, large enough to
/// partition into several clusters per level.
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
        name: "faultgrid".into(),
        num_instances: 96,
        utilization: 0.5,
        die: Rect::new(Point::ORIGIN, Point::new(200.0, 150.0)),
        clock_root: Point::ORIGIN,
        sinks,
    }
}

/// A run of the grid design with `fault` injected.
fn with_fault(
    fault: StageFault,
    recovery: RecoveryPolicy,
    workers: usize,
    observer: &mut dyn FlowObserver,
) -> Result<ClockTree, CtsError> {
    let cts = HierarchicalCts {
        recovery,
        workers,
        ..HierarchicalCts::default()
    };
    let ctx = RunContext {
        faults: FaultPlan::single(fault),
        ..RunContext::new(observer, &NullSink)
    };
    cts.run_in(&grid_design(), ctx)
}

// ---- typed context without recovery ---------------------------------------

#[test]
fn injected_route_error_is_typed_with_context() {
    let result = with_fault(
        StageFault::once(FaultStage::Route, 0, Some(1), FaultKind::Error),
        RecoveryPolicy::disabled(),
        1,
        &mut NullObserver,
    );
    match result.unwrap_err() {
        CtsError::InjectedFault {
            stage,
            level,
            cluster,
        } => {
            assert_eq!(stage, "route");
            assert_eq!(level, 0);
            assert_eq!(cluster, Some(1));
        }
        other => panic!("expected InjectedFault, got {other:?}"),
    }
}

#[test]
fn injected_partition_and_sizing_errors_are_typed() {
    for (stage, name) in [
        (FaultStage::Partition, "partition"),
        (FaultStage::Sizing, "sizing"),
    ] {
        let result = with_fault(
            StageFault::once(stage, 0, None, FaultKind::Error),
            RecoveryPolicy::disabled(),
            1,
            &mut NullObserver,
        );
        match result.unwrap_err() {
            CtsError::InjectedFault {
                stage: s, level, ..
            } => {
                assert_eq!(s, name);
                assert_eq!(level, 0);
            }
            other => panic!("expected InjectedFault in {name}, got {other:?}"),
        }
    }
}

// ---- panic containment ----------------------------------------------------

#[test]
fn route_panic_is_contained_to_a_typed_error() {
    for workers in [1usize, 2] {
        let result = with_fault(
            StageFault::once(FaultStage::Route, 0, Some(0), FaultKind::Panic),
            RecoveryPolicy::disabled(),
            workers,
            &mut NullObserver,
        );
        match result.unwrap_err() {
            CtsError::ClusterPanicked { level, cluster } => {
                assert_eq!(level, 0);
                assert_eq!(cluster, 0);
            }
            other => panic!("workers={workers}: expected ClusterPanicked, got {other:?}"),
        }
    }
}

#[test]
fn panicking_cluster_reports_lowest_index_at_any_worker_count() {
    // Two clusters panic; the error must always name the lowest index,
    // regardless of which worker hit which cluster first.
    for workers in [1usize, 2, 4] {
        let cts = HierarchicalCts {
            recovery: RecoveryPolicy::disabled(),
            workers,
            ..HierarchicalCts::default()
        };
        let ctx = RunContext {
            faults: FaultPlan {
                faults: vec![
                    StageFault::once(FaultStage::Route, 0, Some(2), FaultKind::Panic),
                    StageFault::once(FaultStage::Route, 0, Some(1), FaultKind::Panic),
                ],
            },
            ..Default::default()
        };
        match cts.run_in(&grid_design(), ctx).unwrap_err() {
            CtsError::ClusterPanicked { cluster, .. } => assert_eq!(cluster, 1),
            other => panic!("expected ClusterPanicked, got {other:?}"),
        }
    }
}

// ---- ladder recovery ------------------------------------------------------

#[test]
fn transient_route_error_recovers_and_records_the_downgrade() {
    let mut obs = CollectingObserver::new();
    let tree = with_fault(
        StageFault::once(FaultStage::Route, 0, Some(0), FaultKind::Error),
        RecoveryPolicy::standard(),
        1,
        &mut obs,
    )
    .unwrap();
    tree.validate().unwrap();
    assert_eq!(tree.sinks().len(), 96);

    let l0 = &obs.levels[0];
    assert_eq!(l0.attempts, 2, "one retry clears a transient fault");
    assert_eq!(l0.downgrades.len(), 1);
    assert!(
        l0.downgrades[0].trigger.contains("injected"),
        "{:?}",
        l0.downgrades
    );
    assert_eq!(l0.downgrades[0].attempt, 1);
    // Untouched levels stay clean.
    for l in &obs.levels[1..] {
        assert_eq!(l.attempts, 1);
        assert!(l.downgrades.is_empty());
    }
}

#[test]
fn transient_panic_recovers_under_the_ladder() {
    let mut obs = CollectingObserver::new();
    let tree = with_fault(
        StageFault::once(FaultStage::Route, 0, Some(0), FaultKind::Panic),
        RecoveryPolicy::standard(),
        1,
        &mut obs,
    )
    .unwrap();
    tree.validate().unwrap();
    assert_eq!(obs.levels[0].attempts, 2);
    assert!(obs.levels[0].downgrades[0].trigger.contains("panicked"));
}

#[test]
fn permanent_fault_exhausts_the_ladder() {
    let result = with_fault(
        StageFault::permanent(FaultStage::Route, 0, Some(0), FaultKind::Error),
        RecoveryPolicy::standard(),
        1,
        &mut NullObserver,
    );
    match result.unwrap_err() {
        CtsError::LadderExhausted {
            level,
            attempts,
            last,
        } => {
            assert_eq!(level, 0);
            // identity + 3 skew relaxations + Bst + Rsmt.
            assert_eq!(attempts, 6);
            assert!(matches!(*last, CtsError::InjectedFault { .. }));
        }
        other => panic!("expected LadderExhausted, got {other:?}"),
    }
}

#[test]
fn zero_restarts_recovers_when_recovery_is_enabled() {
    // The same misconfiguration that is a hard error by default
    // (engine.rs::zero_partition_restarts_is_a_typed_error) becomes a
    // recorded downgrade under the ladder's restart floor.
    let cts = HierarchicalCts {
        partition_restarts: 0,
        recovery: RecoveryPolicy::standard(),
        workers: 1,
        ..HierarchicalCts::default()
    };
    let mut obs = CollectingObserver::new();
    let tree = cts.run_with_observer(&grid_design(), &mut obs).unwrap();
    tree.validate().unwrap();
    for l in &obs.levels {
        assert!(l.attempts >= 2, "every level needs the restart floor");
        assert!(l.downgrades[0].trigger.contains("restarts"));
    }
}

#[test]
fn stage_deadline_recovers_by_topology_fallback() {
    // Level 0 routes 96 members: CBS costs 96×4 = 384 units, BST 192,
    // RSMT 96. A budget of 150 forces the ladder through the skew
    // relaxations (same cost, still over) and the BST rung down to RSMT.
    let cts = HierarchicalCts {
        route_budget: Some(150),
        recovery: RecoveryPolicy::standard(),
        workers: 1,
        ..HierarchicalCts::default()
    };
    let mut obs = CollectingObserver::new();
    let tree = cts.run_with_observer(&grid_design(), &mut obs).unwrap();
    tree.validate().unwrap();

    let l0 = &obs.levels[0];
    assert_eq!(l0.attempts, 6, "must climb to the RSMT rung");
    let last = l0.downgrades.last().unwrap();
    assert_eq!(last.topology, Some("rsmt"));
    assert!(last.trigger.contains("budget"), "{:?}", last.trigger);
    // Without recovery the same budget is a typed deadline error.
    let strict = HierarchicalCts {
        route_budget: Some(150),
        ..HierarchicalCts::default()
    };
    match strict.run(&grid_design()).unwrap_err() {
        CtsError::StageDeadline {
            budget, required, ..
        } => {
            assert_eq!(budget, 150);
            assert_eq!(required, 384);
        }
        other => panic!("expected StageDeadline, got {other:?}"),
    }
}

// ---- determinism of recovered runs ----------------------------------------

#[test]
fn recovered_runs_are_bit_identical_at_any_worker_count() {
    let fault = || StageFault::once(FaultStage::Route, 0, Some(0), FaultKind::Error);
    let serial = with_fault(fault(), RecoveryPolicy::standard(), 1, &mut NullObserver).unwrap();
    for workers in [2usize, 4] {
        let parallel = with_fault(
            fault(),
            RecoveryPolicy::standard(),
            workers,
            &mut NullObserver,
        )
        .unwrap();
        assert_eq!(serial, parallel, "workers={workers} diverged");
    }
    // And recovery itself is reproducible run-to-run.
    let again = with_fault(fault(), RecoveryPolicy::standard(), 1, &mut NullObserver).unwrap();
    assert_eq!(serial, again);
}

#[test]
fn clean_runs_are_unchanged_by_an_enabled_ladder() {
    // With no fault firing, recovery-enabled and recovery-disabled flows
    // must build the identical tree — the ladder only engages on failure.
    let design = grid_design();
    let base = HierarchicalCts {
        workers: 1,
        ..HierarchicalCts::default()
    };
    let with_recovery = HierarchicalCts {
        recovery: RecoveryPolicy::standard(),
        workers: 1,
        ..HierarchicalCts::default()
    };
    assert_eq!(
        base.run(&design).unwrap(),
        with_recovery.run(&design).unwrap()
    );
}
