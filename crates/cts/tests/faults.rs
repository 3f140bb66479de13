//! Fault-injection suite: drives the degradation ladder with
//! deterministic injected failures and asserts the recovery contract —
//! transient faults recover with recorded downgrades, permanent faults
//! exhaust the ladder into a typed error, panics are contained at
//! cluster granularity, and recovered runs stay bit-identical at any
//! worker count.
//!
//! The scenario table (`every_scenario_*`) is the one harness for that
//! contract: it runs on a 96-FF grid in every profile, and in release
//! (`cargo test --release -p sllt-cts --test faults`, as `scripts/ci.sh`
//! does) on s35932 and, with the transient route panic alone, on the
//! square 10⁵-sink grid.

use sllt_cts::flow::HierarchicalCts;
use sllt_cts::{
    CollectingObserver, CtsError, FaultKind, FaultPlan, FaultStage, FlowObserver, NullObserver,
    NullSink, RunContext, StageFault,
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
    recovery: bool,
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

/// `(bytes, FNV-1a-64)` of a tree's `write_tree` text.
fn written(tree: &ClockTree) -> (usize, u64) {
    let mut bytes = Vec::new();
    sllt_tree::io::write_tree(tree, &mut bytes).expect("in-memory write");
    (bytes.len(), sllt_obs::fnv1a64(&bytes))
}

// ---- typed context without recovery ---------------------------------------

#[test]
fn injected_route_error_is_typed_with_context() {
    let result = with_fault(
        StageFault::once(FaultStage::Route, 0, Some(1), FaultKind::Error),
        false,
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
            false,
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
            false,
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
    // Two clusters fail (by panic, or by returning an error); the error
    // must always name the lowest index, regardless of which worker hit
    // which cluster first.
    for kind in [FaultKind::Panic, FaultKind::Error] {
        for workers in [1usize, 2, 4] {
            let cts = HierarchicalCts {
                recovery: false,
                workers,
                ..HierarchicalCts::default()
            };
            let ctx = RunContext {
                faults: FaultPlan {
                    faults: vec![
                        StageFault::once(FaultStage::Route, 0, Some(2), kind),
                        StageFault::once(FaultStage::Route, 0, Some(1), kind),
                    ],
                },
                ..Default::default()
            };
            let cluster = match (kind, cts.run_in(&grid_design(), ctx).unwrap_err()) {
                (FaultKind::Panic, CtsError::ClusterPanicked { cluster, .. }) => Some(cluster),
                (FaultKind::Error, CtsError::InjectedFault { cluster, .. }) => cluster,
                (_, other) => panic!("{kind:?} at {workers} workers: got {other:?}"),
            };
            assert_eq!(cluster, Some(1), "{kind:?} at {workers} workers");
        }
    }
}

// ---- ladder recovery ------------------------------------------------------

#[test]
fn transient_route_error_recovers_and_records_the_downgrade() {
    let mut obs = CollectingObserver::new();
    let tree = with_fault(
        StageFault::once(FaultStage::Route, 0, Some(0), FaultKind::Error),
        true,
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
    assert_eq!(l0.downgrades[0].skew_factor, 1.5);
    assert_eq!(written(&tree), (7_410, 0xaa9e_e39e_a404_9792));
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
        true,
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
        true,
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

/// A level-0 route fault on every cluster that fires on the first five
/// attempts (identity, ×1.5, ×2, ×4, BST) and clears on the sixth, the
/// ladder's RSMT rung.
fn until_rsmt() -> FaultPlan {
    FaultPlan::single(StageFault {
        max_attempt: 5,
        ..StageFault::once(FaultStage::Route, 0, None, FaultKind::Error)
    })
}

#[test]
fn route_fault_recovers_by_topology_fallback() {
    let cts = HierarchicalCts {
        recovery: true,
        workers: 1,
        ..HierarchicalCts::default()
    };
    let mut obs = CollectingObserver::new();
    let ctx = RunContext {
        faults: until_rsmt(),
        ..RunContext::new(&mut obs, &NullSink)
    };
    let tree = cts.run_in(&grid_design(), ctx).unwrap();
    tree.validate().unwrap();

    let l0 = &obs.levels[0];
    assert_eq!(l0.attempts, 6, "must climb to the RSMT rung");
    let last = l0.downgrades.last().unwrap();
    assert_eq!(last.topology, Some("rsmt"));
    assert!(last.trigger.contains("injected"), "{:?}", last.trigger);
    // Only the rung that succeeds shapes the tree: any level-0 failure
    // that clears on the RSMT rung builds these bytes.
    assert_eq!(written(&tree), (4_922, 0xc062_8092_3b79_2b56));
}

// ---- the recovery contract, scenario by scenario ---------------------------

/// The scenario table: fault plans every one of which the ladder must
/// absorb.
fn scenarios() -> [(&'static str, FaultPlan); 5] {
    let once = |stage, cluster, kind| FaultPlan::single(StageFault::once(stage, 0, cluster, kind));
    [
        (
            "transient route error",
            once(FaultStage::Route, Some(0), FaultKind::Error),
        ),
        (
            "transient route panic",
            once(FaultStage::Route, Some(0), FaultKind::Panic),
        ),
        (
            "partition error",
            once(FaultStage::Partition, None, FaultKind::Error),
        ),
        (
            "sizing error",
            once(FaultStage::Sizing, None, FaultKind::Error),
        ),
        ("topology fallback", until_rsmt()),
    ]
}

/// Runs each scenario at 1, 2 and 4 workers with the ladder on:
/// each run recovers into a valid tree over every sink, records at
/// least one downgrade, and builds the same tree at every worker count.
fn assert_recovery_contract(design: &Design, scenarios: &[(&str, FaultPlan)]) {
    let sinks = design.num_ffs();
    for (name, faults) in scenarios {
        let mut reference: Option<ClockTree> = None;
        for workers in [1usize, 2, 4] {
            let cts = HierarchicalCts {
                recovery: true,
                workers,
                ..HierarchicalCts::default()
            };
            let mut obs = CollectingObserver::new();
            let ctx = RunContext {
                faults: faults.clone(),
                ..RunContext::new(&mut obs, &NullSink)
            };
            let tree = cts
                .run_in(design, ctx)
                .unwrap_or_else(|e| panic!("{name}, workers={workers}: did not recover: {e}"));
            if let Err(e) = tree.validate() {
                panic!("{name}, workers={workers}: invalid tree: {e}");
            }
            assert_eq!(tree.sinks().len(), sinks, "{name}, workers={workers}");
            let downgrades: usize = obs.levels.iter().map(|l| l.downgrades.len()).sum();
            assert!(
                downgrades > 0,
                "{name}, workers={workers}: empty recovery log"
            );
            match &reference {
                Some(r) => assert_eq!(*r, tree, "{name}: workers={workers} diverged"),
                None => reference = Some(tree),
            }
        }
    }
}

#[test]
fn every_scenario_recovers_identically_on_the_grid() {
    assert_recovery_contract(&grid_design(), &scenarios());
}

#[test]
#[cfg_attr(debug_assertions, ignore = "release-only: run via scripts/ci.sh")]
fn every_scenario_recovers_identically_on_s35932() {
    assert_recovery_contract(
        &sllt_design::design_by_name("s35932").unwrap(),
        &scenarios(),
    );
}

/// Fault containment at a scale point: one scenario keeps the gate
/// cheap (about 0.6 s a run in release), and the same tree at every
/// worker count is the contract, so no bytes are pinned here.
#[test]
#[cfg_attr(debug_assertions, ignore = "release-only: run via scripts/ci.sh")]
fn route_panic_recovers_identically_on_square_100k() {
    let panic = scenarios()
        .into_iter()
        .find(|(name, _)| *name == "transient route panic")
        .expect("the scenario table has a transient route panic");
    assert_recovery_contract(
        &sllt_design::GridSpec::square(100_000).instantiate(),
        &[panic],
    );
}

// ---- determinism of recovered runs ----------------------------------------

#[test]
fn recovered_runs_are_bit_identical_at_any_worker_count() {
    let fault = || StageFault::once(FaultStage::Route, 0, Some(0), FaultKind::Error);
    let serial = with_fault(fault(), true, 1, &mut NullObserver).unwrap();
    for workers in [2usize, 4] {
        let parallel = with_fault(fault(), true, workers, &mut NullObserver).unwrap();
        assert_eq!(serial, parallel, "workers={workers} diverged");
    }
    // And recovery itself is reproducible run-to-run.
    let again = with_fault(fault(), true, 1, &mut NullObserver).unwrap();
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
        recovery: true,
        workers: 1,
        ..HierarchicalCts::default()
    };
    assert_eq!(
        base.run(&design).unwrap(),
        with_recovery.run(&design).unwrap()
    );
}
