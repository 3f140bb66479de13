//! Behavior of the staged hierarchical engine: flow correctness
//! (migrated from the old monolithic `flow.rs` unit tests), typed
//! errors, parallel-route determinism, and the observer tie-out against
//! the evaluator.

use sllt_cts::eval::evaluate;
use sllt_cts::flow::{HierarchicalCts, TopologyKind};
use sllt_cts::{CollectingObserver, CtsError};
use sllt_design::{Design, DesignSpec};
use sllt_geom::{Point, Rect};
use sllt_timing::BufferLibrary;
use sllt_tree::{NodeKind, Sink};

// ---- flow correctness ----------------------------------------------------

#[test]
fn flow_covers_every_sink_exactly_once() {
    let design = DesignSpec::by_name("s35932").unwrap().instantiate();
    let cts = HierarchicalCts::default();
    let tree = cts.run(&design).unwrap();
    tree.validate().unwrap();
    let mut seen = vec![false; design.num_ffs()];
    for id in tree.sinks() {
        if let NodeKind::Sink { sink_index, .. } = tree.node(id).kind {
            assert!(!seen[sink_index], "sink {sink_index} duplicated");
            seen[sink_index] = true;
        }
    }
    assert!(seen.iter().all(|&s| s), "some sinks were dropped");
}

#[test]
fn flow_meets_the_paper_constraints() {
    let design = DesignSpec::by_name("s38584").unwrap().instantiate();
    let cts = HierarchicalCts::default();
    let tree = cts.run(&design).unwrap();
    let r = evaluate(&tree, &cts.tech, &cts.lib);
    assert!(
        r.skew_ps <= cts.constraints.skew_ps + 1e-6,
        "skew {}",
        r.skew_ps
    );
    assert!(r.num_buffers > 0);
    assert!(r.max_latency_ps > 0.0 && r.max_latency_ps < 1000.0);
}

#[test]
fn sink_positions_survive_assembly() {
    let design = DesignSpec::by_name("s38417").unwrap().instantiate();
    let cts = HierarchicalCts::default();
    let tree = cts.run(&design).unwrap();
    for id in tree.sinks() {
        if let NodeKind::Sink { sink_index, .. } = tree.node(id).kind {
            assert!(
                tree.node(id).pos.approx_eq(design.sinks[sink_index].pos),
                "sink {sink_index} moved"
            );
        }
    }
}

fn one_ff_design() -> Design {
    Design {
        name: "one".into(),
        num_instances: 1,
        utilization: 0.5,
        die: Rect::new(Point::ORIGIN, Point::new(100.0, 100.0)),
        clock_root: Point::ORIGIN,
        sinks: vec![Sink::new(Point::new(50.0, 50.0), 1.0)],
    }
}

#[test]
fn single_ff_design_is_a_wire() {
    let tree = HierarchicalCts::default().run(&one_ff_design()).unwrap();
    assert_eq!(tree.sinks().len(), 1);
    tree.validate().unwrap();
}

#[test]
fn sizing_policies_all_meet_the_bound() {
    let design = DesignSpec::by_name("s35932").unwrap().instantiate();
    for equalize in [true, false] {
        let cts = HierarchicalCts {
            equalize_sizing: equalize,
            ..HierarchicalCts::default()
        };
        let tree = cts.run(&design).unwrap();
        let r = evaluate(&tree, &cts.tech, &cts.lib);
        assert!(
            r.skew_ps <= cts.constraints.skew_ps + 1e-6,
            "equalize={equalize}: skew {}",
            r.skew_ps
        );
    }
}

#[test]
fn estimator_policies_all_complete() {
    let design = DesignSpec::by_name("s38417").unwrap().instantiate();
    for est in [
        sllt_buffer::DelayEstimator::None,
        sllt_buffer::DelayEstimator::LowerBound,
        sllt_buffer::DelayEstimator::ChosenCell,
    ] {
        let cts = HierarchicalCts {
            estimator: est,
            ..HierarchicalCts::default()
        };
        let tree = cts.run(&design).unwrap();
        tree.validate().unwrap();
        assert_eq!(tree.sinks().len(), design.num_ffs());
    }
}

#[test]
fn topology_kind_changes_the_result() {
    let design = DesignSpec::by_name("s35932").unwrap().instantiate();
    let mut cts = HierarchicalCts::default();
    let ours = evaluate(&cts.run(&design).unwrap(), &cts.tech, &cts.lib);
    cts.topology = TopologyKind::Rsmt;
    let rsmt = evaluate(&cts.run(&design).unwrap(), &cts.tech, &cts.lib);
    assert_ne!(ours.clock_wl_um, rsmt.clock_wl_um);
}

// ---- typed errors --------------------------------------------------------

#[test]
fn design_without_ffs_is_a_typed_error() {
    let design = Design {
        sinks: vec![],
        ..one_ff_design()
    };
    assert_eq!(
        HierarchicalCts::default().run(&design).unwrap_err(),
        CtsError::NoSinks
    );
}

#[test]
fn empty_buffer_library_is_a_typed_error() {
    let cts = HierarchicalCts {
        lib: BufferLibrary::from_cells(vec![]),
        ..HierarchicalCts::default()
    };
    assert_eq!(
        cts.run(&one_ff_design()).unwrap_err(),
        CtsError::EmptyBufferLibrary
    );
}

// ---- parallel determinism ------------------------------------------------

#[test]
fn parallel_route_is_bit_identical_to_serial() {
    for name in ["s35932", "s38584"] {
        let design = DesignSpec::by_name(name).unwrap().instantiate();
        let serial = HierarchicalCts {
            workers: 1,
            ..HierarchicalCts::default()
        }
        .run(&design)
        .unwrap();
        for workers in [2usize, 4] {
            let parallel = HierarchicalCts {
                workers,
                ..HierarchicalCts::default()
            }
            .run(&design)
            .unwrap();
            assert_eq!(
                serial, parallel,
                "{name}: workers={workers} diverged from serial"
            );
        }
    }
}

// ---- observer tie-out against the evaluator ------------------------------

#[test]
fn level_reports_tie_out_with_the_evaluator() {
    let design = DesignSpec::by_name("s35932").unwrap().instantiate();
    let cts = HierarchicalCts::default();
    let mut obs = CollectingObserver::new();
    let tree = cts.run_with_observer(&design, &mut obs).unwrap();
    let r = evaluate(&tree, &cts.tech, &cts.lib);

    assert!(!obs.levels.is_empty());
    assert!(obs.assemble.is_some());
    // Every level shrinks the node count, and cluster counts chain.
    for pair in obs.levels.windows(2) {
        assert_eq!(pair[0].num_clusters, pair[1].num_nodes);
        assert!(pair[0].num_clusters < pair[0].num_nodes);
    }
    assert_eq!(obs.levels[0].num_nodes, design.num_ffs());
    assert_eq!(obs.levels.last().unwrap().num_clusters, 1);

    // Wirelength: the assembled tree is exactly the per-level cluster
    // trees plus the root trunk (repeatering splits edges, adding none).
    let wl_sum = obs.total_wirelength_um();
    assert!(
        (wl_sum - r.clock_wl_um).abs() <= 1e-6 * r.clock_wl_um.max(1.0),
        "level WL {wl_sum} vs evaluator {}",
        r.clock_wl_um
    );

    // Capacitance: design sink pins + every buffer the flow reported
    // (drivers, pads, repeaters) + wire cap over the tied-out WL.
    let sink_cap: f64 = design.sinks.iter().map(|s| s.cap_ff).sum();
    let cap = sink_cap + obs.total_buffer_input_cap_ff() + cts.tech.wire_cap(r.clock_wl_um);
    assert!(
        (cap - r.clock_cap_ff).abs() <= 1e-6 * r.clock_cap_ff.max(1.0),
        "report cap {cap} vs evaluator {}",
        r.clock_cap_ff
    );
}
