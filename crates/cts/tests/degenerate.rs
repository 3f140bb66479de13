//! Degenerate-input corpus: pathological but *constructible* designs.
//!
//! The contract under test is the flow's no-panic guarantee: every case
//! here either produces a valid tree covering every sink or returns a
//! specific typed [`CtsError`] — an abort is always a bug. The corpus
//! covers the geometric degeneracies (0/1/2 sinks, all-coincident,
//! all-collinear), configuration degeneracies (one-entry buffer
//! library, broken constraints), and sanitizer-rejected inputs
//! (non-finite and oversized coordinates, negative caps).

use sllt_cts::flow::HierarchicalCts;
use sllt_cts::{CtsConstraints, CtsError};
use sllt_design::Design;
use sllt_geom::{Point, Rect};
use sllt_timing::BufferLibrary;
use sllt_tree::{NodeKind, Sink};

fn design(sinks: Vec<Sink>) -> Design {
    Design {
        name: "degenerate".into(),
        num_instances: sinks.len().max(1),
        utilization: 0.5,
        die: Rect::new(Point::ORIGIN, Point::new(200.0, 200.0)),
        clock_root: Point::ORIGIN,
        sinks,
    }
}

/// Runs the flow and, on success, checks the tree is valid and covers
/// every sink exactly once.
fn run_and_check(cts: &HierarchicalCts, d: &Design) -> Result<(), CtsError> {
    let tree = cts.run(d)?;
    tree.validate().expect("flow returned a malformed tree");
    let mut seen = vec![false; d.sinks.len()];
    for id in tree.sinks() {
        if let NodeKind::Sink { sink_index, .. } = tree.node(id).kind {
            assert!(!seen[sink_index], "sink {sink_index} duplicated");
            seen[sink_index] = true;
        }
    }
    assert!(seen.iter().all(|&s| s), "some sinks were dropped");
    Ok(())
}

#[test]
fn zero_sinks_is_no_sinks() {
    let err = run_and_check(&HierarchicalCts::default(), &design(vec![])).unwrap_err();
    assert_eq!(err, CtsError::NoSinks);
}

#[test]
fn one_and_two_sinks_build() {
    let cts = HierarchicalCts::default();
    run_and_check(&cts, &design(vec![Sink::new(Point::new(50.0, 50.0), 1.0)])).unwrap();
    run_and_check(
        &cts,
        &design(vec![
            Sink::new(Point::new(10.0, 10.0), 1.0),
            Sink::new(Point::new(190.0, 150.0), 2.0),
        ]),
    )
    .unwrap();
}

#[test]
fn all_coincident_sinks_build() {
    // Twenty flip-flops on the same site: every merge segment collapses
    // to a point and every distance is zero.
    let sinks = (0..20)
        .map(|_| Sink::new(Point::new(100.0, 100.0), 1.0))
        .collect();
    run_and_check(&HierarchicalCts::default(), &design(sinks)).unwrap();
}

#[test]
fn all_collinear_sinks_build() {
    // Horizontal, vertical, and 45° lines (the worst case for rotated
    // (x±y)-space geometry: the whole net maps onto one rotated axis).
    for (dx, dy) in [(6.0, 0.0), (0.0, 6.0), (5.0, 5.0)] {
        let sinks = (0..30)
            .map(|i| Sink::new(Point::new(10.0 + i as f64 * dx, 10.0 + i as f64 * dy), 1.0))
            .collect();
        run_and_check(&HierarchicalCts::default(), &design(sinks))
            .unwrap_or_else(|e| panic!("collinear ({dx},{dy}): {e}"));
    }
}

#[test]
fn one_entry_buffer_library_builds_or_errors_typed() {
    // Only the largest n28 cell survives: sizing has no choices and
    // padding uses the same cell.
    let full = BufferLibrary::n28();
    let largest = full.largest().clone();
    let cts = HierarchicalCts {
        lib: BufferLibrary::from_cells(vec![largest]),
        ..HierarchicalCts::default()
    };
    let sinks = (0..64)
        .map(|i| {
            Sink::new(
                Point::new((i % 8) as f64 * 20.0, (i / 8) as f64 * 20.0),
                1.0,
            )
        })
        .collect();
    // Success or a typed error are both acceptable; a panic is not.
    let _ = run_and_check(&cts, &design(sinks));
}

#[test]
fn empty_buffer_library_is_typed() {
    let cts = HierarchicalCts {
        lib: BufferLibrary::from_cells(vec![]),
        ..HierarchicalCts::default()
    };
    let err = run_and_check(&cts, &design(vec![Sink::new(Point::new(1.0, 1.0), 1.0)])).unwrap_err();
    assert_eq!(err, CtsError::EmptyBufferLibrary);
}

#[test]
fn sanitizer_rejects_unusable_coordinates_and_caps() {
    let cases = [
        design(vec![Sink::new(Point::new(f64::NAN, 0.0), 1.0)]),
        design(vec![Sink::new(Point::new(0.0, f64::INFINITY), 1.0)]),
        design(vec![Sink::new(Point::new(2e12, 0.0), 1.0)]),
        design(vec![Sink::new(Point::new(1.0, 1.0), f64::NAN)]),
        design(vec![Sink::new(Point::new(1.0, 1.0), -2.0)]),
        {
            let mut d = design(vec![Sink::new(Point::new(1.0, 1.0), 1.0)]);
            d.clock_root = Point::new(f64::NAN, f64::NAN);
            d
        },
    ];
    for d in &cases {
        match run_and_check(&HierarchicalCts::default(), d) {
            Err(CtsError::InvalidDesign { detail }) => {
                assert!(!detail.is_empty(), "detail must name the defect");
            }
            other => panic!("expected InvalidDesign, got {other:?}"),
        }
    }
    // After repair, the same designs pass the gate: either every sink was
    // dropped (NoSinks) or the flow runs clean.
    for d in &cases {
        let (fixed, _report) = sllt_design::sanitize::repair(d);
        assert!(sllt_design::sanitize::first_fatal(&fixed).is_none());
        if fixed.sinks.is_empty() {
            assert_eq!(
                run_and_check(&HierarchicalCts::default(), &fixed).unwrap_err(),
                CtsError::NoSinks
            );
        } else {
            run_and_check(&HierarchicalCts::default(), &fixed).unwrap();
        }
    }
}

#[test]
fn broken_constraints_are_typed_not_panics() {
    let d = design(vec![
        Sink::new(Point::new(1.0, 1.0), 1.0),
        Sink::new(Point::new(9.0, 4.0), 1.0),
    ]);
    for (c, field) in [
        (
            CtsConstraints {
                skew_ps: -1.0,
                ..CtsConstraints::paper()
            },
            "skew_ps",
        ),
        (
            CtsConstraints {
                skew_ps: f64::NAN,
                ..CtsConstraints::paper()
            },
            "skew_ps",
        ),
        (
            CtsConstraints {
                max_fanout: 0,
                ..CtsConstraints::paper()
            },
            "max_fanout",
        ),
        (
            CtsConstraints {
                max_cap_ff: 0.0,
                ..CtsConstraints::paper()
            },
            "max_cap_ff",
        ),
        (
            CtsConstraints {
                max_wl_um: f64::NEG_INFINITY,
                ..CtsConstraints::paper()
            },
            "max_wl_um",
        ),
    ] {
        let cts = HierarchicalCts {
            constraints: c,
            ..HierarchicalCts::default()
        };
        match run_and_check(&cts, &d) {
            Err(CtsError::InvalidConstraints { field: f, .. }) => assert_eq!(f, field),
            other => panic!("expected InvalidConstraints({field}), got {other:?}"),
        }
    }
}

#[test]
fn degenerate_cases_also_build_under_every_topology() {
    use sllt_cts::TopologyKind;
    use sllt_route::TopologyScheme;
    let coincident: Vec<Sink> = (0..8)
        .map(|_| Sink::new(Point::new(7.0, 7.0), 1.0))
        .collect();
    let pair = vec![
        Sink::new(Point::new(0.0, 0.0), 1.0),
        Sink::new(Point::new(100.0, 100.0), 1.0),
    ];
    for topo in [
        TopologyKind::Cbs {
            scheme: TopologyScheme::GreedyDist,
        },
        TopologyKind::Bst {
            scheme: TopologyScheme::GreedyDist,
        },
        TopologyKind::Rsmt,
    ] {
        let cts = HierarchicalCts {
            topology: topo,
            ..HierarchicalCts::default()
        };
        for sinks in [coincident.clone(), pair.clone()] {
            run_and_check(&cts, &design(sinks)).unwrap_or_else(|e| panic!("{topo:?}: {e}"));
        }
    }
}
