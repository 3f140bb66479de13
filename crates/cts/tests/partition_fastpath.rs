//! Determinism and equivalence suite for the partition fast path.
//!
//! The fast path changed three execution strategies without changing
//! the contract: K-means restarts and SA chains fan out across worker
//! threads (deterministic best-of), the Lloyd nearest-centre scan is
//! grid-pruned (exact), and the per-round capacity assignment
//! warm-starts from the nearest-centre seed and repairs only the
//! overflow (cost-equal to the dense flow, which `sllt-partition` keeps
//! as a test oracle). These tests pin the end-to-end consequences on
//! whole trees:
//!
//! trees are bit-identical at any worker count, on both the small
//! (restart-scored) and large (sharded-grid) partition paths.

use sllt_cts::flow::HierarchicalCts;
use sllt_design::Design;
use sllt_geom::{Point, Rect};
use sllt_rng::prelude::*;
use sllt_tree::Sink;

/// A design with irrational-ish random coordinates: distance ties (and
/// thus alternate-optima ambiguity in the assignment flows) have
/// measure zero.
fn random_design(seed: u64, n: usize, span: f64) -> Design {
    let mut rng = StdRng::seed_from_u64(seed);
    let sinks: Vec<Sink> = (0..n)
        .map(|_| {
            Sink::new(
                Point::new(rng.random_range(0.0..span), rng.random_range(0.0..span)),
                1.0 + rng.random_range(0.0..1.5),
            )
        })
        .collect();
    Design {
        name: format!("fastpath{n}"),
        num_instances: n,
        utilization: 0.5,
        die: Rect::new(Point::ORIGIN, Point::new(span, span)),
        clock_root: Point::ORIGIN,
        sinks,
    }
}

#[test]
fn restart_and_chain_parallelism_is_bit_identical() {
    // 180 sinks: level 0 takes the restart-scored path (n <= 600), so
    // this drives parallel K-means restarts AND parallel SA chains.
    let design = random_design(11, 180, 400.0);
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
        assert_eq!(serial, parallel, "workers={workers} diverged from serial");
    }
}

#[test]
fn sharded_grid_parallelism_is_bit_identical() {
    // 1400 sinks: level 0 takes the sharded-grid path (n > 600) with
    // the warm overflow-repair assignment inside every cell.
    let design = random_design(23, 1400, 1500.0);
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
        assert_eq!(serial, parallel, "workers={workers} diverged from serial");
    }
}
