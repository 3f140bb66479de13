//! Scale regressions for the greedy merge orders and the DME pipeline.
//!
//! Three failure modes guarded here; the first two surfaced once
//! topology generation stopped being the bottleneck:
//!
//! * the O(n³) pairwise rescan previously capped greedy schemes at a few
//!   thousand sinks — the nearest-pair engine must take a 200k-sink
//!   collinear net through `greedy_dist` → DME → drop;
//! * chain-deep merge orders (depth ≈ n) used to overflow the default
//!   8 MiB stack in the boxed `Topology`'s drop glue and DME's recursive
//!   build/embed — `Topology` is a flat postorder node array now, DME
//!   builds over it in one forward loop and embeds with an explicit
//!   stack, verified on a 200k-deep chain end to end;
//! * skew legalization once re-walked every child's subtree from each
//!   ancestor, recursively: quadratic, and unbounded recursion, on a
//!   deep Steiner chain.

use sllt_geom::Point;
use sllt_route::{bst_dme, greedy_dist, skew_legalize, skew_of, DelayModel};
use sllt_tree::{ClockNet, ClockTree, Sink, Topology};

fn collinear_net(n: usize, step: f64) -> ClockNet {
    ClockNet::new(
        Point::ORIGIN,
        (0..n)
            .map(|i| Sink::new(Point::new(i as f64 * step, 0.0), 1.0))
            .collect(),
    )
}

/// Acceptance: a 200k-sink collinear net runs `greedy_dist` → `dme` →
/// drop on the default stack. Collinear placements are the degenerate
/// case for both the spatial grid (all points on one rotated-space
/// diagonal) and the merge-order shape.
#[test]
fn collinear_200k_greedy_dist_to_dme_and_drop() {
    const N: usize = 200_000;
    let net = collinear_net(N, 0.5);
    let topo = greedy_dist(&net);
    assert_eq!(topo.len(), N);
    // A generous bound keeps every merge feasible without detours; the
    // point here is scale, not skew tightness.
    let bound = N as f64;
    let tree = bst_dme(&net, &topo, bound);
    assert_eq!(tree.sinks().len(), N);
    assert!(skew_of(&tree, &DelayModel::PathLength) <= bound + 1e-6);
    drop(tree);
    drop(topo);
}

/// A 200k-deep left-deep chain topology — the worst shape a greedy merge
/// order can emit — must route through DME and drop without recursing.
#[test]
fn chain_200k_topology_runs_dme_and_drops() {
    const N: usize = 200_000;
    let net = collinear_net(N, 0.5);
    let mut topo = Topology::sink(0);
    for i in 1..N {
        topo = Topology::merge(topo, Topology::sink(i));
    }
    assert_eq!(topo.depth(), N - 1);
    let tree = bst_dme(&net, &topo, N as f64);
    assert_eq!(tree.sinks().len(), N);
    drop(tree);
    drop(topo);
}

/// A 200k-deep Steiner chain whose deep child comes first at every
/// node — the worst case for a sink-below search — legalizes on the
/// default stack, in one bottom-up pass.
#[test]
fn chain_200k_skew_legalizes() {
    const N: usize = 200_000;
    let mut tree = ClockTree::new(Point::ORIGIN);
    let mut tip = tree.root();
    for i in 0..N {
        let next = tree.add_steiner(tip, Point::new((i + 1) as f64 * 0.5, 0.0));
        tree.add_sink(tip, Point::new(i as f64 * 0.5, 1.0), 1.0);
        tip = next;
    }
    tree.add_sink(tip, Point::new(N as f64 * 0.5, 1.0), 1.0);
    let bound = 10.0;
    let added = skew_legalize(&mut tree, &DelayModel::PathLength, bound);
    assert!(added > 0.0);
    assert_eq!(tree.sinks().len(), N + 1);
    assert!(skew_of(&tree, &DelayModel::PathLength) <= bound + 1e-6);
}
