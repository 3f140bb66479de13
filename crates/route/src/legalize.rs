//! Skew legalization of a routed tree by detour insertion.
//!
//! Given a tree with fixed geometry, a bottom-up pass restores a skew
//! bound by snaking extra wire onto the edges of *fast* subtrees. At each
//! internal node the children's delay windows are compared; children whose
//! fastest sink undercuts the slowest sink by more than the bound get
//! detour on their top edge — the highest-capacitance edge exclusive to
//! that subtree, which under the Elmore model buys the most ps per µm of
//! snake.
//!
//! This is the cheap half of CBS step 5: when the SALT tree's natural skew
//! is already close to the bound, legalizing it in place is far lighter
//! than a full DME re-embedding (which restructures geometry); when the
//! bound is stringent, the re-embedding wins. [`sllt_core`'s CBS] takes
//! whichever is lighter.

use crate::dme::{solve_increasing_from, DelayModel};
use sllt_tree::{ClockTree, NodeId};

/// Adds detour wire so the tree's sink-to-sink skew (under `model`) drops
/// to at most `bound`. Geometry (node positions, topology) is untouched;
/// only routed edge lengths grow. Returns the total detour added, µm.
///
/// Works bottom-up, so the bound holds at every subtree, not just
/// globally.
///
/// # Panics
///
/// Panics when `bound` is negative, or when a load pin is not a leaf
/// (normalize with [`sllt_tree::edits::sinks_to_leaves`] first) — an
/// internal sink pins its subtree's fast end and cannot be slowed by edge
/// detour.
pub fn skew_legalize(tree: &mut ClockTree, model: &DelayModel, bound: f64) -> f64 {
    skew_legalize_offsets(tree, model, bound, &[])
}

/// Like [`skew_legalize`], but sink `i` (by its `sink_index`) starts at
/// delay `offsets[i]` — the accumulated delay of the subtree it stands
/// for in a hierarchical flow. An empty slice means all-zero offsets.
///
/// # Panics
///
/// As [`skew_legalize`]; additionally panics when `offsets` is non-empty
/// but too short for some sink index.
pub fn skew_legalize_offsets(
    tree: &mut ClockTree,
    model: &DelayModel,
    bound: f64,
    offsets: &[f64],
) -> f64 {
    let intervals: Vec<(f64, f64)> = offsets.iter().map(|&o| (o, o)).collect();
    skew_legalize_intervals(tree, model, bound, &intervals)
}

/// Like [`skew_legalize_offsets`], but each sink carries a delay
/// *interval* `(fastest, slowest)`; an empty slice means all-zero.
///
/// # Panics
///
/// As [`skew_legalize`].
pub fn skew_legalize_intervals(
    tree: &mut ClockTree,
    model: &DelayModel,
    bound: f64,
    intervals: &[(f64, f64)],
) -> f64 {
    assert!(bound >= 0.0, "negative skew bound");
    let n_slots = tree.arena_len();
    // Per-node downstream cap and delay interval measured from the node,
    // and whether any sink hangs below it (set by the same bottom-up
    // pass, so each subtree is inspected once).
    let mut cap = vec![0.0f64; n_slots];
    let mut lo = vec![0.0f64; n_slots];
    let mut hi = vec![0.0f64; n_slots];
    let mut sink_below = vec![false; n_slots];
    let mut added = 0.0;
    let mut children: Vec<NodeId> = Vec::new();
    let mut windows: Vec<(NodeId, f64, f64)> = Vec::new();

    let order = tree.topo_order();
    for &v in order.iter().rev() {
        let node = tree.node(v);
        if let sllt_tree::NodeKind::Sink { sink_index, .. } = node.kind {
            assert!(
                node.children().is_empty(),
                "internal load pin {v}: normalize the tree before legalizing"
            );
            cap[v.index()] = node.cap_ff();
            sink_below[v.index()] = true;
            if !intervals.is_empty() {
                let (l, h) = intervals[sink_index];
                lo[v.index()] = l;
                hi[v.index()] = h;
            }
            continue;
        }
        children.clear();
        children.extend(node.children());
        if children.is_empty() {
            continue; // barren Steiner leaf: no sinks below, nothing to do
        }
        // Children with sinks below them, with their windows as seen
        // from `v` (edge delay included).
        windows.clear();
        for &c in &children {
            if !sink_below[c.index()] {
                continue;
            }
            let e = tree.node(c).edge_len();
            let d = model.wire_delay(e, cap[c.index()]);
            windows.push((c, lo[c.index()] + d, hi[c.index()] + d));
        }
        if windows.is_empty() {
            continue;
        }
        sink_below[v.index()] = true;
        let slowest = windows.iter().fold(f64::NEG_INFINITY, |m, w| m.max(w.2));
        let mut v_lo = f64::INFINITY;
        let mut v_hi = f64::NEG_INFINITY;
        for &(c, w_lo, w_hi) in &windows {
            let deficit = (slowest - bound) - w_lo;
            let (w_lo, w_hi) = if deficit > 1e-12 {
                // Slow this child: grow its edge until its fast end meets
                // the window. Delay is increasing in the extra length.
                let base = tree.node(c).edge_len();
                let base_delay = model.wire_delay(base, cap[c.index()]);
                let extra = solve_extra(model, base, cap[c.index()], base_delay + deficit);
                tree.add_detour(c, extra);
                added += extra;
                let d = model.wire_delay(base + extra, cap[c.index()]);
                (lo[c.index()] + d, hi[c.index()] + d)
            } else {
                (w_lo, w_hi)
            };
            v_lo = v_lo.min(w_lo);
            v_hi = v_hi.max(w_hi);
        }
        lo[v.index()] = v_lo;
        hi[v.index()] = v_hi;
        // Accumulate capacitance (wire + subtrees) for the parent.
        cap[v.index()] = tree.node(v).cap_ff()
            + children
                .iter()
                .map(|&c| cap[c.index()] + model.wire_cap(tree.node(c).edge_len()))
                .sum::<f64>();
    }
    added
}

/// Smallest `extra ≥ 0` with `wire_delay(base + extra, cap) ≥ target`.
fn solve_extra(model: &DelayModel, base: f64, cap: f64, target: f64) -> f64 {
    solve_increasing_from(|extra| model.wire_delay(base + extra, cap) - target, 1.0)
        .expect("legalization detour search diverged")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dme::skew_of;
    use crate::salt::salt;
    use sllt_geom::Point;
    use sllt_rng::prelude::*;
    use sllt_timing::Technology;
    use sllt_tree::{ClockNet, Sink};

    fn random_net(seed: u64, n: usize) -> ClockNet {
        let mut rng = StdRng::seed_from_u64(seed);
        ClockNet::new(
            Point::new(37.5, 37.5),
            (0..n)
                .map(|_| {
                    Sink::new(
                        Point::new(rng.random_range(0.0..75.0), rng.random_range(0.0..75.0)),
                        1.0,
                    )
                })
                .collect(),
        )
    }

    #[test]
    fn legalize_meets_pathlength_bounds() {
        for seed in 0..10 {
            let net = random_net(seed, 20);
            for bound in [0.0, 10.0, 50.0] {
                let mut t = salt(&net, 0.2);
                sllt_tree::edits::sinks_to_leaves(&mut t);
                let added = skew_legalize(&mut t, &DelayModel::PathLength, bound);
                assert!(added >= 0.0);
                t.validate().unwrap();
                let skew = skew_of(&t, &DelayModel::PathLength);
                assert!(
                    skew <= bound + 1e-6,
                    "seed {seed} bound {bound}: skew {skew}"
                );
            }
        }
    }

    #[test]
    fn legalize_meets_elmore_bounds() {
        let model = DelayModel::Elmore(Technology::n28());
        for seed in 0..10 {
            let net = random_net(seed + 40, 25);
            for bound in [0.5, 2.0, 5.0] {
                let mut t = salt(&net, 0.2);
                sllt_tree::edits::sinks_to_leaves(&mut t);
                skew_legalize(&mut t, &model, bound);
                t.validate().unwrap();
                let skew = skew_of(&t, &model);
                assert!(
                    skew <= bound + 1e-6,
                    "seed {seed} bound {bound}: skew {skew}"
                );
            }
        }
    }

    #[test]
    fn already_legal_trees_are_untouched() {
        let model = DelayModel::Elmore(Technology::n28());
        let net = random_net(3, 20);
        let mut t = salt(&net, 0.2);
        sllt_tree::edits::sinks_to_leaves(&mut t);
        let natural = skew_of(&t, &model);
        let before = t.wirelength();
        let added = skew_legalize(&mut t, &model, natural + 1.0);
        assert_eq!(added, 0.0);
        assert!((t.wirelength() - before).abs() < 1e-12);
    }

    #[test]
    fn detour_lands_on_high_cap_edges() {
        // A fast two-sink cluster vs a slow far sink: the detour should go
        // on the cluster's shared top edge, not on the two leaf edges.
        let tech = Technology::n28();
        let model = DelayModel::Elmore(tech);
        let mut t = sllt_tree::ClockTree::new(Point::ORIGIN);
        let top = t.add_steiner(t.root(), Point::new(5.0, 0.0));
        let s1 = t.add_sink(top, Point::new(6.0, 1.0), 1.0);
        let s2 = t.add_sink(top, Point::new(6.0, -1.0), 1.0);
        let far = t.add_sink(t.root(), Point::new(80.0, 0.0), 1.0);
        skew_legalize(&mut t, &model, 0.5);
        let skew = skew_of(&t, &model);
        assert!(skew <= 0.5 + 1e-6, "skew {skew}");
        // Leaf edges untouched; the shared top edge carries the snake.
        assert!((t.node(s1).edge_len() - 2.0).abs() < 1e-9);
        assert!((t.node(s2).edge_len() - 2.0).abs() < 1e-9);
        assert!(t.node(top).edge_len() > 5.0);
        assert!((t.node(far).edge_len() - 80.0).abs() < 1e-9);
    }

    #[test]
    fn tighter_bounds_cost_more_detour() {
        let model = DelayModel::Elmore(Technology::n28());
        let net = random_net(8, 25);
        let base = {
            let mut t = salt(&net, 0.2);
            sllt_tree::edits::sinks_to_leaves(&mut t);
            t
        };
        let mut added = Vec::new();
        for bound in [5.0, 2.0, 0.5] {
            let mut t = base.clone();
            added.push(skew_legalize(&mut t, &model, bound));
        }
        assert!(added[0] <= added[1] + 1e-9);
        assert!(added[1] <= added[2] + 1e-9);
    }

    /// Every detour and edge length the cases above produce, digested:
    /// the value a change to how legalization walks the tree must keep.
    #[test]
    fn detours_are_pinned() {
        let mut bytes = Vec::new();
        let mut record = |t: &sllt_tree::ClockTree, added: f64| {
            bytes.extend(added.to_bits().to_le_bytes());
            for id in t.node_ids() {
                bytes.extend(t.node(id).edge_len().to_bits().to_le_bytes());
            }
        };
        let elmore = DelayModel::Elmore(Technology::n28());
        for seed in 0..10 {
            for (model, net, bounds) in [
                (
                    DelayModel::PathLength,
                    random_net(seed, 20),
                    [0.0, 10.0, 50.0],
                ),
                (elmore, random_net(seed + 40, 25), [0.5, 2.0, 5.0]),
            ] {
                for bound in bounds {
                    let mut t = salt(&net, 0.2);
                    sllt_tree::edits::sinks_to_leaves(&mut t);
                    let added = skew_legalize(&mut t, &model, bound);
                    record(&t, added);
                }
            }
        }
        let net = random_net(8, 25);
        for bound in [5.0, 2.0, 0.5] {
            let mut t = salt(&net, 0.2);
            sllt_tree::edits::sinks_to_leaves(&mut t);
            let added = skew_legalize(&mut t, &elmore, bound);
            record(&t, added);
        }
        assert_eq!(
            format!("{:016x}", sllt_obs::journal::fnv1a64(&bytes)),
            "8c0c254896874db4"
        );
    }

    #[test]
    #[should_panic(expected = "normalize the tree")]
    fn internal_sinks_rejected() {
        let mut t = sllt_tree::ClockTree::new(Point::ORIGIN);
        let s = t.add_sink(t.root(), Point::new(5.0, 0.0), 1.0);
        t.add_sink(s, Point::new(10.0, 0.0), 1.0);
        skew_legalize(&mut t, &DelayModel::PathLength, 1.0);
    }
}
