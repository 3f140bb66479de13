//! Structural clean-ups used between CBS phases.
//!
//! Paper Fig. 2: step 2 extracts the BST topology "in which the redundant
//! Steiner nodes will be eliminated"; step 4 traverses all nodes to
//! ensure "1) the tree should be a binary tree, and 2) the load pin nodes
//! must be leaf nodes". These passes implement exactly those rules.

use crate::{ClockTree, NodeKind};

/// Removes redundant Steiner nodes: Steiner leaves are deleted and
/// pass-through (degree-1) Steiner nodes are spliced out, with routed
/// lengths preserved. Runs to a fixed point; returns how many nodes were
/// removed.
pub fn eliminate_redundant_steiner(tree: &mut ClockTree) -> usize {
    let mut removed = 0;
    loop {
        let mut changed = false;
        // Passes only remove nodes, so walking the pass-start slots with a
        // liveness check visits what a collected id list would.
        for i in 0..tree.arena_len() {
            let Some(id) = tree.live_id(i) else {
                continue;
            };
            if id == tree.root() {
                continue;
            }
            let n = tree.node(id);
            if !n.kind.is_steiner() {
                continue;
            }
            match n.children().len() {
                0 => {
                    tree.remove_leaf(id);
                    removed += 1;
                    changed = true;
                }
                1 => {
                    tree.splice_out(id);
                    removed += 1;
                    changed = true;
                }
                _ => {}
            }
        }
        if !changed {
            return removed;
        }
    }
}

/// Ensures every load pin is a leaf (CBS step 4, rule 2): an internal sink
/// is replaced by a Steiner point at the same location, with the sink
/// re-attached below it through a zero-length edge. Returns the number of
/// sinks that were pushed down.
pub fn sinks_to_leaves(tree: &mut ClockTree) -> usize {
    let mut pushed = 0;
    // Sinks pushed down land past the pass-start slots and are not
    // revisited.
    for i in 0..tree.arena_len() {
        let Some(id) = tree.live_id(i) else {
            continue;
        };
        let n = tree.node(id);
        let (cap_ff, sink_index) = match n.kind {
            NodeKind::Sink { cap_ff, sink_index } if !n.children().is_empty() => {
                (cap_ff, sink_index)
            }
            _ => continue,
        };
        let pos = tree.node(id).pos;
        // Demote the internal node to a Steiner point…
        tree.set_kind(id, NodeKind::Steiner);
        // …and hang the actual load pin underneath with zero wire.
        tree.add_sink_indexed(id, pos, cap_ff, sink_index);
        pushed += 1;
    }
    pushed
}

/// Ensures no node has more than two children (CBS step 4, rule 1) by
/// inserting zero-length Steiner nodes. Children are paired by a blend of
/// proximity and subtree-depth similarity: the grouping becomes the merge
/// order of the downstream DME re-embedding, where merging a deep subtree
/// with a shallow neighbour costs detour wire. Returns the number of
/// Steiner nodes inserted.
pub fn binarize(tree: &mut ClockTree) -> usize {
    // Deepest routed path below each node (0 for leaves), used as the
    // delay proxy when pairing.
    let mut depth_below = vec![0.0f64; tree.arena_len()];
    let order = tree.topo_order();
    for &id in order.iter().rev() {
        if let Some(p) = tree.node(id).parent() {
            let cand = depth_below[id.index()] + tree.node(id).edge_len();
            if cand > depth_below[p.index()] {
                depth_below[p.index()] = cand;
            }
        }
    }

    let mut inserted = 0;
    let mut stack = vec![tree.root()];
    while let Some(id) = stack.pop() {
        while tree.node(id).children().len() > 2 {
            let kids = tree.node(id).children().to_vec();
            let mut best = (0usize, 1usize, f64::INFINITY);
            for i in 0..kids.len() {
                for j in (i + 1)..kids.len() {
                    let (a, b) = (kids[i], kids[j]);
                    let d = tree.node(a).pos.dist(tree.node(b).pos);
                    let da = depth_below[a.index()] + tree.node(a).edge_len();
                    let db = depth_below[b.index()] + tree.node(b).edge_len();
                    let cost = d + (da - db).abs();
                    if cost < best.2 {
                        best = (i, j, cost);
                    }
                }
            }
            let (a, b) = (kids[best.0], kids[best.1]);
            let pos = tree.node(id).pos;
            let grouped_depth = (depth_below[a.index()] + tree.node(a).edge_len())
                .max(depth_below[b.index()] + tree.node(b).edge_len());
            let group = tree.add_steiner(id, pos);
            tree.reparent(a, group);
            tree.reparent(b, group);
            if depth_below.len() <= group.index() {
                depth_below.resize(group.index() + 1, 0.0);
            }
            depth_below[group.index()] = grouped_depth;
            inserted += 1;
        }
        stack.extend(tree.node(id).children());
    }
    inserted
}

#[cfg(test)]
mod tests {
    use super::*;
    use sllt_geom::Point;

    #[test]
    fn steiner_leaf_and_passthrough_removed() {
        let mut t = ClockTree::new(Point::ORIGIN);
        let a = t.add_steiner(t.root(), Point::new(2.0, 0.0)); // pass-through
        let b = t.add_steiner(a, Point::new(4.0, 0.0));
        t.add_sink(b, Point::new(6.0, 0.0), 1.0);
        t.add_steiner(b, Point::new(4.0, 2.0)); // dead leaf
        let removed = eliminate_redundant_steiner(&mut t);
        // The dead leaf goes first; that makes b pass-through, and removing
        // b makes a pass-through too — the cascade removes all three.
        assert_eq!(removed, 3);
        t.validate().unwrap();
        // The sink keeps its full routed length through the spliced point.
        let sinks = t.sinks();
        assert_eq!(t.path_lengths()[sinks[0].index()], 6.0);
    }

    #[test]
    fn cascading_removal_reaches_fixed_point() {
        // steiner -> steiner -> steiner (all pass-through/leaf chains).
        let mut t = ClockTree::new(Point::ORIGIN);
        let a = t.add_steiner(t.root(), Point::new(1.0, 0.0));
        let b = t.add_steiner(a, Point::new(2.0, 0.0));
        t.add_steiner(b, Point::new(3.0, 0.0));
        let removed = eliminate_redundant_steiner(&mut t);
        assert_eq!(removed, 3);
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn internal_sinks_become_leaves() {
        let mut t = ClockTree::new(Point::ORIGIN);
        let s = t.add_sink(t.root(), Point::new(3.0, 0.0), 2.5);
        t.add_sink(s, Point::new(6.0, 0.0), 1.0);
        assert_eq!(sinks_to_leaves(&mut t), 1);
        t.validate().unwrap();
        // Both pins are now leaves; total cap is preserved.
        let sinks = t.sinks();
        assert_eq!(sinks.len(), 2);
        for id in &sinks {
            assert!(t.node(*id).children().is_empty());
        }
        let total: f64 = sinks.iter().map(|&id| t.node(id).cap_ff()).sum();
        assert!((total - 3.5).abs() < 1e-12);
        // Wirelength unchanged: the new leaf edge is zero-length.
        assert!((t.wirelength() - 6.0).abs() < 1e-12);
    }

    #[test]
    fn binarize_splits_high_degree_nodes() {
        let mut t = ClockTree::new(Point::ORIGIN);
        for i in 0..5 {
            t.add_sink(t.root(), Point::new(i as f64, 1.0), 1.0);
        }
        let inserted = binarize(&mut t);
        assert_eq!(inserted, 3, "5 children need 3 grouping nodes");
        t.validate().unwrap();
        for id in t.node_ids() {
            assert!(t.node(id).children().len() <= 2, "node {id} still fat");
        }
        assert_eq!(t.sinks().len(), 5);
    }

    #[test]
    fn binarize_groups_nearest_children() {
        let mut t = ClockTree::new(Point::ORIGIN);
        let far = t.add_sink(t.root(), Point::new(50.0, 0.0), 1.0);
        let a = t.add_sink(t.root(), Point::new(1.0, 1.0), 1.0);
        let b = t.add_sink(t.root(), Point::new(1.0, 2.0), 1.0);
        binarize(&mut t);
        // a and b (1 µm apart) share a parent; far does not.
        assert_eq!(t.node(a).parent(), t.node(b).parent());
        assert_ne!(t.node(a).parent(), t.node(far).parent());
    }

    #[test]
    fn full_normalization_pipeline() {
        // A messy tree: fat root, internal sink, redundant steiner chain.
        let mut t = ClockTree::new(Point::ORIGIN);
        let s0 = t.add_sink(t.root(), Point::new(2.0, 0.0), 1.0);
        t.add_sink(s0, Point::new(4.0, 0.0), 1.0);
        let st = t.add_steiner(t.root(), Point::new(0.0, 2.0));
        t.add_steiner(st, Point::new(0.0, 4.0));
        t.add_sink(t.root(), Point::new(-2.0, 0.0), 1.0);
        t.add_sink(t.root(), Point::new(-2.0, 1.0), 1.0);

        eliminate_redundant_steiner(&mut t);
        sinks_to_leaves(&mut t);
        binarize(&mut t);
        t.validate().unwrap();
        for id in t.node_ids() {
            let n = t.node(id);
            assert!(n.children().len() <= 2);
            if n.kind.is_sink() {
                assert!(n.children().is_empty());
            }
        }
        assert_eq!(t.sinks().len(), 4);
    }
}
