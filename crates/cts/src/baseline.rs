//! Baseline CTS flows standing in for the paper's comparison points.
//!
//! The paper compares against OpenROAD (TritonCTS) and a commercial P&R
//! tool, neither of which can run inside this reproduction. Each baseline
//! below reproduces the *behavioural signature* the paper reports:
//!
//! * [`open_road_like`] — TritonCTS-style synthesis: a structural
//!   region-halving trunk (H-tree) buffered at every tap with large fixed
//!   cells, leaf clusters star-connected. Geometry-blind trunks and
//!   per-level buffering give the paper's observed shape: the highest
//!   latency, skew and buffer area of the three flows.
//! * [`commercial_like`] — the hierarchical engine tuned the way a mature
//!   commercial CTS behaves: CBS with the Greedy-Merge order instead of
//!   Greedy-Dist, and a tighter internal skew target (40 % of the skew
//!   budget per level instead of 50 %). Driver sizing is the paper
//!   flow's own. On the Table-6 designs it ends within a few % of ours:
//!   slightly lower skew, the same buffers, cap and wirelength
//!   (`EXPERIMENTS.md`, Table 6).

use crate::constraints::CtsConstraints;
use crate::flow::{HierarchicalCts, TopologyKind};
use sllt_design::Design;
use sllt_geom::{Point, Rect};
use sllt_route::TopologyScheme;
use sllt_timing::{BufferLibrary, Technology};
use sllt_tree::{ClockTree, NodeId, Sink};

/// A commercial-tool-like configuration of the hierarchical engine.
pub fn commercial_like() -> HierarchicalCts {
    HierarchicalCts {
        topology: TopologyKind::Cbs {
            scheme: TopologyScheme::GreedyMerge,
        },
        // Commercial CTS converges skew well below the constraint, with
        // the same equalizing driver sizing discipline (latency tracks
        // ours closely, as in paper Table 6).
        level_skew_fraction: 0.4,
        ..HierarchicalCts::default()
    }
}

/// Builds the OpenROAD-like clock tree for a design.
///
/// Recursive region halving from the die-level bounding box, a
/// large buffer at every tap, and star connections from the last tap to
/// at most `max_fanout` sinks.
///
/// # Panics
///
/// Panics when the design has no flip-flops.
pub fn open_road_like(
    design: &Design,
    constraints: &CtsConstraints,
    _tech: &Technology,
    lib: &BufferLibrary,
) -> ClockTree {
    assert!(
        !design.sinks.is_empty(),
        "CTS over a design without flip-flops"
    );
    let mut tree = ClockTree::new(design.clock_root);
    // Mid-strength trunk cells, one size down at the leaves.
    let trunk_cell = lib.cells().len() / 2;
    let leaf_cell = (lib.cells().len() / 2).saturating_sub(1);
    let sinks: Vec<(usize, Sink)> = design.sinks.iter().copied().enumerate().collect();
    // Invariant: guarded by the is_empty assert above — a non-empty sink
    // set always has a bounding box.
    let region =
        Rect::bounding(&sinks.iter().map(|(_, s)| s.pos).collect::<Vec<_>>()).expect("nonempty");
    let root = tree.root();
    let top = tree.add_buffer(root, region.center(), trunk_cell);
    halve(
        &mut tree,
        top,
        &sinks,
        region,
        constraints.max_fanout,
        trunk_cell,
        leaf_cell,
        true,
    );
    tree
}

#[allow(clippy::too_many_arguments)]
fn halve(
    tree: &mut ClockTree,
    tap: NodeId,
    sinks: &[(usize, Sink)],
    region: Rect,
    max_fanout: usize,
    trunk_cell: usize,
    leaf_cell: usize,
    split_x: bool,
) {
    if sinks.len() <= max_fanout {
        // Leaf cluster: a buffer at the region tap driving a Steiner
        // tree over the cluster (TritonCTS routes leaf nets, it does not
        // star them).
        let leaf = tree.add_buffer(tap, region.center(), leaf_cell);
        let net =
            sllt_tree::ClockNet::new(region.center(), sinks.iter().map(|&(_, s)| s).collect());
        let routed = sllt_route::rsmt::rsmt(&net);
        graft(
            tree,
            leaf,
            &routed,
            routed.root(),
            &sinks.iter().map(|&(i, _)| i).collect::<Vec<_>>(),
        );
        return;
    }
    let c = region.center();
    let (ra, rb) = if split_x {
        (
            Rect::new(region.lo(), Point::new(c.x, region.hi().y)),
            Rect::new(Point::new(c.x, region.lo().y), region.hi()),
        )
    } else {
        (
            Rect::new(region.lo(), Point::new(region.hi().x, c.y)),
            Rect::new(Point::new(region.lo().x, c.y), region.hi()),
        )
    };
    let (mut la, mut lb) = (Vec::new(), Vec::new());
    for &(i, s) in sinks {
        let in_a = if split_x {
            s.pos.x <= c.x
        } else {
            s.pos.y <= c.y
        };
        if in_a {
            la.push((i, s));
        } else {
            lb.push((i, s));
        }
    }
    for (half, r) in [(la, ra), (lb, rb)] {
        if half.is_empty() {
            continue;
        }
        // TritonCTS-style trunks buffer roughly every other branching
        // level, not every tap.
        let child = if split_x {
            tree.add_buffer(tap, r.center(), trunk_cell)
        } else {
            tree.add_steiner(tap, r.center())
        };
        halve(
            tree, child, &half, r, max_fanout, trunk_cell, leaf_cell, !split_x,
        );
    }
}

/// Copies a routed leaf net under the leaf buffer, mapping the net's
/// local sink indices back to design sink indices.
fn graft(
    tree: &mut ClockTree,
    dst_parent: NodeId,
    src: &ClockTree,
    src_node: NodeId,
    design_index: &[usize],
) {
    let children: Vec<NodeId> = src.node(src_node).children().to_vec();
    for child in children {
        let (kind, pos, edge) = {
            let n = src.node(child);
            (n.kind, n.pos, n.edge_len())
        };
        let id = match kind {
            sllt_tree::NodeKind::Sink { cap_ff, sink_index } => {
                tree.add_sink_indexed(dst_parent, pos, cap_ff, design_index[sink_index])
            }
            _ => tree.add_steiner(dst_parent, pos),
        };
        tree.set_edge_len(id, edge.max(tree.node(id).edge_len()));
        graft(tree, id, src, child, design_index);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::evaluate;
    use sllt_design::DesignSpec;
    use sllt_tree::NodeKind;

    #[test]
    fn open_road_like_covers_all_sinks() {
        let design = DesignSpec::by_name("s35932").unwrap().instantiate();
        let tech = Technology::n28();
        let lib = BufferLibrary::n28();
        let tree = open_road_like(&design, &CtsConstraints::paper(), &tech, &lib);
        tree.validate().unwrap();
        assert_eq!(tree.sinks().len(), design.num_ffs());
        let r = evaluate(&tree, &tech, &lib);
        assert!(r.num_buffers > 10, "structural trunk must buffer every tap");
    }

    #[test]
    fn open_road_like_buffers_trunk_and_leaves() {
        let design = DesignSpec::by_name("s38417").unwrap().instantiate();
        let tech = Technology::n28();
        let lib = BufferLibrary::n28();
        let tree = open_road_like(&design, &CtsConstraints::paper(), &tech, &lib);
        let trunk = lib.cells().len() / 2;
        let leaf = trunk.saturating_sub(1);
        let count = |cell_id: usize| {
            tree.node_ids()
                .filter(|&id| matches!(tree.node(id).kind, NodeKind::Buffer { cell } if cell == cell_id))
                .count()
        };
        assert!(count(trunk) > 0, "trunk taps must be buffered");
        assert!(count(leaf) > 0, "leaf clusters must be buffered");
        // Structural flow over-buffers relative to the hierarchical one
        // (the paper's OpenROAD observation).
        assert!(count(trunk) + count(leaf) > design.num_ffs() / 32);
    }

    #[test]
    fn commercial_like_has_tighter_skew_than_ours() {
        let design = DesignSpec::by_name("s35932").unwrap().instantiate();
        let ours = HierarchicalCts::default();
        let com = commercial_like();
        let tech = ours.tech;
        let lib = ours.lib.clone();
        let r_ours = evaluate(&ours.run(&design).unwrap(), &tech, &lib);
        let r_com = evaluate(&com.run(&design).unwrap(), &tech, &lib);
        assert!(
            r_com.skew_ps <= r_ours.skew_ps + 1.0,
            "commercial-like skew {} vs ours {}",
            r_com.skew_ps,
            r_ours.skew_ps
        );
    }
}
