//! Final assembly: copy every built cluster under the design's clock
//! root and repeater long common wires.

use crate::flow::HierarchicalCts;
use crate::report::AssembleReport;
use crate::route::{LevelNode, NodeSource};
use sllt_buffer::{insert_repeaters, RepeaterPolicy};
use sllt_design::Design;
use sllt_tree::{ClockTree, NodeId, NodeKind};
use std::time::Instant;

/// A routed, buffered cluster awaiting assembly.
#[derive(Debug)]
pub(crate) struct BuiltCluster {
    /// Tree rooted at the cluster tap; sink indices refer to `members`.
    pub tree: ClockTree,
    /// Members, in the order the cluster net's sinks were listed.
    pub members: Vec<LevelNode>,
    /// Chosen driver cell (library index).
    pub cell: usize,
    /// Delay-padding buffers (smallest cell) chained above the driver —
    /// inserted when sizing alone cannot slow a fast cluster to the
    /// level's equalization target. Closing that gap with buffers costs
    /// a few µm² of area; closing it with detour wire at the next level
    /// costs hundreds of µm of snaking per cluster.
    pub pads: usize,
    /// Driver location (the net tap).
    pub driver_pos: Point,
}

use sllt_geom::Point;

/// Assembles the flow's output under the clock root and inserts
/// critical-wirelength repeaters on long common wires (typically the
/// source trunk).
pub(crate) fn assemble(
    cts: &HierarchicalCts,
    design: &Design,
    clusters: &[BuiltCluster],
    top: &LevelNode,
) -> (ClockTree, AssembleReport) {
    let start = Instant::now();
    // Each cluster becomes its pads, its driver and its tree's other
    // nodes: at most `pads + tree.len()` nodes apiece.
    let nodes = 1 + clusters
        .iter()
        .map(|c| c.pads + c.tree.len())
        .sum::<usize>();
    let mut tree = ClockTree::with_capacity(design.clock_root, nodes);
    let root = tree.root();
    let top_id = attach(clusters, &mut tree, root, top, None);
    let trunk_wl_um = tree.node(top_id).edge_len();
    let repeater_cell = cts.lib.cells().len() / 2;
    let repeaters = insert_repeaters(
        &mut tree,
        &cts.lib,
        &cts.tech,
        &RepeaterPolicy {
            cell: repeater_cell,
            max_segment_um: None,
        },
    );
    let repeater_input_cap_ff = cts
        .lib
        .cells()
        .get(repeater_cell)
        .map_or(0.0, |c| c.input_cap_ff * repeaters as f64);
    let report = AssembleReport {
        trunk_wl_um,
        repeaters,
        repeater_input_cap_ff,
        elapsed: start.elapsed(),
    };
    (tree, report)
}

/// Recursively copies a level node (and everything below it) into the
/// global tree under `parent`. `edge_len` overrides the edge's routed
/// length (detour from the upper net); `None` wires the plain Manhattan
/// distance.
fn attach(
    clusters: &[BuiltCluster],
    tree: &mut ClockTree,
    parent: NodeId,
    node: &LevelNode,
    edge_len: Option<f64>,
) -> NodeId {
    match node.source {
        NodeSource::DesignSink(i) => {
            let id = tree.add_sink_indexed(parent, node.pos, node.cap_ff, i);
            if let Some(e) = edge_len {
                tree.set_edge_len(id, e.max(tree.node(id).edge_len()));
            }
            id
        }
        NodeSource::Cluster(ci) => {
            let bc = &clusters[ci];
            // Pad chain (if any) sits above the driver, co-located.
            let mut upper = parent;
            let mut first = None;
            for _ in 0..bc.pads {
                let pad = tree.add_buffer(upper, bc.driver_pos, 0);
                if first.is_none() {
                    first = Some(pad);
                    if let Some(e) = edge_len {
                        tree.set_edge_len(pad, e.max(tree.node(pad).edge_len()));
                    }
                }
                upper = pad;
            }
            let buf = tree.add_buffer(upper, bc.driver_pos, bc.cell);
            if first.is_none() {
                if let Some(e) = edge_len {
                    tree.set_edge_len(buf, e.max(tree.node(buf).edge_len()));
                }
            }
            copy_subtree(clusters, tree, buf, &bc.tree, bc.tree.root(), &bc.members);
            first.unwrap_or(buf)
        }
    }
}

/// Copies the children of `src_node` (in a cluster tree) under
/// `dst_parent` in the global tree, resolving cluster-tree sinks into
/// their level nodes.
fn copy_subtree(
    clusters: &[BuiltCluster],
    tree: &mut ClockTree,
    dst_parent: NodeId,
    src: &ClockTree,
    src_node: NodeId,
    members: &[LevelNode],
) {
    for child in src.node(src_node).children() {
        let (kind, pos, edge) = {
            let cn = src.node(child);
            (cn.kind, cn.pos, cn.edge_len())
        };
        let id = match kind {
            // Internal sinks (RSMT/SALT cluster trees route through
            // pins) keep their subtree below the attached node.
            NodeKind::Sink { sink_index, .. } => {
                attach(clusters, tree, dst_parent, &members[sink_index], Some(edge))
            }
            _ => {
                let id = tree.add_steiner(dst_parent, pos);
                tree.set_edge_len(id, edge.max(tree.node(id).edge_len()));
                id
            }
        };
        copy_subtree(clusters, tree, id, src, child, members);
    }
}
