//! Final assembly: stream every built cluster under the design's clock
//! root and repeater long common wires.

use crate::flow::HierarchicalCts;
use crate::report::AssembleReport;
use crate::route::NodeSource;
use sllt_buffer::{insert_repeaters, RepeaterPolicy};
use sllt_design::Design;
use sllt_geom::Point;
use sllt_timing::BufferLibrary;
use sllt_tree::codec::{read_header, visit_frame, FrameHeader};
use sllt_tree::{ClockTree, NodeId, NodeKind};
use std::time::Instant;

/// A routed, buffered cluster: the one record of it the flow keeps, from
/// the level that built it (where it is the node the level above sees)
/// to assembly.
#[derive(Debug)]
pub(crate) struct BuiltCluster {
    /// Tree rooted at the cluster tap, as one `sllt_tree::codec` frame in
    /// depth-first preorder; its sink indices refer to `members`. The
    /// frame's source is the cluster's position ([`Self::pos`]).
    pub frame: Vec<u8>,
    /// Where each member came from, in the order the cluster net's sinks
    /// were listed.
    pub members: Vec<NodeSource>,
    /// Chosen driver cell (library index).
    pub cell: usize,
    /// Delay-padding buffers (smallest cell) chained above the driver —
    /// inserted when sizing alone cannot slow a fast cluster to the
    /// level's equalization target. Closing that gap with buffers costs
    /// a few µm² of area; closing it with detour wire at the next level
    /// costs hundreds of µm of snaking per cluster.
    pub pads: usize,
    /// Delay interval (fastest, slowest) from the cluster's input down to
    /// its design sinks, ps: the tree's, its members', the driver's
    /// provisional delay and the pads'.
    pub interval_ps: (f64, f64),
}

// The arena holds one per cluster from its level to assembly, where a
// square-10⁶ run peaks.
const _: () = assert!(std::mem::size_of::<BuiltCluster>() <= 80);

impl BuiltCluster {
    fn header(&self) -> FrameHeader {
        read_header(&self.frame).expect("cluster frames are well-formed")
    }

    /// Nodes in the cluster's routed tree, its root included.
    pub(crate) fn tree_nodes(&self) -> usize {
        self.header().nodes
    }

    /// Where the driver and its pads sit: the source of the routed tree
    /// (the net tap).
    pub(crate) fn pos(&self) -> Point {
        self.header().source
    }

    /// The input cap the cluster presents to the net above it: its first
    /// pad's (the library's smallest cell), or its driver's when it has
    /// none.
    pub(crate) fn input_cap_ff(&self, lib: &BufferLibrary) -> f64 {
        lib.cells()[if self.pads > 0 { 0 } else { self.cell }].input_cap_ff
    }
}

/// Assembles the flow's output under the clock root and inserts
/// critical-wirelength repeaters on long common wires (typically the
/// source trunk).
pub(crate) fn assemble(
    cts: &HierarchicalCts,
    design: &Design,
    clusters: &[BuiltCluster],
    top: NodeSource,
) -> (ClockTree, AssembleReport) {
    let start = Instant::now();
    // Each cluster becomes its pads, its driver and its tree's other
    // nodes: at most `pads + tree nodes` nodes apiece.
    let nodes = 1 + clusters
        .iter()
        .map(|c| c.pads + c.tree_nodes())
        .sum::<usize>();
    let mut tree = ClockTree::with_capacity(design.clock_root, nodes);
    let root = tree.root();
    let top_id = attach(design, clusters, &mut tree, root, top, None);
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

/// Adds a level node, and everything below it, to the final tree under
/// `parent`, returning the node its subtree hangs from. `edge_len`
/// overrides the edge's routed length (detour from the upper net);
/// `None` wires the plain Manhattan distance.
///
/// A cluster streams its frame node by node: frames list nodes in
/// depth-first preorder, and a member sink brings its own cluster in
/// before the frame goes on, so the final tree's arena lays every
/// cluster out in depth-first preorder from the clock root.
fn attach(
    design: &Design,
    clusters: &[BuiltCluster],
    tree: &mut ClockTree,
    parent: NodeId,
    source: NodeSource,
    edge_len: Option<f64>,
) -> NodeId {
    let set_edge = |tree: &mut ClockTree, id: NodeId| {
        if let Some(e) = edge_len {
            tree.set_edge_len(id, e.max(tree.node(id).edge_len()));
        }
    };
    match source {
        NodeSource::DesignSink(i) => {
            let sink = &design.sinks[i];
            let id = tree.add_sink_indexed(parent, sink.pos, sink.cap_ff, i);
            set_edge(tree, id);
            id
        }
        NodeSource::Cluster(ci) => {
            let bc = &clusters[ci];
            let pos = bc.pos();
            // Pad chain (if any) sits above the driver, co-located.
            let mut upper = parent;
            let mut first = None;
            for _ in 0..bc.pads {
                let pad = tree.add_buffer(upper, pos, 0);
                if first.is_none() {
                    first = Some(pad);
                    set_edge(tree, pad);
                }
                upper = pad;
            }
            let buf = tree.add_buffer(upper, pos, bc.cell);
            if first.is_none() {
                set_edge(tree, buf);
            }
            visit_frame(&bc.frame, buf, |parent, n| match n.kind {
                // Internal sinks (RSMT/SALT cluster trees route through
                // pins) keep their subtree below the attached node.
                NodeKind::Sink { sink_index, .. } => attach(
                    design,
                    clusters,
                    tree,
                    parent,
                    bc.members[sink_index],
                    Some(n.edge_len),
                ),
                _ => {
                    let id = tree.add_steiner(parent, n.pos);
                    tree.set_edge_len(id, n.edge_len.max(tree.node(id).edge_len()));
                    id
                }
            })
            .expect("cluster frames are well-formed");
            first.unwrap_or(buf)
        }
    }
}
