//! The buffered timing walk: one topo-order pass that propagates delay
//! and slew from the source through every wire and buffer.
//!
//! Wires contribute distributed-RC Elmore delay and degrade slew by the
//! Bakoglu ramp; a buffer contributes the linear delay of paper Eq. (6)
//! at its propagated input slew and drives its stage load with a fresh
//! output slew. Buffers shield their subtree: the wire into a buffer sees
//! only the buffer's input pin. Evaluation, the OCV views and the slew
//! scan all read this one walk.

use crate::repeater::downstream_caps_in;
use sllt_timing::{BufferCell, BufferLibrary, Technology};
use sllt_tree::{ClockTree, NodeId, NodeKind};

/// The delay term a [`propagate`] scale applies to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stage {
    /// The wire from a node's parent into the node.
    Wire,
    /// The buffer at a node.
    Buffer,
}

/// Per-node timing of a buffered tree.
#[derive(Debug, Clone)]
pub struct Timing {
    /// Live nodes reachable from the root, parents before children
    /// ([`ClockTree::topo_order`]).
    pub order: Vec<NodeId>,
    /// Source-to-node delay, ps, indexed by arena slot; at a buffer it
    /// includes the buffer's own delay.
    pub delay: Vec<f64>,
    /// Slew at each node, ps, indexed by arena slot; at a buffer it is
    /// the buffer's output slew.
    pub slew: Vec<f64>,
}

/// Propagates delay and slew from an ideal source with the technology's
/// nominal slew down the whole tree.
///
/// `scale` multiplies each delay term (never the slews). It is called
/// once per wire and once per buffer, wire before buffer at each node,
/// in walk order, so a caller drawing random multipliers sees a fixed
/// sequence. Nominal timing passes `|_| 1.0`, which leaves every delay
/// exactly as computed.
///
/// # Panics
///
/// Panics when a buffer references a cell outside the library.
pub fn propagate(
    tree: &ClockTree,
    tech: &Technology,
    lib: &BufferLibrary,
    mut scale: impl FnMut(Stage) -> f64,
) -> Timing {
    let order = tree.topo_order();
    let caps = downstream_caps_in(tree, &order, tech, Some(lib));
    let n_slots = tree.arena_len();
    let mut delay = vec![0.0f64; n_slots];
    let mut slew = vec![tech.source_slew_ps; n_slots];
    for &v in &order {
        let node = tree.node(v);
        let i = v.index();
        let buffer = match node.kind {
            NodeKind::Buffer { cell } => Some(cell_at(lib, cell)),
            _ => None,
        };
        if let Some(p) = node.parent() {
            let len = node.edge_len();
            let load = buffer.map_or(caps[i], |b| b.input_cap_ff);
            delay[i] = delay[p.index()] + scale(Stage::Wire) * tech.wire_delay(len, load);
            slew[i] = tech.wire_output_slew(slew[p.index()], len, load);
        }
        if let Some(b) = buffer {
            delay[i] += scale(Stage::Buffer) * b.delay(slew[i], caps[i]);
            slew[i] = b.output_slew(slew[i], caps[i]);
        }
    }
    Timing { order, delay, slew }
}

/// Worst slew anywhere in the tree, ps.
///
/// # Panics
///
/// Panics when a buffer references a cell outside the library.
pub fn max_slew(tree: &ClockTree, lib: &BufferLibrary, tech: &Technology) -> f64 {
    let t = propagate(tree, tech, lib, |_| 1.0);
    t.order
        .iter()
        .fold(tech.source_slew_ps, |worst, v| worst.max(t.slew[v.index()]))
}

/// The library cell a buffer node names.
pub(crate) fn cell_at(lib: &BufferLibrary, cell: usize) -> &BufferCell {
    lib.cells()
        .get(cell)
        .unwrap_or_else(|| panic!("buffer cell index {cell} outside the library"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use sllt_geom::Point;

    fn fixtures() -> (BufferLibrary, Technology) {
        (BufferLibrary::n28(), Technology::n28())
    }

    #[test]
    fn scale_sees_wire_then_buffer_in_walk_order() {
        let (lib, tech) = fixtures();
        let mut t = ClockTree::new(Point::ORIGIN);
        let b = t.add_buffer(t.root(), Point::new(40.0, 0.0), 1);
        t.add_sink(b, Point::new(80.0, 0.0), 2.0);
        t.add_sink(t.root(), Point::new(0.0, 30.0), 2.0);
        let mut seen = Vec::new();
        propagate(&t, &tech, &lib, |s| {
            seen.push(s);
            1.0
        });
        // Walk order: root (no wire), buffer, direct sink, buffered sink.
        assert_eq!(seen, [Stage::Wire, Stage::Buffer, Stage::Wire, Stage::Wire]);
    }

    #[test]
    #[should_panic(expected = "buffer cell index 99 outside the library")]
    fn unknown_cells_are_named() {
        let (lib, tech) = fixtures();
        let mut t = ClockTree::new(Point::ORIGIN);
        let b = t.add_buffer(t.root(), Point::new(10.0, 0.0), 99);
        t.add_sink(b, Point::new(20.0, 0.0), 1.0);
        let _ = propagate(&t, &tech, &lib, |_| 1.0);
    }
}
