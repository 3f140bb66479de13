//! Clock tree nodes.

use crate::tree::{Children, ClockTree};
use sllt_geom::Point;
use std::fmt;

/// Index of a node inside a [`crate::ClockTree`] arena.
///
/// Ids are only meaningful relative to the tree that issued them; they are
/// stable for the lifetime of the tree (structural edits mark nodes dead
/// rather than reindexing). An id is four bytes: an arena holds fewer
/// than `u32::MAX` slots.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(pub(crate) u32);

impl NodeId {
    /// The raw arena index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// What a clock tree node represents.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum NodeKind {
    /// The clock source (tree root).
    Source,
    /// A load pin (flip-flop clock pin or a lower-level buffer input).
    /// Carries the pin capacitance in fF and the index of the sink in the
    /// original net's sink list.
    Sink {
        /// Pin capacitance, fF.
        cap_ff: f64,
        /// Position in the net's sink list; lets algorithms that reorder
        /// or rebuild trees keep referring to the caller's sinks.
        sink_index: usize,
    },
    /// A Steiner (branch) point with no electrical load of its own.
    Steiner,
    /// An inserted clock buffer; `cell` indexes the buffer library.
    Buffer {
        /// Index into the `sllt_timing::BufferLibrary` cell list.
        cell: usize,
    },
}

impl NodeKind {
    /// Whether this node is a load pin.
    #[inline]
    pub fn is_sink(&self) -> bool {
        matches!(self, NodeKind::Sink { .. })
    }

    /// Whether this node is a Steiner point.
    #[inline]
    pub fn is_steiner(&self) -> bool {
        matches!(self, NodeKind::Steiner)
    }
}

/// A borrowed view over one live node of a [`ClockTree`].
///
/// The tree stores nodes column-wise (structure of arrays); this view
/// copies the two hot scalar columns (`pos`, `kind`) into public fields —
/// so `tree.node(id).pos` reads exactly like it did when nodes were stored
/// as structs — and answers structural queries (`parent`, `children`,
/// `edge_len`) by looking back into the arena.
#[derive(Clone, Copy)]
pub struct Node<'t> {
    pub(crate) tree: &'t ClockTree,
    pub(crate) id: NodeId,
    /// Placement-plane location, µm.
    pub pos: Point,
    /// Node role.
    pub kind: NodeKind,
}

impl<'t> Node<'t> {
    /// The id this view was taken at.
    #[inline]
    pub fn id(&self) -> NodeId {
        self.id
    }

    /// Parent id, `None` for the root.
    #[inline]
    pub fn parent(&self) -> Option<NodeId> {
        self.tree.parent_of(self.id)
    }

    /// Child ids, in insertion order.
    #[inline]
    pub fn children(&self) -> Children<'t> {
        self.tree.children(self.id)
    }

    /// Routed wire length to the parent, µm (0 for the root).
    #[inline]
    pub fn edge_len(&self) -> f64 {
        self.tree.edge_len_of(self.id)
    }

    /// Pin capacitance for sinks, 0 otherwise.
    #[inline]
    pub fn cap_ff(&self) -> f64 {
        match self.kind {
            NodeKind::Sink { cap_ff, .. } => cap_ff,
            _ => 0.0,
        }
    }
}

impl fmt::Debug for Node<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Node")
            .field("id", &self.id)
            .field("pos", &self.pos)
            .field("kind", &self.kind)
            .field("parent", &self.parent())
            .field("edge_len", &self.edge_len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kind_predicates() {
        assert!(NodeKind::Sink {
            cap_ff: 1.0,
            sink_index: 0
        }
        .is_sink());
        assert!(NodeKind::Steiner.is_steiner());
        assert!(!NodeKind::Source.is_sink());
    }

    #[test]
    fn node_id_displays_compactly() {
        assert_eq!(NodeId(7).to_string(), "n7");
        assert_eq!(NodeId(7).index(), 7);
    }

    #[test]
    fn view_exposes_structure() {
        let mut t = ClockTree::new(Point::ORIGIN);
        let s = t.add_steiner(t.root(), Point::new(3.0, 0.0));
        let k = t.add_sink(s, Point::new(3.0, 4.0), 1.5);
        let view = t.node(k);
        assert_eq!(view.id(), k);
        assert_eq!(view.parent(), Some(s));
        assert_eq!(view.edge_len(), 4.0);
        assert_eq!(view.cap_ff(), 1.5);
        assert!(view.children().is_empty());
        let dbg = format!("{view:?}");
        assert!(dbg.contains("pos") && dbg.contains("edge_len"));
    }
}
