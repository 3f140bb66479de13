//! The arena-backed clock tree.

use crate::node::{Node, NodeId, NodeKind};
use sllt_geom::{Point, EPS};
use std::error::Error;
use std::fmt;

/// Sentinel for "no node" in the flat link columns.
const NONE: u32 = u32::MAX;

/// A rooted rectilinear Steiner tree distributing a clock from a source to
/// a set of sinks.
///
/// Nodes live in a structure-of-arrays arena: every per-node attribute is
/// its own flat column (`pos`, `kind`, `parent`, `edge_len`, …) and the
/// child lists are a first-child/next-sibling doubly-linked weave over
/// four `u32` columns instead of one heap `Vec<NodeId>` per node. A
/// million-node tree is a dozen allocations, traversals stream through
/// contiguous memory, and the structural edits the CBS pipeline performs
/// (`reparent`, `remove_leaf`, `splice_out`) are O(1) pointer splices that
/// preserve child insertion order exactly.
///
/// Structural edits mark nodes *dead* instead of reindexing, so
/// [`NodeId`]s stay stable. Call [`ClockTree::compact`] to drop dead
/// nodes when the churn is done.
///
/// Every edge stores a routed length which must be at least the Manhattan
/// distance between its endpoints; the excess is detour (snaking) wire,
/// which bounded-skew embeddings use to slow fast paths down.
///
/// # Example
///
/// ```
/// use sllt_geom::Point;
/// use sllt_tree::ClockTree;
///
/// let mut t = ClockTree::new(Point::new(0.0, 0.0));
/// let tap = t.add_steiner(t.root(), Point::new(5.0, 0.0));
/// t.add_sink(tap, Point::new(10.0, 5.0), 1.2);
/// t.add_sink(tap, Point::new(10.0, -5.0), 1.2);
/// assert_eq!(t.sinks().len(), 2);
/// assert_eq!(t.wirelength(), 5.0 + 10.0 + 10.0);
/// t.validate().unwrap();
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct ClockTree {
    pos: Vec<Point>,
    kind: Vec<NodeKind>,
    /// Parent arena index; [`NONE`] for the root.
    parent: Vec<u32>,
    /// Routed wire length to the parent, µm; at least the Manhattan
    /// distance, the excess is detour wire.
    edge_len: Vec<f64>,
    first_child: Vec<u32>,
    last_child: Vec<u32>,
    prev_sib: Vec<u32>,
    next_sib: Vec<u32>,
    /// Child count, kept in step with the sibling weave for O(1) degree.
    degree: Vec<u32>,
    alive: Vec<bool>,
    /// Live node count (root included).
    live: usize,
    /// Live sink count, so default sink indices are O(1) to hand out.
    sink_count: usize,
    root: NodeId,
}

/// Iterator over the children of one node, in insertion order.
///
/// Yields [`NodeId`]s by value. Length is known up front (the arena tracks
/// per-node degree), so [`Children::len`] and [`Children::is_empty`] are
/// O(1); [`Children::to_vec`] materializes the ids when a snapshot is
/// needed across mutations.
#[derive(Clone)]
pub struct Children<'t> {
    tree: &'t ClockTree,
    next: u32,
    remaining: u32,
}

impl Children<'_> {
    /// Number of children, O(1).
    #[inline]
    #[allow(clippy::len_without_is_empty)] // is_empty provided below
    pub fn len(&self) -> usize {
        self.remaining as usize
    }

    /// Whether there are no children, O(1).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.remaining == 0
    }

    /// Collects the child ids into a vector.
    pub fn to_vec(&self) -> Vec<NodeId> {
        self.clone().collect()
    }
}

impl Iterator for Children<'_> {
    type Item = NodeId;

    #[inline]
    fn next(&mut self) -> Option<NodeId> {
        if self.next == NONE {
            return None;
        }
        let id = self.next as usize;
        self.next = self.tree.next_sib[id];
        self.remaining -= 1;
        Some(NodeId(id))
    }

    #[inline]
    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.remaining as usize, Some(self.remaining as usize))
    }
}

impl ExactSizeIterator for Children<'_> {}
impl std::iter::FusedIterator for Children<'_> {}

/// Structural defects reported by [`ClockTree::validate`].
#[derive(Debug, Clone, PartialEq)]
pub enum TreeError {
    /// An edge is shorter than the Manhattan distance it must cover.
    EdgeTooShort {
        /// The child endpoint of the offending edge.
        node: NodeId,
        /// Stored routed length.
        len: f64,
        /// Manhattan distance between the endpoints.
        dist: f64,
    },
    /// A node is unreachable from the root (broken parent chain).
    Unreachable(NodeId),
    /// Parent/child links disagree.
    LinkMismatch(NodeId),
}

impl fmt::Display for TreeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TreeError::EdgeTooShort { node, len, dist } => write!(
                f,
                "edge into {node} has routed length {len:.4} shorter than manhattan distance {dist:.4}"
            ),
            TreeError::Unreachable(n) => write!(f, "node {n} is unreachable from the root"),
            TreeError::LinkMismatch(n) => write!(f, "parent/child links disagree at {n}"),
        }
    }
}

impl Error for TreeError {}

impl ClockTree {
    /// Creates a tree containing only the clock source at `source_pos`.
    pub fn new(source_pos: Point) -> Self {
        ClockTree {
            pos: vec![source_pos],
            kind: vec![NodeKind::Source],
            parent: vec![NONE],
            edge_len: vec![0.0],
            first_child: vec![NONE],
            last_child: vec![NONE],
            prev_sib: vec![NONE],
            next_sib: vec![NONE],
            degree: vec![0],
            alive: vec![true],
            live: 1,
            sink_count: 0,
            root: NodeId(0),
        }
    }

    /// Pre-sizes the arena columns for `nodes` total nodes. Purely an
    /// allocation hint; ids and semantics are unaffected.
    pub fn with_capacity(source_pos: Point, nodes: usize) -> Self {
        let mut t = ClockTree::new(source_pos);
        t.reserve(nodes.saturating_sub(1));
        t
    }

    /// Reserves room for `additional` more nodes across all columns.
    pub fn reserve(&mut self, additional: usize) {
        self.pos.reserve(additional);
        self.kind.reserve(additional);
        self.parent.reserve(additional);
        self.edge_len.reserve(additional);
        self.first_child.reserve(additional);
        self.last_child.reserve(additional);
        self.prev_sib.reserve(additional);
        self.next_sib.reserve(additional);
        self.degree.reserve(additional);
        self.alive.reserve(additional);
    }

    /// The root (clock source) id.
    #[inline]
    pub fn root(&self) -> NodeId {
        self.root
    }

    /// Root position.
    #[inline]
    pub fn source_pos(&self) -> Point {
        self.pos[self.root.0]
    }

    /// Immutable view of a node.
    ///
    /// # Panics
    ///
    /// Panics if the id is out of range or refers to a dead node.
    #[inline]
    pub fn node(&self, id: NodeId) -> Node<'_> {
        assert!(self.is_alive(id), "access to dead node {id}");
        Node {
            tree: self,
            id,
            pos: self.pos[id.0],
            kind: self.kind[id.0],
        }
    }

    /// Whether `id` refers to a live node.
    #[inline]
    pub fn is_alive(&self, id: NodeId) -> bool {
        id.0 < self.alive.len() && self.alive[id.0]
    }

    /// Number of live nodes, O(1).
    #[inline]
    pub fn len(&self) -> usize {
        self.live
    }

    /// Whether the tree is just the bare source.
    pub fn is_empty(&self) -> bool {
        self.len() <= 1
    }

    /// Total arena slots, live and dead — the exclusive upper bound on
    /// `NodeId::index` values this tree has ever issued. Sizes lookup
    /// tables indexed by raw arena index (as [`ClockTree::path_lengths`]
    /// is).
    #[inline]
    pub fn arena_len(&self) -> usize {
        self.alive.len()
    }

    /// Number of dead arena slots awaiting [`ClockTree::compact`], O(1).
    #[inline]
    pub fn dead_len(&self) -> usize {
        self.arena_len() - self.live
    }

    /// Dead fraction of the arena, 0.0 when fully compact.
    pub fn fragmentation(&self) -> f64 {
        self.dead_len() as f64 / self.arena_len() as f64
    }

    /// The id of arena slot `index` if that slot holds a live node.
    ///
    /// Lets an editing pass walk the slots below a length it read up
    /// front instead of collecting [`ClockTree::node_ids`]: slots die but
    /// never revive, and new nodes land at the end of the arena, so the
    /// walk visits the same nodes in the same order as a pass-start
    /// snapshot whose entries are re-checked for liveness.
    #[inline]
    pub fn live_id(&self, index: usize) -> Option<NodeId> {
        self.is_alive(NodeId(index)).then_some(NodeId(index))
    }

    /// Ids of all live nodes.
    pub fn node_ids(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.alive
            .iter()
            .enumerate()
            .filter(|(_, &a)| a)
            .map(|(i, _)| NodeId(i))
    }

    /// Ids of all live sinks, in arena order.
    pub fn sinks(&self) -> Vec<NodeId> {
        self.node_ids()
            .filter(|&id| self.kind[id.0].is_sink())
            .collect()
    }

    /// Parent id of a node, `None` for the root. The id must be live.
    #[inline]
    pub(crate) fn parent_of(&self, id: NodeId) -> Option<NodeId> {
        let p = self.parent[id.0];
        (p != NONE).then_some(NodeId(p as usize))
    }

    /// Routed length of the edge into a node (0 for the root).
    #[inline]
    pub(crate) fn edge_len_of(&self, id: NodeId) -> f64 {
        self.edge_len[id.0]
    }

    /// Children of `id`, in insertion order.
    ///
    /// # Panics
    ///
    /// Panics if the id is out of range or refers to a dead node.
    #[inline]
    pub fn children(&self, id: NodeId) -> Children<'_> {
        assert!(self.is_alive(id), "children of dead node {id}");
        Children {
            tree: self,
            next: self.first_child[id.0],
            remaining: self.degree[id.0],
        }
    }

    /// Appends `child` at the tail of `parent`'s child list.
    fn link_tail(&mut self, parent: usize, child: usize) {
        let tail = self.last_child[parent];
        if tail == NONE {
            self.first_child[parent] = child as u32;
        } else {
            self.next_sib[tail as usize] = child as u32;
        }
        self.prev_sib[child] = tail;
        self.next_sib[child] = NONE;
        self.last_child[parent] = child as u32;
        self.degree[parent] += 1;
    }

    /// Detaches `child` from its parent's child list (parent link itself is
    /// left for the caller to rewrite).
    fn unlink(&mut self, child: usize) {
        let parent = self.parent[child] as usize;
        let prev = self.prev_sib[child];
        let next = self.next_sib[child];
        if prev == NONE {
            self.first_child[parent] = next;
        } else {
            self.next_sib[prev as usize] = next;
        }
        if next == NONE {
            self.last_child[parent] = prev;
        } else {
            self.prev_sib[next as usize] = prev;
        }
        self.prev_sib[child] = NONE;
        self.next_sib[child] = NONE;
        self.degree[parent] -= 1;
    }

    pub(crate) fn attach(&mut self, parent: NodeId, pos: Point, kind: NodeKind) -> NodeId {
        assert!(self.is_alive(parent), "attach under dead node {parent}");
        assert!(
            self.alive.len() < NONE as usize,
            "arena exhausted its u32 index space"
        );
        let id = self.alive.len();
        let edge_len = self.pos[parent.0].dist(pos);
        self.pos.push(pos);
        self.kind.push(kind);
        self.parent.push(parent.0 as u32);
        self.edge_len.push(edge_len);
        self.first_child.push(NONE);
        self.last_child.push(NONE);
        self.prev_sib.push(NONE);
        self.next_sib.push(NONE);
        self.degree.push(0);
        self.alive.push(true);
        self.live += 1;
        if kind.is_sink() {
            self.sink_count += 1;
        }
        self.link_tail(parent.0, id);
        NodeId(id)
    }

    /// Overrides the routed length stored for the edge into `id` without
    /// the Manhattan check — crate-internal, for deserializers and
    /// `compact` which copy already-validated lengths verbatim.
    pub(crate) fn set_edge_len_raw(&mut self, id: NodeId, len: f64) {
        self.edge_len[id.0] = len;
    }

    /// Adds a sink with pin capacitance `cap_ff` under `parent`; the edge
    /// length defaults to the Manhattan distance. The sink index defaults
    /// to the running count of sinks.
    pub fn add_sink(&mut self, parent: NodeId, pos: Point, cap_ff: f64) -> NodeId {
        let sink_index = self.sink_count;
        self.add_sink_indexed(parent, pos, cap_ff, sink_index)
    }

    /// Adds a sink carrying an explicit external index (see
    /// [`NodeKind::Sink`]).
    pub fn add_sink_indexed(
        &mut self,
        parent: NodeId,
        pos: Point,
        cap_ff: f64,
        sink_index: usize,
    ) -> NodeId {
        self.attach(parent, pos, NodeKind::Sink { cap_ff, sink_index })
    }

    /// Adds a Steiner point under `parent`.
    pub fn add_steiner(&mut self, parent: NodeId, pos: Point) -> NodeId {
        self.attach(parent, pos, NodeKind::Steiner)
    }

    /// Adds a buffer (library cell index `cell`) under `parent`.
    pub fn add_buffer(&mut self, parent: NodeId, pos: Point, cell: usize) -> NodeId {
        self.attach(parent, pos, NodeKind::Buffer { cell })
    }

    /// Overrides the routed length of the edge into `node`.
    ///
    /// # Panics
    ///
    /// Panics when `len` is shorter than the Manhattan distance the edge
    /// must cover (beyond [`EPS`]) or when called on the root.
    pub fn set_edge_len(&mut self, node: NodeId, len: f64) {
        let p = self.node(node).parent().expect("root has no incoming edge");
        let dist = self.pos[p.0].dist(self.pos[node.0]);
        assert!(
            len >= dist - EPS,
            "edge into {node} of routed length {len} cannot cover manhattan distance {dist}"
        );
        self.edge_len[node.0] = len.max(dist);
    }

    /// Adds `extra` µm of detour (snaking) wire to the edge into `node`.
    ///
    /// # Panics
    ///
    /// Panics on negative `extra` or when called on the root.
    pub fn add_detour(&mut self, node: NodeId, extra: f64) {
        assert!(extra >= 0.0, "negative detour");
        assert!(
            self.node(node).parent().is_some(),
            "root has no incoming edge"
        );
        self.edge_len[node.0] += extra;
    }

    /// Moves `node` (with its subtree) under `new_parent`, resetting the
    /// edge length to the Manhattan distance. The node is appended at the
    /// tail of its new parent's child list.
    ///
    /// # Panics
    ///
    /// Panics if the move would create a cycle (i.e. `new_parent` lies in
    /// `node`'s subtree), if `node` is the root, or either node is dead.
    pub fn reparent(&mut self, node: NodeId, new_parent: NodeId) {
        assert!(self.is_alive(node) && self.is_alive(new_parent));
        assert_ne!(node, self.root, "cannot reparent the root");
        // Cycle check: walk up from new_parent.
        let mut cur = new_parent.0 as u32;
        loop {
            assert_ne!(
                cur as usize, node.0,
                "reparent would create a cycle at {node}"
            );
            cur = self.parent[cur as usize];
            if cur == NONE {
                break;
            }
        }
        self.unlink(node.0);
        self.link_tail(new_parent.0, node.0);
        self.parent[node.0] = new_parent.0 as u32;
        self.edge_len[node.0] = self.pos[new_parent.0].dist(self.pos[node.0]);
    }

    /// Moves a node to a new position, re-deriving the Manhattan length of
    /// the edges touching it (detours are discarded).
    pub fn move_node(&mut self, node: NodeId, pos: Point) {
        assert!(self.is_alive(node));
        self.pos[node.0] = pos;
        let p = self.parent[node.0];
        if p != NONE {
            self.edge_len[node.0] = self.pos[p as usize].dist(pos);
        }
        let mut c = self.first_child[node.0];
        while c != NONE {
            self.edge_len[c as usize] = pos.dist(self.pos[c as usize]);
            c = self.next_sib[c as usize];
        }
    }

    /// Marks a childless non-root node dead.
    ///
    /// # Panics
    ///
    /// Panics when the node still has children or is the root.
    pub(crate) fn remove_leaf(&mut self, node: NodeId) {
        assert_eq!(self.degree[node.0], 0, "remove of internal node {node}");
        assert_ne!(node, self.root);
        self.unlink(node.0);
        self.alive[node.0] = false;
        self.live -= 1;
        if self.kind[node.0].is_sink() {
            self.sink_count -= 1;
        }
    }

    /// Splices a degree-1 internal node out of the tree: its single child
    /// is reattached to its parent (at the tail of the child list) with
    /// the two edge lengths summed.
    pub(crate) fn splice_out(&mut self, node: NodeId) {
        assert_ne!(node, self.root, "cannot splice the root");
        assert_eq!(self.degree[node.0], 1, "splice of non-degree-1 node");
        let child = NodeId(self.first_child[node.0] as usize);
        let parent = NodeId(self.parent[node.0] as usize);
        // Keep the routed length (it is still wired through the old point)
        // unless that is shorter than the direct distance, which cannot
        // happen by the triangle inequality.
        let total = self.edge_len[node.0] + self.edge_len[child.0];
        self.unlink(child.0);
        self.unlink(node.0);
        self.link_tail(parent.0, child.0);
        self.parent[child.0] = parent.0 as u32;
        self.edge_len[child.0] = total;
        self.alive[node.0] = false;
        self.live -= 1;
        if self.kind[node.0].is_sink() {
            self.sink_count -= 1;
        }
    }

    /// Parents-before-children order over live nodes.
    pub fn topo_order(&self) -> Vec<NodeId> {
        let mut order = Vec::with_capacity(self.live);
        order.push(self.root);
        let mut i = 0;
        while i < order.len() {
            let v = order[i];
            let mut c = self.first_child[v.0];
            while c != NONE {
                order.push(NodeId(c as usize));
                c = self.next_sib[c as usize];
            }
            i += 1;
        }
        order
    }

    /// Total routed wirelength, µm.
    pub fn wirelength(&self) -> f64 {
        self.alive
            .iter()
            .zip(&self.edge_len)
            .filter(|(&a, _)| a)
            .map(|(_, &e)| e)
            .sum()
    }

    /// Routed path length from the root to every live node, indexed by raw
    /// arena index (dead slots hold 0).
    pub fn path_lengths(&self) -> Vec<f64> {
        let mut pl = vec![0.0; self.arena_len()];
        for id in self.topo_order() {
            let p = self.parent[id.0];
            if p != NONE {
                pl[id.0] = pl[p as usize] + self.edge_len[id.0];
            }
        }
        pl
    }

    /// Checks structural invariants; see [`TreeError`].
    ///
    /// # Errors
    ///
    /// Returns the first defect found: undersized edges, unreachable
    /// nodes, or parent/child link mismatches.
    pub fn validate(&self) -> Result<(), TreeError> {
        let order = self.topo_order();
        if order.len() != self.len() {
            let reached: std::collections::HashSet<usize> = order.iter().map(|id| id.0).collect();
            let lost = self
                .node_ids()
                .find(|id| !reached.contains(&id.0))
                .expect("some node must be unreached");
            return Err(TreeError::Unreachable(lost));
        }
        for id in self.node_ids() {
            let i = id.0;
            let p = self.parent[i];
            if p != NONE {
                // The sibling weave must agree with the parent column in
                // both directions.
                let pi = p as usize;
                let prev = self.prev_sib[i];
                let next = self.next_sib[i];
                let head_ok = if prev == NONE {
                    self.first_child[pi] == i as u32
                } else {
                    self.next_sib[prev as usize] == i as u32 && self.parent[prev as usize] == p
                };
                let tail_ok = if next == NONE {
                    self.last_child[pi] == i as u32
                } else {
                    self.prev_sib[next as usize] == i as u32 && self.parent[next as usize] == p
                };
                if !head_ok || !tail_ok || !self.alive[pi] {
                    return Err(TreeError::LinkMismatch(id));
                }
                let dist = self.pos[pi].dist(self.pos[i]);
                if self.edge_len[i] < dist - 1e-6 {
                    return Err(TreeError::EdgeTooShort {
                        node: id,
                        len: self.edge_len[i],
                        dist,
                    });
                }
            }
            // Degree column vs. actual weave length, and child back-links.
            let mut seen = 0u32;
            let mut c = self.first_child[i];
            while c != NONE {
                if self.parent[c as usize] != i as u32 || !self.alive[c as usize] {
                    return Err(TreeError::LinkMismatch(NodeId(c as usize)));
                }
                seen += 1;
                if seen > self.degree[i] {
                    break;
                }
                c = self.next_sib[c as usize];
            }
            if seen != self.degree[i] {
                return Err(TreeError::LinkMismatch(id));
            }
        }
        Ok(())
    }

    /// Rebuilds the arena without dead nodes. Node ids are *not* preserved;
    /// sink identity survives via [`NodeKind::Sink::sink_index`].
    pub fn compact(&self) -> ClockTree {
        let mut out = ClockTree::with_capacity(self.source_pos(), self.live);
        let mut map = vec![NONE; self.arena_len()];
        map[self.root.0] = out.root().0 as u32;
        for id in self.topo_order() {
            if id == self.root {
                continue;
            }
            let parent = NodeId(map[self.parent[id.0] as usize] as usize);
            let new_id = out.attach(parent, self.pos[id.0], self.kind[id.0]);
            out.edge_len[new_id.0] = self.edge_len[id.0];
            map[id.0] = new_id.0 as u32;
        }
        out
    }

    /// Changes the role of a node. Used by the leaf-sink rule and by CTS
    /// passes that promote Steiner points to buffer locations.
    ///
    /// # Panics
    ///
    /// Panics when `id` refers to a dead node.
    pub fn set_kind(&mut self, id: NodeId, kind: NodeKind) {
        assert!(self.is_alive(id), "set_kind on dead node {id}");
        match (self.kind[id.0].is_sink(), kind.is_sink()) {
            (true, false) => self.sink_count -= 1,
            (false, true) => self.sink_count += 1,
            _ => {}
        }
        self.kind[id.0] = kind;
    }
}

impl fmt::Display for ClockTree {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "ClockTree({} nodes, {} sinks, WL {:.2} µm)",
            self.len(),
            self.sinks().len(),
            self.wirelength()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> ClockTree {
        let mut t = ClockTree::new(Point::new(0.0, 0.0));
        let s = t.add_steiner(t.root(), Point::new(4.0, 0.0));
        t.add_sink(s, Point::new(6.0, 2.0), 1.0);
        t.add_sink(s, Point::new(6.0, -2.0), 1.0);
        t
    }

    #[test]
    fn construction_and_wirelength() {
        let t = sample();
        assert_eq!(t.len(), 4);
        assert_eq!(t.wirelength(), 4.0 + 4.0 + 4.0);
        t.validate().unwrap();
    }

    #[test]
    fn path_lengths_accumulate() {
        let t = sample();
        let pl = t.path_lengths();
        let sinks = t.sinks();
        assert_eq!(pl[sinks[0].index()], 8.0);
        assert_eq!(pl[sinks[1].index()], 8.0);
    }

    #[test]
    fn detour_extends_edges() {
        let mut t = sample();
        let sinks = t.sinks();
        t.add_detour(sinks[0], 3.0);
        assert_eq!(t.path_lengths()[sinks[0].index()], 11.0);
        t.validate().unwrap();
    }

    #[test]
    #[should_panic(expected = "cannot cover manhattan distance")]
    fn set_edge_len_rejects_short_edges() {
        let mut t = sample();
        let sinks = t.sinks();
        t.set_edge_len(sinks[0], 1.0);
    }

    #[test]
    fn reparent_moves_subtrees() {
        let mut t = ClockTree::new(Point::ORIGIN);
        let a = t.add_steiner(t.root(), Point::new(2.0, 0.0));
        let b = t.add_steiner(t.root(), Point::new(0.0, 2.0));
        let s = t.add_sink(a, Point::new(3.0, 0.0), 1.0);
        t.reparent(s, b);
        assert_eq!(t.node(s).parent(), Some(b));
        assert!(t.node(a).children().is_empty());
        assert_eq!(t.node(s).edge_len(), 3.0 + 2.0);
        t.validate().unwrap();
    }

    #[test]
    #[should_panic(expected = "cycle")]
    fn reparent_rejects_cycles() {
        let mut t = ClockTree::new(Point::ORIGIN);
        let a = t.add_steiner(t.root(), Point::new(1.0, 0.0));
        let b = t.add_steiner(a, Point::new(2.0, 0.0));
        t.reparent(a, b);
    }

    #[test]
    fn splice_out_preserves_routed_length() {
        let mut t = ClockTree::new(Point::ORIGIN);
        let mid = t.add_steiner(t.root(), Point::new(5.0, 0.0));
        let s = t.add_sink(mid, Point::new(5.0, 5.0), 1.0);
        t.splice_out(mid);
        assert_eq!(t.len(), 2);
        assert_eq!(t.node(s).parent(), Some(t.root()));
        // The wire still runs through (5, 0): length 10, not direct 10.
        assert_eq!(t.node(s).edge_len(), 10.0);
        t.validate().unwrap();
        assert_eq!(t.dead_len(), 1);
        assert!(t.fragmentation() > 0.0);
    }

    #[test]
    fn compact_drops_dead_nodes() {
        let mut t = sample();
        let sinks = t.sinks();
        t.remove_leaf(sinks[1]);
        assert_eq!(t.len(), 3);
        let c = t.compact();
        assert_eq!(c.len(), 3);
        assert_eq!(c.sinks().len(), 1);
        assert_eq!(c.dead_len(), 0);
        c.validate().unwrap();
        assert!((c.wirelength() - 8.0).abs() < 1e-12);
    }

    #[test]
    fn move_node_recomputes_edges() {
        let mut t = sample();
        let steiner = t.node(t.root()).children().next().unwrap();
        t.move_node(steiner, Point::new(2.0, 0.0));
        assert_eq!(t.node(steiner).edge_len(), 2.0);
        let sinks = t.sinks();
        assert_eq!(t.node(sinks[0]).edge_len(), 6.0);
        t.validate().unwrap();
    }

    #[test]
    fn validate_catches_unreachable() {
        // Build a tree, then manually break the weave to simulate
        // corruption: orphan the steiner node by emptying the root's
        // child list while its parent column still points at the root.
        let mut t = sample();
        let r = t.root().index();
        t.first_child[r] = NONE;
        t.last_child[r] = NONE;
        t.degree[r] = 0;
        assert!(matches!(t.validate(), Err(TreeError::Unreachable(_))));
    }

    #[test]
    fn validate_catches_link_mismatch() {
        // Point a child's parent column somewhere else entirely: the node
        // is still reached through the root's weave, but the back-link
        // disagrees.
        let mut t = sample();
        let sinks = t.sinks();
        t.parent[sinks[0].index()] = sinks[1].index() as u32;
        assert!(matches!(t.validate(), Err(TreeError::LinkMismatch(_))));
    }

    #[test]
    fn children_iterate_in_insertion_order() {
        let mut t = ClockTree::new(Point::ORIGIN);
        let ids: Vec<NodeId> = (0..5)
            .map(|i| t.add_sink(t.root(), Point::new(i as f64, 1.0), 1.0))
            .collect();
        let kids = t.children(t.root());
        assert_eq!(kids.len(), 5);
        assert_eq!(kids.to_vec(), ids);
        // Removing from the middle preserves the order of the rest.
        t.remove_leaf(ids[2]);
        let kids: Vec<NodeId> = t.children(t.root()).collect();
        assert_eq!(kids, vec![ids[0], ids[1], ids[3], ids[4]]);
        t.validate().unwrap();
    }

    #[test]
    fn default_sink_indices_track_live_sinks() {
        let mut t = ClockTree::new(Point::ORIGIN);
        let a = t.add_sink(t.root(), Point::new(1.0, 0.0), 1.0);
        t.add_sink(t.root(), Point::new(2.0, 0.0), 1.0);
        match t.node(a).kind {
            NodeKind::Sink { sink_index, .. } => assert_eq!(sink_index, 0),
            _ => unreachable!(),
        }
        t.remove_leaf(a);
        // One live sink left, so the next default index is 1 — the same
        // running-count rule the Vec-children arena used.
        let c = t.add_sink(t.root(), Point::new(3.0, 0.0), 1.0);
        match t.node(c).kind {
            NodeKind::Sink { sink_index, .. } => assert_eq!(sink_index, 1),
            _ => unreachable!(),
        }
    }

    #[test]
    fn display_summarizes() {
        let t = sample();
        let s = t.to_string();
        assert!(s.contains("4 nodes") && s.contains("2 sinks"));
    }
}
