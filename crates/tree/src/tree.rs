//! The arena-backed clock tree.

use crate::node::{Node, NodeId, NodeKind};
use sllt_geom::{Point, EPS};
use std::error::Error;
use std::fmt;

/// Sentinel for "no node" in the flat link columns.
const NONE: u32 = u32::MAX;

/// What one arena slot holds: the node's role, with its indices narrowed
/// to `u32`, or `Dead` once a structural edit removed the node.
/// [`ClockTree::node`] widens it back to a [`NodeKind`].
#[derive(Debug, Clone, Copy, PartialEq)]
enum Slot {
    Dead,
    Source,
    Steiner,
    Sink { cap_ff: f64, sink_index: u32 },
    Buffer { cell: u32 },
}

// A tag beside an f64 and a u32: role and liveness in 16 bytes.
const _: () = assert!(std::mem::size_of::<Slot>() == 16);

impl Slot {
    /// Narrows `kind` into a slot.
    ///
    /// # Panics
    ///
    /// When a sink index or a buffer cell exceeds `u32::MAX`.
    fn of(kind: NodeKind) -> Slot {
        let narrow = |i: usize, what: &str| {
            u32::try_from(i).unwrap_or_else(|_| panic!("{what} {i} exceeds u32::MAX"))
        };
        match kind {
            NodeKind::Source => Slot::Source,
            NodeKind::Steiner => Slot::Steiner,
            NodeKind::Sink { cap_ff, sink_index } => Slot::Sink {
                cap_ff,
                sink_index: narrow(sink_index, "sink index"),
            },
            NodeKind::Buffer { cell } => Slot::Buffer {
                cell: narrow(cell, "buffer cell"),
            },
        }
    }

    /// The kind a live slot holds; `None` for a dead one.
    #[inline]
    fn kind(self) -> Option<NodeKind> {
        Some(match self {
            Slot::Dead => return None,
            Slot::Source => NodeKind::Source,
            Slot::Steiner => NodeKind::Steiner,
            Slot::Sink { cap_ff, sink_index } => NodeKind::Sink {
                cap_ff,
                sink_index: sink_index as usize,
            },
            Slot::Buffer { cell } => NodeKind::Buffer {
                cell: cell as usize,
            },
        })
    }

    #[inline]
    fn is_live(self) -> bool {
        !matches!(self, Slot::Dead)
    }

    #[inline]
    fn is_sink(self) -> bool {
        matches!(self, Slot::Sink { .. })
    }
}

/// A rooted rectilinear Steiner tree distributing a clock from a source to
/// a set of sinks.
///
/// Nodes live in a structure-of-arrays arena of seven flat columns, 56
/// bytes per slot: `pos`, the edge length into the node, the parent, the
/// first and last child, the next sibling, and one 16-byte slot holding
/// the node's role (a [`NodeKind`] with `u32` indices) or marking it
/// dead. The child lists are a singly linked first-child/next-sibling
/// weave instead of one heap `Vec<NodeId>` per node, so a million-node
/// tree is a handful of allocations and traversals stream through
/// contiguous memory. Every edit preserves child insertion order.
///
/// What the one-way links cost: appending a child is O(1) (the tail is
/// kept), so building a tree of any shape is linear, but
/// [`ClockTree::reparent`] and the crate's leaf-removal and splice edits
/// walk the old parent's list from its head to find the previous
/// sibling, O(position in that list), and [`Children::len`] walks the
/// list, O(degree). Nothing bounds the degree (Prim's RMST and SALT's
/// shallowness repair can hang many children on one node), so the walk
/// lengths were measured instead: on the benchmark's three workloads an
/// unlink walks past 0.2 to 0.5 siblings on average and 15 at most.
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
    /// Role of each slot, or `Slot::Dead`.
    slot: Vec<Slot>,
    /// Parent arena index; [`NONE`] for the root.
    parent: Vec<u32>,
    /// Routed wire length to the parent, µm; at least the Manhattan
    /// distance, the excess is detour wire.
    edge_len: Vec<f64>,
    first_child: Vec<u32>,
    /// Tail of each child list, so an append is O(1).
    last_child: Vec<u32>,
    next_sib: Vec<u32>,
    /// Live node count (root included).
    live: usize,
    /// Live sink count, so default sink indices are O(1) to hand out.
    sink_count: usize,
    root: NodeId,
}

/// Iterator over the children of one node, in insertion order.
///
/// Yields [`NodeId`]s by value. Siblings are linked one way and the arena
/// keeps no per-node degree, so [`Children::len`] walks the list
/// (O(degree)) and this is not an `ExactSizeIterator`;
/// [`Children::is_empty`] is O(1). [`Children::to_vec`] materializes the
/// ids when a snapshot is needed across mutations.
#[derive(Clone)]
pub struct Children<'t> {
    tree: &'t ClockTree,
    next: u32,
}

impl Children<'_> {
    /// Number of children not yet yielded, O(degree): walks the list.
    #[allow(clippy::len_without_is_empty)] // is_empty provided below
    pub fn len(&self) -> usize {
        self.clone().count()
    }

    /// Whether there are no children left, O(1).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.next == NONE
    }

    /// Collects the child ids into a vector.
    pub fn to_vec(&self) -> Vec<NodeId> {
        let mut ids = Vec::with_capacity(self.len());
        ids.extend(self.clone());
        ids
    }
}

impl Iterator for Children<'_> {
    type Item = NodeId;

    #[inline]
    fn next(&mut self) -> Option<NodeId> {
        if self.next == NONE {
            return None;
        }
        let id = NodeId(self.next);
        self.next = self.tree.next_sib[id.index()];
        Some(id)
    }

    #[inline]
    fn size_hint(&self) -> (usize, Option<usize>) {
        (usize::from(self.next != NONE), None)
    }
}

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
            slot: vec![Slot::Source],
            parent: vec![NONE],
            edge_len: vec![0.0],
            first_child: vec![NONE],
            last_child: vec![NONE],
            next_sib: vec![NONE],
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
        self.slot.reserve(additional);
        self.parent.reserve(additional);
        self.edge_len.reserve(additional);
        self.first_child.reserve(additional);
        self.last_child.reserve(additional);
        self.next_sib.reserve(additional);
    }

    /// The root (clock source) id.
    #[inline]
    pub fn root(&self) -> NodeId {
        self.root
    }

    /// Root position.
    #[inline]
    pub fn source_pos(&self) -> Point {
        self.pos[self.root.index()]
    }

    /// Immutable view of a node.
    ///
    /// # Panics
    ///
    /// Panics if the id is out of range or refers to a dead node.
    #[inline]
    pub fn node(&self, id: NodeId) -> Node<'_> {
        let kind = self.slot.get(id.index()).and_then(|s| s.kind());
        let Some(kind) = kind else {
            panic!("access to dead node {id}");
        };
        Node {
            tree: self,
            id,
            pos: self.pos[id.index()],
            kind,
        }
    }

    /// Whether `id` refers to a live node.
    #[inline]
    pub fn is_alive(&self, id: NodeId) -> bool {
        self.slot.get(id.index()).is_some_and(|s| s.is_live())
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
        self.slot.len()
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
        // Slots are indexed below `u32::MAX`, so the cast is exact.
        let live = self.slot.get(index).is_some_and(|s| s.is_live());
        live.then_some(NodeId(index as u32))
    }

    /// Ids of all live nodes.
    pub fn node_ids(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.slot
            .iter()
            .enumerate()
            .filter(|(_, s)| s.is_live())
            .map(|(i, _)| NodeId(i as u32))
    }

    /// Ids of all live sinks, in arena order.
    pub fn sinks(&self) -> Vec<NodeId> {
        let mut sinks = Vec::with_capacity(self.sink_count);
        sinks.extend(
            self.slot
                .iter()
                .enumerate()
                .filter(|(_, s)| s.is_sink())
                .map(|(i, _)| NodeId(i as u32)),
        );
        sinks
    }

    /// Parent id of a node, `None` for the root. The id must be live.
    #[inline]
    pub(crate) fn parent_of(&self, id: NodeId) -> Option<NodeId> {
        let p = self.parent[id.index()];
        (p != NONE).then_some(NodeId(p))
    }

    /// Routed length of the edge into a node (0 for the root).
    #[inline]
    pub(crate) fn edge_len_of(&self, id: NodeId) -> f64 {
        self.edge_len[id.index()]
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
            next: self.first_child[id.index()],
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
        self.next_sib[child] = NONE;
        self.last_child[parent] = child as u32;
    }

    /// Detaches `child` from its parent's child list (parent link itself is
    /// left for the caller to rewrite). Siblings link one way, so this
    /// walks the list from its head to the previous sibling:
    /// O(position of `child` in the list).
    fn unlink(&mut self, child: usize) {
        let parent = self.parent[child] as usize;
        let next = self.next_sib[child];
        let mut prev = NONE;
        let mut cur = self.first_child[parent];
        while cur as usize != child {
            prev = cur;
            cur = self.next_sib[cur as usize];
        }
        if prev == NONE {
            self.first_child[parent] = next;
        } else {
            self.next_sib[prev as usize] = next;
        }
        if next == NONE {
            self.last_child[parent] = prev;
        }
        self.next_sib[child] = NONE;
    }

    pub(crate) fn attach(&mut self, parent: NodeId, pos: Point, kind: NodeKind) -> NodeId {
        self.push(parent, pos, Slot::of(kind))
    }

    /// Appends a node in `slot` under `parent`, the edge length set to
    /// the Manhattan distance.
    fn push(&mut self, parent: NodeId, pos: Point, slot: Slot) -> NodeId {
        assert!(self.is_alive(parent), "attach under dead node {parent}");
        assert!(
            self.slot.len() < NONE as usize,
            "arena exhausted its u32 index space"
        );
        let id = self.slot.len();
        let p = parent.index();
        let edge_len = self.pos[p].dist(pos);
        self.pos.push(pos);
        self.slot.push(slot);
        self.parent.push(p as u32);
        self.edge_len.push(edge_len);
        self.first_child.push(NONE);
        self.last_child.push(NONE);
        self.next_sib.push(NONE);
        self.live += 1;
        if slot.is_sink() {
            self.sink_count += 1;
        }
        self.link_tail(p, id);
        NodeId(id as u32)
    }

    /// Marks a node's slot dead; its links are the caller's to unweave.
    fn kill(&mut self, i: usize) {
        if self.slot[i].is_sink() {
            self.sink_count -= 1;
        }
        self.slot[i] = Slot::Dead;
        self.live -= 1;
    }

    /// Overrides the routed length stored for the edge into `id` without
    /// the Manhattan check — crate-internal, for deserializers and
    /// `compact` which copy already-validated lengths verbatim.
    pub(crate) fn set_edge_len_raw(&mut self, id: NodeId, len: f64) {
        self.edge_len[id.index()] = len;
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
    ///
    /// # Panics
    ///
    /// Panics when `sink_index` exceeds `u32::MAX`: the arena stores it
    /// in 32 bits.
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
    ///
    /// # Panics
    ///
    /// Panics when `cell` exceeds `u32::MAX`: the arena stores it in 32
    /// bits.
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
        let dist = self.pos[p.index()].dist(self.pos[node.index()]);
        assert!(
            len >= dist - EPS,
            "edge into {node} of routed length {len} cannot cover manhattan distance {dist}"
        );
        self.edge_len[node.index()] = len.max(dist);
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
        self.edge_len[node.index()] += extra;
    }

    /// Moves `node` (with its subtree) under `new_parent`, resetting the
    /// edge length to the Manhattan distance. The node is appended at the
    /// tail of its new parent's child list. Finding it in its old
    /// parent's list is O(its position there).
    ///
    /// # Panics
    ///
    /// Panics if the move would create a cycle (i.e. `new_parent` lies in
    /// `node`'s subtree), if `node` is the root, or either node is dead.
    pub fn reparent(&mut self, node: NodeId, new_parent: NodeId) {
        assert!(self.is_alive(node) && self.is_alive(new_parent));
        assert_ne!(node, self.root, "cannot reparent the root");
        let (v, p) = (node.index(), new_parent.index());
        // Cycle check: walk up from new_parent.
        let mut cur = p as u32;
        loop {
            assert_ne!(cur as usize, v, "reparent would create a cycle at {node}");
            cur = self.parent[cur as usize];
            if cur == NONE {
                break;
            }
        }
        self.unlink(v);
        self.link_tail(p, v);
        self.parent[v] = p as u32;
        self.edge_len[v] = self.pos[p].dist(self.pos[v]);
    }

    /// Moves a node to a new position, re-deriving the Manhattan length of
    /// the edges touching it (detours are discarded).
    pub fn move_node(&mut self, node: NodeId, pos: Point) {
        assert!(self.is_alive(node));
        let v = node.index();
        self.pos[v] = pos;
        let p = self.parent[v];
        if p != NONE {
            self.edge_len[v] = self.pos[p as usize].dist(pos);
        }
        let mut c = self.first_child[v];
        while c != NONE {
            self.edge_len[c as usize] = pos.dist(self.pos[c as usize]);
            c = self.next_sib[c as usize];
        }
    }

    /// Marks a childless non-root node dead. Finding it in its parent's
    /// list is O(its position there).
    ///
    /// # Panics
    ///
    /// Panics when the node still has children or is the root.
    pub(crate) fn remove_leaf(&mut self, node: NodeId) {
        let v = node.index();
        assert_eq!(self.first_child[v], NONE, "remove of internal node {node}");
        assert_ne!(node, self.root);
        self.unlink(v);
        self.kill(v);
    }

    /// Splices a degree-1 internal node out of the tree: its single child
    /// is reattached to its parent (at the tail of the child list) with
    /// the two edge lengths summed. Finding the node in its parent's list
    /// is O(its position there).
    pub(crate) fn splice_out(&mut self, node: NodeId) {
        assert_ne!(node, self.root, "cannot splice the root");
        let v = node.index();
        let child = self.first_child[v];
        assert!(
            child != NONE && child == self.last_child[v],
            "splice of non-degree-1 node"
        );
        let child = child as usize;
        let parent = self.parent[v] as usize;
        // Keep the routed length (it is still wired through the old point)
        // unless that is shorter than the direct distance, which cannot
        // happen by the triangle inequality.
        let total = self.edge_len[v] + self.edge_len[child];
        self.unlink(child);
        self.unlink(v);
        self.link_tail(parent, child);
        self.parent[child] = parent as u32;
        self.edge_len[child] = total;
        self.kill(v);
    }

    /// Parents-before-children order over live nodes.
    pub fn topo_order(&self) -> Vec<NodeId> {
        let mut order = Vec::with_capacity(self.live);
        order.push(self.root);
        let mut i = 0;
        while i < order.len() {
            let mut c = self.first_child[order[i].index()];
            while c != NONE {
                order.push(NodeId(c));
                c = self.next_sib[c as usize];
            }
            i += 1;
        }
        order
    }

    /// Total routed wirelength, µm.
    pub fn wirelength(&self) -> f64 {
        self.slot
            .iter()
            .zip(&self.edge_len)
            .filter(|(s, _)| s.is_live())
            .map(|(_, &e)| e)
            .sum()
    }

    /// Routed path length from the root to every live node, indexed by raw
    /// arena index (dead slots hold 0).
    pub fn path_lengths(&self) -> Vec<f64> {
        let mut pl = vec![0.0; self.arena_len()];
        for id in self.topo_order() {
            let i = id.index();
            let p = self.parent[i];
            if p != NONE {
                pl[i] = pl[p as usize] + self.edge_len[i];
            }
        }
        pl
    }

    /// Checks structural invariants; see [`TreeError`].
    ///
    /// # Errors
    ///
    /// Returns the first defect found: undersized edges, unreachable
    /// nodes, or parent/child link mismatches (a child list naming a
    /// node whose parent is elsewhere or dead, a dead parent, or a tail
    /// column that is not the last child).
    pub fn validate(&self) -> Result<(), TreeError> {
        let order = self.topo_order();
        if order.len() != self.len() {
            let reached: std::collections::HashSet<NodeId> = order.into_iter().collect();
            let lost = self
                .node_ids()
                .find(|id| !reached.contains(id))
                .expect("some node must be unreached");
            return Err(TreeError::Unreachable(lost));
        }
        for id in self.node_ids() {
            let i = id.index();
            let p = self.parent[i];
            if p != NONE {
                if !self.is_alive(NodeId(p)) {
                    return Err(TreeError::LinkMismatch(id));
                }
                let dist = self.pos[p as usize].dist(self.pos[i]);
                if self.edge_len[i] < dist - 1e-6 {
                    return Err(TreeError::EdgeTooShort {
                        node: id,
                        len: self.edge_len[i],
                        dist,
                    });
                }
            }
            // Every listed child links back here and is live, and the
            // tail column names the last of them.
            let mut tail = NONE;
            let mut c = self.first_child[i];
            while c != NONE {
                if self.parent[c as usize] != i as u32 || !self.is_alive(NodeId(c)) {
                    return Err(TreeError::LinkMismatch(NodeId(c)));
                }
                tail = c;
                c = self.next_sib[c as usize];
            }
            if self.last_child[i] != tail {
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
        map[self.root.index()] = out.root().0;
        for id in self.topo_order() {
            if id == self.root {
                continue;
            }
            let i = id.index();
            let parent = NodeId(map[self.parent[i] as usize]);
            let new_id = out.push(parent, self.pos[i], self.slot[i]);
            out.edge_len[new_id.index()] = self.edge_len[i];
            map[i] = new_id.0;
        }
        out
    }

    /// Changes the role of a node. Used by the leaf-sink rule and by CTS
    /// passes that promote Steiner points to buffer locations.
    ///
    /// # Panics
    ///
    /// Panics when `id` refers to a dead node, or when `kind` carries a
    /// sink index or buffer cell above `u32::MAX`.
    pub fn set_kind(&mut self, id: NodeId, kind: NodeKind) {
        assert!(self.is_alive(id), "set_kind on dead node {id}");
        let slot = Slot::of(kind);
        let i = id.index();
        match (self.slot[i].is_sink(), slot.is_sink()) {
            (true, false) => self.sink_count -= 1,
            (false, true) => self.sink_count += 1,
            _ => {}
        }
        self.slot[i] = slot;
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
        // A tail column that is not the list's last child: the next
        // append would land in the wrong place.
        let mut t = sample();
        let steiner = t.children(t.root()).next().unwrap();
        t.last_child[steiner.index()] = t.sinks()[0].0;
        assert_eq!(t.validate(), Err(TreeError::LinkMismatch(steiner)));
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

    /// The child lists as a `Vec` per node: the oracle the singly
    /// linked weave is checked against.
    struct VecModel {
        parent: Vec<Option<usize>>,
        children: Vec<Vec<usize>>,
        alive: Vec<bool>,
    }

    impl VecModel {
        fn add(&mut self, parent: usize) {
            self.children[parent].push(self.alive.len());
            self.parent.push(Some(parent));
            self.children.push(Vec::new());
            self.alive.push(true);
        }

        fn detach(&mut self, v: usize) {
            let p = self.parent[v].unwrap();
            self.children[p].retain(|&c| c != v);
        }

        fn in_subtree(&self, mut v: usize, root: usize) -> bool {
            loop {
                if v == root {
                    return true;
                }
                match self.parent[v] {
                    Some(p) => v = p,
                    None => return false,
                }
            }
        }
    }

    fn assert_matches_model(t: &ClockTree, m: &VecModel, seed: u64, step: usize) {
        assert_eq!(t.arena_len(), m.alive.len(), "seed {seed} step {step}");
        assert_eq!(
            t.len(),
            m.alive.iter().filter(|&&a| a).count(),
            "seed {seed} step {step}"
        );
        for (i, kids) in m.children.iter().enumerate() {
            let id = NodeId(i as u32);
            assert_eq!(t.is_alive(id), m.alive[i], "seed {seed} step {step} n{i}");
            if !m.alive[i] {
                continue;
            }
            let want: Vec<NodeId> = kids.iter().map(|&c| NodeId(c as u32)).collect();
            let got = t.children(id);
            assert_eq!(got.to_vec(), want, "seed {seed} step {step} n{i}");
            assert_eq!(got.len(), want.len(), "seed {seed} step {step} n{i}");
            assert_eq!(
                got.is_empty(),
                want.is_empty(),
                "seed {seed} step {step} n{i}"
            );
            // The next append lands after the tail column's node.
            let tail = kids.last().map_or(NONE, |&c| c as u32);
            assert_eq!(t.last_child[i], tail, "seed {seed} step {step} n{i}");
            assert_eq!(
                t.node(id).parent().map(NodeId::index),
                m.parent[i],
                "seed {seed} step {step} n{i}"
            );
        }
        t.validate().unwrap();
    }

    #[test]
    fn child_lists_match_a_vec_model_under_random_edits() {
        use sllt_rng::prelude::*;
        for seed in 0..40 {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut t = ClockTree::new(Point::ORIGIN);
            let mut m = VecModel {
                parent: vec![None],
                children: vec![Vec::new()],
                alive: vec![true],
            };
            for step in 0..300 {
                let live: Vec<usize> = (0..m.alive.len()).filter(|&i| m.alive[i]).collect();
                // A few hubs collect most children, so edits hit the head,
                // the middle and the tail of wide lists.
                let pick = |rng: &mut StdRng| {
                    if rng.random_bool(0.5) {
                        live[rng.random_range(0..live.len().min(4))]
                    } else {
                        live[rng.random_range(0..live.len())]
                    }
                };
                let v = pick(&mut rng);
                let pos = Point::new(
                    rng.random_range(0..20) as f64,
                    rng.random_range(0..20) as f64,
                );
                let parent = NodeId(v as u32);
                match rng.random_range(0..6) {
                    0 => {
                        t.add_steiner(parent, pos);
                        m.add(v);
                    }
                    1 => {
                        t.add_sink(parent, pos, 1.0);
                        m.add(v);
                    }
                    2 => {
                        t.add_buffer(parent, pos, 1);
                        m.add(v);
                    }
                    3 => {
                        let p = pick(&mut rng);
                        if v != 0 && !m.in_subtree(p, v) {
                            t.reparent(NodeId(v as u32), NodeId(p as u32));
                            m.detach(v);
                            m.children[p].push(v);
                            m.parent[v] = Some(p);
                        }
                    }
                    4 => {
                        if v != 0 && m.children[v].is_empty() {
                            t.remove_leaf(NodeId(v as u32));
                            m.detach(v);
                            m.alive[v] = false;
                        }
                    }
                    _ => {
                        if v != 0 && m.children[v].len() == 1 {
                            t.splice_out(NodeId(v as u32));
                            let c = m.children[v][0];
                            let p = m.parent[v].unwrap();
                            m.detach(v);
                            m.children[v].clear();
                            m.children[p].push(c);
                            m.parent[c] = Some(p);
                            m.alive[v] = false;
                        }
                    }
                }
                assert_matches_model(&t, &m, seed, step);
            }
        }
    }

    #[test]
    fn slots_are_sixteen_bytes_and_indices_narrow_exactly() {
        assert_eq!(std::mem::size_of::<Slot>(), 16);
        let mut t = ClockTree::new(Point::ORIGIN);
        let max = u32::MAX as usize;
        let k = t.add_sink_indexed(t.root(), Point::new(1.0, 0.0), 0.5, max);
        let b = t.add_buffer(t.root(), Point::new(2.0, 0.0), max);
        assert_eq!(
            t.node(k).kind,
            NodeKind::Sink {
                cap_ff: 0.5,
                sink_index: max
            }
        );
        assert_eq!(t.node(b).kind, NodeKind::Buffer { cell: max });
    }

    #[test]
    #[should_panic(expected = "sink index 4294967296 exceeds u32::MAX")]
    fn sink_indices_past_u32_panic() {
        let mut t = ClockTree::new(Point::ORIGIN);
        t.add_sink_indexed(t.root(), Point::new(1.0, 0.0), 0.5, u32::MAX as usize + 1);
    }

    #[test]
    fn display_summarizes() {
        let t = sample();
        let s = t.to_string();
        assert!(s.contains("4 nodes") && s.contains("2 sinks"));
    }
}
