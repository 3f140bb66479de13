//! Abstract merge topologies.
//!
//! DME-style embeddings separate *topology* (the binary merge order over
//! sinks) from *embedding* (where the internal nodes land). [`Topology`] is
//! that merge order; `sllt-route` builds them with the paper's four
//! candidate schemes (Greedy-Dist, Greedy-Merge, Bi-Partition, Bi-Cluster)
//! and the CBS pipeline extracts them back out of intermediate trees
//! (Fig. 2, steps 2 and 4), each merge hinted with the position it had
//! there.
//!
//! A topology is one flat vector of nodes in canonical postorder — left
//! subtree, right subtree, merge — so the root is last and every merge
//! names two earlier nodes. Greedy merge orders can be arbitrarily deep
//! (left-deep chains on degenerate sink placements) over hundreds of
//! thousands of sinks; over a flat vector every walk here is a loop or an
//! explicit heap stack, and the derived `Clone`, `PartialEq` and drop glue
//! never recurse, so stack usage is O(1) in topology depth.

use crate::{ClockTree, NodeId};
use sllt_geom::Point;

/// One node of a [`Topology`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum TopoNode {
    /// A leaf: index into the caller's sink list.
    Sink(usize),
    /// A merge of two earlier nodes (indices into [`Topology::nodes`]).
    Merge {
        /// The left subtree's root.
        left: usize,
        /// The right subtree's root.
        right: usize,
        /// Where the merge point sat in the tree the order was extracted
        /// from; hinted embeddings (CBS step 5) stay close to it whenever
        /// the skew bound leaves slack.
        hint: Option<Point>,
    },
}

/// A binary merge order over a net's sinks, stored as its nodes in
/// postorder. Leaves are indices into the caller's sink list.
///
/// # Example
///
/// ```
/// use sllt_tree::Topology;
/// let t = Topology::merge(
///     Topology::sink(0),
///     Topology::merge(Topology::sink(1), Topology::sink(2)),
/// );
/// assert_eq!(t.leaves(), vec![0, 1, 2]);
/// assert_eq!(t.depth(), 2);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Topology {
    nodes: Vec<TopoNode>,
}

impl Topology {
    /// Leaf constructor.
    pub fn sink(index: usize) -> Topology {
        Topology {
            nodes: vec![TopoNode::Sink(index)],
        }
    }

    /// Merge constructor, without a hint. Extends `a`'s node vector in
    /// place, so folding sinks onto a growing left-deep chain is linear.
    pub fn merge(a: Topology, b: Topology) -> Topology {
        let mut nodes = a.nodes;
        let (left, offset) = (nodes.len() - 1, nodes.len());
        nodes.extend(b.nodes.into_iter().map(|node| match node {
            TopoNode::Merge { left, right, hint } => TopoNode::Merge {
                left: left + offset,
                right: right + offset,
                hint,
            },
            sink => sink,
        }));
        nodes.push(TopoNode::Merge {
            left,
            right: nodes.len() - 1,
            hint: None,
        });
        Topology { nodes }
    }

    /// The merge order an agglomeration recorded by creation id: sinks
    /// `0..sinks` carry ids `0..sinks`, and the `k`-th merge gets id
    /// `sinks + k` and joins the `(left, right)` ids in `merges[k]` — the
    /// agglomerations record `(older, newer)`. The last merge is the root.
    ///
    /// # Panics
    ///
    /// Panics when `sinks == 0` or `merges` is not `sinks − 1` merges of
    /// earlier ids.
    pub fn from_merges(sinks: usize, merges: &[(usize, usize)]) -> Topology {
        assert!(sinks > 0, "topology over zero sinks");
        assert_eq!(
            merges.len(),
            sinks - 1,
            "a full merge order has n - 1 merges"
        );
        let mut nodes = Vec::with_capacity(2 * sinks - 1);
        // Node indices of finished subtrees, and ids still to lay out
        // (`true` once their children are done).
        let mut done: Vec<usize> = Vec::new();
        let mut work = vec![(sinks + merges.len() - 1, false)];
        while let Some((id, children_done)) = work.pop() {
            if id < sinks {
                nodes.push(TopoNode::Sink(id));
            } else if children_done {
                let right = done.pop().expect("a merge follows its two subtrees");
                let left = done.pop().expect("a merge follows its two subtrees");
                nodes.push(TopoNode::Merge {
                    left,
                    right,
                    hint: None,
                });
            } else {
                let (left, right) = merges[id - sinks];
                assert!(left.max(right) < id, "merge {id} joins a later id");
                work.extend([(id, true), (right, false), (left, false)]);
                continue;
            }
            done.push(nodes.len() - 1);
        }
        Topology { nodes }
    }

    /// The nodes in postorder; the root is last.
    pub fn nodes(&self) -> &[TopoNode] {
        &self.nodes
    }

    /// Sink indices in left-to-right order.
    pub fn leaves(&self) -> Vec<usize> {
        self.nodes
            .iter()
            .filter_map(|node| match node {
                TopoNode::Sink(i) => Some(*i),
                TopoNode::Merge { .. } => None,
            })
            .collect()
    }

    /// Number of sinks.
    pub fn len(&self) -> usize {
        self.nodes.len().div_ceil(2)
    }

    /// Always `false`: a topology has at least one sink. Provided for API
    /// symmetry.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Height of the merge tree (a single sink has depth 0).
    pub fn depth(&self) -> usize {
        let mut height: Vec<usize> = Vec::with_capacity(self.nodes.len());
        for node in &self.nodes {
            height.push(match *node {
                TopoNode::Sink(_) => 0,
                TopoNode::Merge { left, right, .. } => 1 + height[left].max(height[right]),
            });
        }
        height.pop().expect("nonempty topology")
    }

    /// Extracts the merge order implied by a clock tree, every merge
    /// hinted at the position of the tree node it came from.
    ///
    /// The tree is interpreted structurally: sink leaves become sinks
    /// (carrying their `sink_index`), internal fan-out becomes left-deep
    /// merges when a node has more than two children, and childless
    /// Steiner/buffer leaves are dropped. Internal sinks are treated as a
    /// leaf merged with their descendants, so un-normalized trees extract
    /// sensibly too.
    ///
    /// Returns `None` when the tree contains no sinks.
    pub fn from_tree(tree: &ClockTree) -> Option<Topology> {
        struct Frame<'t> {
            id: NodeId,
            kids: crate::Children<'t>,
            /// Root of the merges accumulated so far under this node.
            acc: Option<usize>,
        }
        let mut nodes = Vec::new();
        let enter = |id: NodeId, nodes: &mut Vec<TopoNode>| {
            let acc = match tree.node(id).kind {
                crate::NodeKind::Sink { sink_index, .. } => {
                    nodes.push(TopoNode::Sink(sink_index));
                    Some(nodes.len() - 1)
                }
                _ => None,
            };
            Frame {
                id,
                kids: tree.children(id),
                acc,
            }
        };
        let mut stack = vec![enter(tree.root(), &mut nodes)];
        loop {
            let next = stack
                .last_mut()
                .expect("stack nonempty until return")
                .kids
                .next();
            if let Some(c) = next {
                let frame = enter(c, &mut nodes);
                stack.push(frame);
                continue;
            }
            let done = stack.pop().expect("checked");
            let Some(parent) = stack.last_mut() else {
                return done.acc.map(|_| Topology { nodes });
            };
            if let Some(right) = done.acc {
                parent.acc = Some(match parent.acc {
                    None => right,
                    Some(left) => {
                        nodes.push(TopoNode::Merge {
                            left,
                            right,
                            hint: Some(tree.node(parent.id).pos),
                        });
                        nodes.len() - 1
                    }
                });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn root(t: &Topology) -> TopoNode {
        *t.nodes().last().expect("nonempty")
    }

    #[test]
    fn merges_lay_out_in_postorder() {
        let t = Topology::merge(
            Topology::merge(Topology::sink(0), Topology::sink(1)),
            Topology::merge(Topology::sink(2), Topology::sink(3)),
        );
        assert_eq!(t.len(), 4);
        assert_eq!(t.depth(), 2);
        assert_eq!(t.leaves(), vec![0, 1, 2, 3]);
        assert_eq!(
            root(&t),
            TopoNode::Merge {
                left: 2,
                right: 5,
                hint: None
            }
        );
    }

    #[test]
    fn recorded_merges_match_nested_construction() {
        // Ids: sinks 0..4, then 4 = (1, 3), 5 = (0, 2), 6 = (4, 5).
        let t = Topology::from_merges(4, &[(1, 3), (0, 2), (4, 5)]);
        let expect = Topology::merge(
            Topology::merge(Topology::sink(1), Topology::sink(3)),
            Topology::merge(Topology::sink(0), Topology::sink(2)),
        );
        assert_eq!(t, expect);
        assert_eq!(Topology::from_merges(1, &[]), Topology::sink(0));
    }

    #[test]
    #[should_panic(expected = "zero sinks")]
    fn recorded_merges_reject_zero_sinks() {
        let _ = Topology::from_merges(0, &[]);
    }

    #[test]
    fn extraction_from_binary_tree() {
        let mut t = ClockTree::new(Point::ORIGIN);
        let a = t.add_steiner(t.root(), Point::new(1.0, 0.0));
        t.add_sink(a, Point::new(2.0, 1.0), 1.0); // sink_index 0
        t.add_sink(a, Point::new(2.0, -1.0), 1.0); // sink_index 1
        t.add_sink(t.root(), Point::new(-1.0, 0.0), 1.0); // sink_index 2
        let topo = Topology::from_tree(&t).unwrap();
        assert_eq!(topo.len(), 3);
        let mut leaves = topo.leaves();
        leaves.sort_unstable();
        assert_eq!(leaves, vec![0, 1, 2]);
    }

    #[test]
    fn extraction_skips_barren_steiner_branches() {
        let mut t = ClockTree::new(Point::ORIGIN);
        let a = t.add_steiner(t.root(), Point::new(1.0, 0.0));
        t.add_steiner(a, Point::new(2.0, 0.0)); // barren
        t.add_sink(t.root(), Point::new(-1.0, 0.0), 1.0);
        let topo = Topology::from_tree(&t).unwrap();
        assert_eq!(topo, Topology::sink(0));
    }

    #[test]
    fn extraction_handles_internal_sinks() {
        let mut t = ClockTree::new(Point::ORIGIN);
        let s = t.add_sink(t.root(), Point::new(1.0, 0.0), 1.0); // index 0
        t.add_sink(s, Point::new(2.0, 0.0), 1.0); // index 1
        let topo = Topology::from_tree(&t).unwrap();
        assert_eq!(topo.len(), 2);
        assert_eq!(topo.leaves(), vec![0, 1]);
    }

    #[test]
    fn extraction_of_sinkless_tree_is_none() {
        let t = ClockTree::new(Point::ORIGIN);
        assert!(Topology::from_tree(&t).is_none());
    }

    #[test]
    fn extraction_hints_merges_at_their_tree_positions() {
        let mut t = ClockTree::new(Point::ORIGIN);
        let a = t.add_steiner(t.root(), Point::new(3.0, 4.0));
        t.add_sink(a, Point::new(5.0, 4.0), 1.0);
        t.add_sink(a, Point::new(3.0, 7.0), 1.0);
        let topo = Topology::from_tree(&t).unwrap();
        assert_eq!(
            root(&topo),
            TopoNode::Merge {
                left: 0,
                right: 1,
                hint: Some(Point::new(3.0, 4.0))
            }
        );
    }

    #[test]
    fn fat_nodes_extract_left_deep() {
        let mut t = ClockTree::new(Point::ORIGIN);
        for i in 0..4 {
            t.add_sink(t.root(), Point::new(i as f64, 1.0), 1.0);
        }
        let topo = Topology::from_tree(&t).unwrap();
        assert_eq!(topo.len(), 4);
        assert_eq!(topo.depth(), 3, "left-deep merge of 4 leaves");
    }

    #[test]
    fn equality_is_structural() {
        let t = Topology::merge(
            Topology::sink(0),
            Topology::merge(Topology::sink(1), Topology::sink(2)),
        );
        assert_eq!(t, t.clone());
        // Mirror-image structure over the same leaves is not equal.
        let mirrored = Topology::merge(
            Topology::merge(Topology::sink(0), Topology::sink(1)),
            Topology::sink(2),
        );
        assert_ne!(t, mirrored);
        assert_ne!(t, Topology::sink(0));
    }

    /// A left-deep chain over `n` sinks: sink 0 at the bottom, each merge
    /// adding the next index on the right.
    fn chain(n: usize) -> Topology {
        let mut t = Topology::sink(0);
        for i in 1..n {
            t = Topology::merge(t, Topology::sink(i));
        }
        t
    }

    /// Regression: building, traversing, extracting and dropping a
    /// 200k-deep chain must not overflow the stack (the boxed
    /// representation's drop glue and recursive traversals both did).
    #[test]
    fn chain_200k_deep_builds_traverses_and_drops() {
        const N: usize = 200_000;
        let t = chain(N);
        assert_eq!(t.len(), N);
        assert_eq!(t.depth(), N - 1);
        let leaves = t.leaves();
        assert_eq!(leaves.len(), N);
        assert_eq!(leaves[0], 0);
        assert_eq!(leaves[N - 1], N - 1);
        let merges: Vec<(usize, usize)> = (1..N)
            .map(|i| (if i == 1 { 0 } else { N + i - 2 }, i))
            .collect();
        let recorded = Topology::from_merges(N, &merges);
        assert_eq!(t, recorded);
        let t2 = t.clone();
        assert_eq!(t, t2);
        drop(t);
        drop(t2);
        drop(recorded);
    }

    /// The same chain extracted from a 200k-deep Steiner chain, hinted.
    #[test]
    fn hinted_chain_200k_deep_extracts_and_drops() {
        const N: usize = 200_000;
        let mut tree = ClockTree::new(Point::ORIGIN);
        let mut tip = tree.root();
        for i in 0..N - 1 {
            let next = tree.add_steiner(tip, Point::new(i as f64, 0.0));
            tree.add_sink(tip, Point::new(i as f64, 1.0), 1.0);
            tip = next;
        }
        tree.add_sink(tip, Point::new(N as f64, 1.0), 1.0);
        let h = Topology::from_tree(&tree).unwrap();
        assert_eq!(h.len(), N);
        assert_eq!(h.depth(), N - 1);
        assert_eq!(h.leaves().len(), N);
        drop(h);
    }
}
