//! Elmore delay over an RC tree.
//!
//! [`RcTree`] is a minimal parent-pointer RC network: every node carries a
//! lumped pin capacitance and (except the root) a wire of some length to
//! its parent. Wires are distributed RC (the usual `r·L·(c·L/2 + C_down)`
//! Elmore term). Clock-tree structures from `sllt-tree` lower themselves
//! into this form for evaluation.

use crate::{Technology, PS_PER_OHM_FF};

/// An RC tree for Elmore evaluation.
///
/// # Example
///
/// ```
/// use sllt_timing::{RcTree, Technology};
///
/// // root --100µm--> sink(5 fF)
/// let mut rc = RcTree::new(2);
/// rc.set_parent(1, 0, 100.0);
/// rc.set_cap(1, 5.0);
/// let delays = rc.elmore(&Technology::n28(), 0.0);
/// assert_eq!(delays[0], 0.0);
/// assert!(delays[1] > 0.0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct RcTree {
    parent: Vec<Option<usize>>,
    wire_len: Vec<f64>,
    pin_cap: Vec<f64>,
}

impl RcTree {
    /// Creates a tree of `n` isolated nodes; node relationships are added
    /// with [`RcTree::set_parent`].
    pub fn new(n: usize) -> Self {
        RcTree {
            parent: vec![None; n],
            wire_len: vec![0.0; n],
            pin_cap: vec![0.0; n],
        }
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.parent.len()
    }

    /// Whether the tree has no nodes.
    pub fn is_empty(&self) -> bool {
        self.parent.is_empty()
    }

    /// Connects `node` under `parent` with `len_um` µm of wire.
    ///
    /// # Panics
    ///
    /// Panics on out-of-range indices, a self-loop, or negative length.
    pub fn set_parent(&mut self, node: usize, parent: usize, len_um: f64) {
        assert!(
            node < self.len() && parent < self.len(),
            "node out of range"
        );
        assert_ne!(node, parent, "self-loop in RC tree");
        assert!(len_um >= 0.0, "negative wire length");
        self.parent[node] = Some(parent);
        self.wire_len[node] = len_um;
    }

    /// Sets the lumped pin capacitance at `node`, in fF.
    pub fn set_cap(&mut self, node: usize, cap_ff: f64) {
        assert!(cap_ff >= 0.0, "negative capacitance");
        self.pin_cap[node] = cap_ff;
    }

    /// Root nodes (no parent). A well-formed clock net has exactly one.
    pub fn roots(&self) -> Vec<usize> {
        (0..self.len())
            .filter(|&v| self.parent[v].is_none())
            .collect()
    }

    /// Breadth-first order from the roots (parents before children):
    /// roots in index order, each node's children in index order.
    ///
    /// The child lists are one CSR array built by a counting sort over
    /// the parents, not one `Vec` per parent.
    ///
    /// # Panics
    ///
    /// Panics if the parent pointers contain a cycle.
    fn topo_order(&self) -> Vec<usize> {
        let n = self.len();
        // start[p] counts p's children, then becomes the inclusive prefix
        // sum; placing children in reverse index order walks each cursor
        // back to the start of its block, leaving the blocks ascending.
        let mut start = vec![0usize; n + 1];
        for &p in self.parent.iter().flatten() {
            start[p] += 1;
        }
        let mut total = 0;
        for s in &mut start {
            total += *s;
            *s = total;
        }
        let mut kids = vec![0usize; total];
        for v in (0..n).rev() {
            if let Some(p) = self.parent[v] {
                start[p] -= 1;
                kids[start[p]] = v;
            }
        }
        let mut order = Vec::with_capacity(n);
        order.extend((0..n).filter(|&v| self.parent[v].is_none()));
        let mut i = 0;
        while i < order.len() {
            let v = order[i];
            order.extend_from_slice(&kids[start[v]..start[v + 1]]);
            i += 1;
        }
        assert_eq!(order.len(), n, "cycle in RC tree parent pointers");
        order
    }

    /// Total downstream capacitance seen at each node: its own pin cap
    /// plus, for each child edge, the edge's wire cap and the child's
    /// downstream cap.
    pub fn downstream_cap(&self, tech: &Technology) -> Vec<f64> {
        self.downstream_cap_in(&self.topo_order(), tech)
    }

    /// [`RcTree::downstream_cap`] over an already computed `order`.
    fn downstream_cap_in(&self, order: &[usize], tech: &Technology) -> Vec<f64> {
        let mut cap = self.pin_cap.clone();
        for &v in order.iter().rev() {
            if let Some(p) = self.parent[v] {
                cap[p] += cap[v] + tech.wire_cap(self.wire_len[v]);
            }
        }
        cap
    }

    /// Elmore delay, in ps, from the root(s) to every node.
    ///
    /// `driver_res_ohm` is the output resistance of whatever drives the
    /// root (0 for an ideal source); it multiplies the entire downstream
    /// capacitance.
    pub fn elmore(&self, tech: &Technology, driver_res_ohm: f64) -> Vec<f64> {
        let order = self.topo_order();
        let cap = self.downstream_cap_in(&order, tech);
        let mut delay = vec![0.0; self.len()];
        for &v in &order {
            match self.parent[v] {
                None => {
                    delay[v] = driver_res_ohm * cap[v] * PS_PER_OHM_FF;
                }
                Some(p) => {
                    let len = self.wire_len[v];
                    let edge =
                        tech.wire_res(len) * (tech.wire_cap(len) / 2.0 + cap[v]) * PS_PER_OHM_FF;
                    delay[v] = delay[p] + edge;
                }
            }
        }
        delay
    }

    /// Slew, in ps, at every node, starting from `slew_in_ps` at the root
    /// and degrading per wire segment (Bakoglu ramp approximation).
    pub fn slew(&self, tech: &Technology, slew_in_ps: f64) -> Vec<f64> {
        let order = self.topo_order();
        let cap = self.downstream_cap_in(&order, tech);
        let mut slew = vec![slew_in_ps; self.len()];
        for &v in &order {
            if let Some(p) = self.parent[v] {
                slew[v] = tech.wire_output_slew(slew[p], self.wire_len[v], cap[v]);
            }
        }
        slew
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tech() -> Technology {
        Technology::n28()
    }

    /// A two-sink Y: root -> s (stem 50µm) -> {a (30µm, 2fF), b (70µm, 2fF)}.
    fn y_tree() -> RcTree {
        let mut rc = RcTree::new(4);
        rc.set_parent(1, 0, 50.0);
        rc.set_parent(2, 1, 30.0);
        rc.set_parent(3, 1, 70.0);
        rc.set_cap(2, 2.0);
        rc.set_cap(3, 2.0);
        rc
    }

    #[test]
    fn downstream_cap_accumulates() {
        let rc = y_tree();
        let cap = rc.downstream_cap(&tech());
        // Leaves: just their pin caps.
        assert_eq!(cap[2], 2.0);
        assert_eq!(cap[3], 2.0);
        // The stem node sees both branches' wire + pin cap.
        let expect = 2.0 + 2.0 + tech().wire_cap(30.0) + tech().wire_cap(70.0);
        assert!((cap[1] - expect).abs() < 1e-12);
        // Root adds the stem wire.
        assert!((cap[0] - (expect + tech().wire_cap(50.0))).abs() < 1e-12);
    }

    #[test]
    fn elmore_longer_branch_is_slower() {
        let rc = y_tree();
        let d = rc.elmore(&tech(), 0.0);
        assert_eq!(d[0], 0.0);
        assert!(d[3] > d[2], "70 µm branch beats 30 µm branch? {d:?}");
        assert!(d[2] > d[1]);
    }

    #[test]
    fn elmore_against_hand_computation() {
        // Single wire root -> sink, L = 100, pin 5 fF.
        let mut rc = RcTree::new(2);
        rc.set_parent(1, 0, 100.0);
        rc.set_cap(1, 5.0);
        let t = tech();
        let d = rc.elmore(&t, 0.0);
        let expect = t.wire_res(100.0) * (t.wire_cap(100.0) / 2.0 + 5.0) * PS_PER_OHM_FF;
        assert!((d[1] - expect).abs() < 1e-12);
    }

    #[test]
    fn driver_resistance_shifts_all_delays() {
        let rc = y_tree();
        let d0 = rc.elmore(&tech(), 0.0);
        let d1 = rc.elmore(&tech(), 1000.0);
        let shift = d1[0] - d0[0];
        assert!(shift > 0.0);
        for v in 0..rc.len() {
            assert!((d1[v] - d0[v] - shift).abs() < 1e-9);
        }
    }

    #[test]
    fn slew_degrades_downstream() {
        let rc = y_tree();
        let s = rc.slew(&tech(), 20.0);
        assert_eq!(s[0], 20.0);
        assert!(s[1] > s[0]);
        assert!(s[3] > s[1]);
    }

    /// The one-`Vec`-per-parent order the CSR build replaced.
    fn topo_order_by_child_vecs(rc: &RcTree) -> Vec<usize> {
        let n = rc.len();
        let mut children: Vec<Vec<usize>> = vec![Vec::new(); n];
        let mut order = Vec::with_capacity(n);
        for v in 0..n {
            match rc.parent[v] {
                Some(p) => children[p].push(v),
                None => order.push(v),
            }
        }
        let mut i = 0;
        while i < order.len() {
            let v = order[i];
            order.extend_from_slice(&children[v]);
            i += 1;
        }
        order
    }

    #[test]
    fn csr_order_matches_per_parent_child_lists() {
        // Forests with parents on either side of their children in index
        // order, several roots, and wide fan-outs.
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = |m: usize| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state % m as u64) as usize
        };
        for n in [1usize, 2, 3, 17, 64, 300] {
            for _ in 0..20 {
                // A random permutation ranks the nodes; each non-root takes
                // a parent of lower rank, so there are no cycles.
                let mut rank: Vec<usize> = (0..n).collect();
                for i in (1..n).rev() {
                    rank.swap(i, next(i + 1));
                }
                let mut rc = RcTree::new(n);
                for r in 1..n {
                    if next(5) > 0 {
                        rc.set_parent(rank[r], rank[next(r)], 1.0);
                    }
                }
                assert_eq!(rc.topo_order(), topo_order_by_child_vecs(&rc));
            }
        }
    }

    #[test]
    #[should_panic(expected = "cycle")]
    fn cycle_detection() {
        let mut rc = RcTree::new(2);
        rc.set_parent(0, 1, 1.0);
        rc.set_parent(1, 0, 1.0);
        let _ = rc.elmore(&tech(), 0.0);
    }

    #[test]
    fn multiple_roots_are_supported() {
        // Two disconnected nets evaluate independently.
        let mut rc = RcTree::new(4);
        rc.set_parent(1, 0, 10.0);
        rc.set_parent(3, 2, 10.0);
        rc.set_cap(1, 1.0);
        rc.set_cap(3, 1.0);
        assert_eq!(rc.roots(), vec![0, 2]);
        let d = rc.elmore(&tech(), 0.0);
        assert!((d[1] - d[3]).abs() < 1e-12);
    }

    #[test]
    #[cfg(feature = "proptest")]
    fn proptest_elmore_monotone_along_paths() {
        use proptest::prelude::*;
        // Random caterpillar trees: delay never decreases towards leaves.
        proptest!(|(lens in proptest::collection::vec(0.1f64..100.0, 1..20))| {
            let n = lens.len() + 1;
            let mut rc = RcTree::new(n);
            for (i, &l) in lens.iter().enumerate() {
                rc.set_parent(i + 1, i, l);
                rc.set_cap(i + 1, 1.0);
            }
            let d = rc.elmore(&tech(), 0.0);
            for i in 1..n {
                prop_assert!(d[i] >= d[i - 1]);
            }
        });
    }
}
