//! Minimum-cost maximum-flow.
//!
//! Successive shortest augmenting paths with Johnson potentials (Dijkstra
//! on reduced costs). Costs are non-negative `f64`s — all the assignment
//! problems in this workspace (sink→cluster distances) satisfy that.
//! Potentials keep reduced costs non-negative in exact arithmetic;
//! floating-point residue is clamped to zero inside the sweep so the
//! invariant (and termination) survives large coordinates.
//!
//! Each augmentation's Dijkstra stops the moment the sink settles and
//! updates potentials with the standard partial rule
//! (`π[v] += min(dist[v], dist[t])`), so early augmentations — whose
//! shortest path is just `source → point → centre → sink` — touch a
//! handful of nodes instead of the whole graph. Scratch arrays are
//! reset through a touched-node list, never re-allocated. Every solve
//! starts from zero flow. The search reads its network only through
//! the `Residual` trait, so the balanced K-means capacity repair
//! runs it on its overflow-repair network's own structure, without
//! building the network (see `DESIGN.md`, *Partition fast path*).

use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// A directed flow network with unit-precision capacities and `f64`
/// costs.
///
/// # Example
///
/// ```
/// use sllt_partition::MinCostFlow;
///
/// // Two units from 0 to 3, parallel routes of cost 1 and 2.
/// let mut g = MinCostFlow::new(4);
/// g.add_edge(0, 1, 1, 1.0);
/// g.add_edge(1, 3, 1, 0.0);
/// g.add_edge(0, 2, 1, 2.0);
/// g.add_edge(2, 3, 1, 0.0);
/// let (flow, cost) = g.solve(0, 3);
/// assert_eq!(flow, 2);
/// assert!((cost - 3.0).abs() < 1e-9);
/// ```
#[derive(Debug, Clone)]
pub struct MinCostFlow {
    // Edge arrays: edges stored in pairs (forward at 2k, backward at 2k+1).
    to: Vec<usize>,
    cap: Vec<i64>,
    cost: Vec<f64>,
    head: Vec<Vec<usize>>, // adjacency: node -> edge indices
}

#[derive(Debug, Clone, PartialEq)]
struct HeapItem(f64, usize);

impl Eq for HeapItem {}
impl Ord for HeapItem {
    fn cmp(&self, other: &Self) -> Ordering {
        // Min-heap on cost.
        other.0.total_cmp(&self.0)
    }
}
impl PartialOrd for HeapItem {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl MinCostFlow {
    /// Creates an empty network with `n` nodes.
    pub fn new(n: usize) -> Self {
        MinCostFlow {
            to: Vec::new(),
            cap: Vec::new(),
            cost: Vec::new(),
            head: vec![Vec::new(); n],
        }
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.head.len()
    }

    /// Whether the network has no nodes.
    pub fn is_empty(&self) -> bool {
        self.head.is_empty()
    }

    /// Adds a directed edge and returns its id (usable with
    /// [`MinCostFlow::flow_on`]).
    ///
    /// # Panics
    ///
    /// Panics on out-of-range endpoints or negative cost/capacity.
    pub fn add_edge(&mut self, from: usize, to: usize, cap: i64, cost: f64) -> usize {
        assert!(
            from < self.len() && to < self.len(),
            "edge endpoint out of range"
        );
        assert!(cap >= 0, "negative capacity");
        assert!(cost >= 0.0, "negative cost not supported");
        let id = self.to.len();
        self.to.push(to);
        self.cap.push(cap);
        self.cost.push(cost);
        self.head[from].push(id);
        self.to.push(from);
        self.cap.push(0);
        self.cost.push(-cost);
        self.head[to].push(id + 1);
        id
    }

    /// Flow currently on edge `id` (the residual on its reverse edge).
    pub fn flow_on(&self, id: usize) -> i64 {
        self.cap[id ^ 1]
    }

    /// Sends as much flow as possible from `s` to `t` at minimum total
    /// cost. Returns `(flow, cost)`. The network retains the residual
    /// state, so per-edge flows can be read back with
    /// [`MinCostFlow::flow_on`].
    ///
    /// Successive shortest augmenting paths from zero flow and zero
    /// potentials. Scratch is reset through a touched-node list so an
    /// augmentation that settles 5 nodes pays for 5, not n, and each
    /// Dijkstra stops the moment the sink settles — the augmenting path
    /// is final at that point and the rest of the heap is nodes the
    /// path will never visit.
    ///
    /// # Panics
    ///
    /// Panics when `s == t` or either is out of range.
    pub fn solve(&mut self, s: usize, t: usize) -> (i64, f64) {
        assert!(s < self.len() && t < self.len() && s != t, "bad terminals");
        let nodes = self.len();
        let mut net = Sending {
            g: self,
            flow: 0,
            cost: 0.0,
        };
        successive_shortest_paths(&mut net, nodes, s, t);
        (net.flow, net.cost)
    }
}

/// A residual network as [`successive_shortest_paths`] reads it.
pub(crate) trait Residual {
    /// Offers `search` each arc `v → u` with residual capacity left, in
    /// adjacency order, as [`Search::relax`]`(u, cost, id)` with its
    /// stored cost. The search keeps `id` as `prev[u]` for
    /// [`Residual::augment`]. It calls this once for each node as that
    /// node settles, the source first, and never for the sink.
    fn arcs(&mut self, v: usize, search: &mut Search);

    /// Pushes flow along the shortest path from `s` to `t`, whose arc
    /// into each node `u` on it has the id `prev[u]`.
    fn augment(&mut self, prev: &[usize], s: usize, t: usize);
}

/// One successive-shortest-paths search's Dijkstra state.
pub(crate) struct Search {
    potential: Vec<f64>,
    dist: Vec<f64>,
    prev: Vec<usize>,
    settled: Vec<bool>,
    touched: Vec<usize>,
    heap: BinaryHeap<HeapItem>,
    /// The settling node's distance and potential.
    d: f64,
    pv: f64,
}

impl Search {
    /// Relaxes the arc from the settling node to `u`, whose stored cost
    /// is `cost` and whose id is `id`.
    #[inline]
    pub(crate) fn relax(&mut self, u: usize, cost: f64, id: usize) {
        if self.settled[u] {
            return;
        }
        // Reduced cost. Exact arithmetic keeps it ≥ 0, but floating
        // point can round it a hair negative once potentials carry
        // accumulated sums of large coordinates; a negative edge lets
        // Dijkstra chase a residual cycle of rounding noise forever (the
        // heap grows without bound — a real hang at die spans past a few
        // thousand µm). Negative values are pure noise, so clamp to
        // zero: with non-negative weights every node finalizes at its
        // first valid pop and the sweep terminates.
        let rc = (cost + self.pv - self.potential[u]).max(0.0);
        let nd = self.d + rc;
        if nd < self.dist[u] {
            if self.dist[u].is_infinite() {
                self.touched.push(u);
            }
            self.dist[u] = nd;
            self.prev[u] = id;
            self.heap.push(HeapItem(nd, u));
        }
    }
}

/// [`MinCostFlow::solve`]'s search from `s` to `t` on the `nodes` nodes
/// of any [`Residual`] network `g`. Equal distances leave the heap in an
/// order fixed by its push and pop history, so two networks that
/// enumerate the same arcs with the same costs in the same order
/// augment the same paths.
pub(crate) fn successive_shortest_paths<G: Residual>(g: &mut G, nodes: usize, s: usize, t: usize) {
    let mut search = Search {
        potential: vec![0.0; nodes],
        dist: vec![f64::INFINITY; nodes],
        prev: vec![usize::MAX; nodes],
        settled: vec![false; nodes],
        touched: Vec::with_capacity(64),
        heap: BinaryHeap::with_capacity(64),
        d: 0.0,
        pv: 0.0,
    };
    loop {
        for &v in &search.touched {
            search.dist[v] = f64::INFINITY;
            search.prev[v] = usize::MAX;
            search.settled[v] = false;
        }
        search.touched.clear();
        search.heap.clear();
        search.dist[s] = 0.0;
        search.touched.push(s);
        search.heap.push(HeapItem(0.0, s));
        let mut dt = f64::INFINITY;
        while let Some(HeapItem(d, v)) = search.heap.pop() {
            if search.settled[v] || d > search.dist[v] {
                continue;
            }
            search.settled[v] = true;
            if v == t {
                dt = d;
                break;
            }
            search.d = d;
            search.pv = search.potential[v];
            g.arcs(v, &mut search);
        }
        if !dt.is_finite() {
            break;
        }
        // Partial Johnson update for the early exit: settled nodes
        // advance by their exact distance, everything else (labeled or
        // not) by the sink distance — the standard
        // `π[v] += min(dist[v], dist[t])` rule, which keeps every
        // residual reduced cost non-negative.
        for (v, p) in search.potential.iter_mut().enumerate() {
            *p += if search.settled[v] {
                search.dist[v]
            } else {
                dt
            };
        }
        g.augment(&search.prev, s, t);
        if sllt_obs::enabled() {
            sllt_obs::count("partition.mcf.augmentations", 1);
        }
    }
    if sllt_obs::enabled() {
        sllt_obs::count("partition.mcf.solves", 1);
    }
}

/// A [`MinCostFlow`]'s edge arrays, with the flow and cost sent so far.
/// An arc's id is its edge index.
struct Sending<'a> {
    g: &'a mut MinCostFlow,
    flow: i64,
    cost: f64,
}

impl Residual for Sending<'_> {
    fn arcs(&mut self, v: usize, search: &mut Search) {
        let g = &*self.g;
        for &e in &g.head[v] {
            if g.cap[e] > 0 {
                search.relax(g.to[e], g.cost[e], e);
            }
        }
    }

    fn augment(&mut self, prev: &[usize], s: usize, t: usize) {
        let g = &mut *self.g;
        let mut bottleneck = i64::MAX;
        let mut v = t;
        while v != s {
            let e = prev[v];
            bottleneck = bottleneck.min(g.cap[e]);
            v = g.to[e ^ 1];
        }
        let mut v = t;
        while v != s {
            let e = prev[v];
            g.cap[e] -= bottleneck;
            g.cap[e ^ 1] += bottleneck;
            self.cost += g.cost[e] * bottleneck as f64;
            v = g.to[e ^ 1];
        }
        self.flow += bottleneck;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Regression: an assignment network whose point coordinates sit
    /// far from the origin (a partition cell deep inside a large die).
    /// Here the Johnson potentials are sums of ~10⁴-µm distances whose
    /// rounding residue used to push reduced costs a hair negative and
    /// send Dijkstra around a residual cycle forever, growing the heap
    /// without bound. Completing at all (with a saturating flow) is the
    /// assertion.
    #[test]
    fn large_coordinates_terminate() {
        use sllt_geom::Point;
        let (cols, pitch, off) = (17usize, 15.0, 7905.0);
        let points: Vec<Point> = (0..293)
            .map(|i| {
                Point::new(
                    off + (i % cols) as f64 * pitch,
                    off + (i / cols) as f64 * pitch,
                )
            })
            .collect();
        let centers: Vec<Point> = (0..14)
            .map(|c| Point::new(off + (c % 4) as f64 * 60.0, off + (c / 4) as f64 * 60.0))
            .collect();
        let (n, k) = (points.len(), centers.len());
        let mut g = MinCostFlow::new(2 + n + k);
        let sink = 1 + n + k;
        for (i, p) in points.iter().enumerate() {
            g.add_edge(0, 1 + i, 1, 0.0);
            for (c, ctr) in centers.iter().enumerate() {
                g.add_edge(1 + i, 1 + n + c, 1, p.dist(*ctr));
            }
        }
        for c in 0..k {
            g.add_edge(1 + n + c, sink, 32, 0.0);
        }
        let (flow, cost) = g.solve(0, sink);
        assert_eq!(flow as usize, n);
        assert!(cost.is_finite() && cost >= 0.0);
    }

    #[test]
    fn single_path() {
        let mut g = MinCostFlow::new(3);
        let e0 = g.add_edge(0, 1, 5, 2.0);
        let e1 = g.add_edge(1, 2, 3, 1.0);
        let (f, c) = g.solve(0, 2);
        assert_eq!(f, 3);
        assert!((c - 9.0).abs() < 1e-9);
        assert_eq!(g.flow_on(e0), 3);
        assert_eq!(g.flow_on(e1), 3);
    }

    #[test]
    fn prefers_cheap_route() {
        let mut g = MinCostFlow::new(4);
        let cheap = g.add_edge(0, 1, 1, 1.0);
        g.add_edge(1, 3, 1, 1.0);
        let dear = g.add_edge(0, 2, 1, 5.0);
        g.add_edge(2, 3, 1, 5.0);
        let (f, c) = g.solve(0, 3);
        assert_eq!(f, 2);
        assert!((c - 12.0).abs() < 1e-9);
        assert_eq!(g.flow_on(cheap), 1);
        assert_eq!(g.flow_on(dear), 1);
    }

    #[test]
    fn respects_capacity() {
        let mut g = MinCostFlow::new(2);
        g.add_edge(0, 1, 7, 0.5);
        let (f, c) = g.solve(0, 1);
        assert_eq!(f, 7);
        assert!((c - 3.5).abs() < 1e-9);
    }

    #[test]
    fn disconnected_graph_moves_nothing() {
        let mut g = MinCostFlow::new(4);
        g.add_edge(0, 1, 1, 1.0);
        g.add_edge(2, 3, 1, 1.0);
        let (f, c) = g.solve(0, 3);
        assert_eq!(f, 0);
        assert_eq!(c, 0.0);
    }

    #[test]
    fn assignment_problem_is_optimal() {
        // 3 workers × 3 jobs, costs form a matrix with a unique optimum.
        let cost = [[4.0, 1.0, 3.0], [2.0, 0.0, 5.0], [3.0, 2.0, 2.0]];
        // Node ids: 0 = source, 1..=3 workers, 4..=6 jobs, 7 = sink.
        let mut g = MinCostFlow::new(8);
        for (w, row) in cost.iter().enumerate() {
            g.add_edge(0, 1 + w, 1, 0.0);
            for (j, &c) in row.iter().enumerate() {
                g.add_edge(1 + w, 4 + j, 1, c);
            }
        }
        for j in 0..3 {
            g.add_edge(4 + j, 7, 1, 0.0);
        }
        let (f, c) = g.solve(0, 7);
        assert_eq!(f, 3);
        // Optimal assignment: w0→j1 (1), w1→j0 (2), w2→j2 (2) = 5.
        assert!((c - 5.0).abs() < 1e-9, "got {c}");
    }

    #[test]
    #[should_panic(expected = "negative cost")]
    fn negative_cost_rejected() {
        let mut g = MinCostFlow::new(2);
        g.add_edge(0, 1, 1, -1.0);
    }

    #[test]
    #[cfg(feature = "proptest")]
    fn proptest_flow_conservation() {
        use proptest::prelude::*;
        proptest!(|(seed in 0u64..200)| {
            // Random small bipartite assignment instances: flow equals
            // min(supply, demand) and per-edge flows are within capacity.
            use sllt_rng::prelude::*;
            let mut rng = StdRng::seed_from_u64(seed);
            let (nw, nj) = (rng.random_range(1..6), rng.random_range(1..6));
            let mut g = MinCostFlow::new(2 + nw + nj);
            let t = 1 + nw + nj;
            let mut edge_ids = Vec::new();
            for w in 0..nw {
                g.add_edge(0, 1 + w, 1, 0.0);
                for j in 0..nj {
                    edge_ids.push(g.add_edge(1 + w, 1 + nw + j, 1, rng.random_range(0.0..10.0)));
                }
            }
            for j in 0..nj {
                g.add_edge(1 + nw + j, t, 1, 0.0);
            }
            let (f, c) = g.solve(0, t);
            prop_assert_eq!(f, nw.min(nj) as i64);
            prop_assert!(c >= 0.0);
            for &e in &edge_ids {
                let fl = g.flow_on(e);
                prop_assert!((0..=1).contains(&fl));
            }
        });
    }
}
