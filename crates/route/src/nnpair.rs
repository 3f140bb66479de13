//! Nearest-pair acceleration for greedy agglomerative merge orders.
//!
//! Greedy-Dist and Greedy-Merge both repeat one primitive n−1 times: *find
//! the live cluster pair with the smallest cost, merge it, insert the
//! result*. The brute-force formulation rescans all pairs per merge —
//! O(n²) per step, O(n³) overall — which caps usable sink counts around a
//! few thousand. This module provides the shared ~O(n log n) engine:
//!
//! * a **spatial hash grid in rotated (u, v) space** over live cluster
//!   positions. Rotating by 45° turns placement-plane L1 into L∞
//!   ([`sllt_geom::RPoint`]), so a ring of grid cells at Chebyshev cell
//!   distance `r` gives the exact lower bound `(r − 1)·cell` on the L1
//!   distance to anything inside it — nearest-neighbor ring search prunes
//!   tightly with no corner slop;
//! * a **lazy-deletion best-pair heap**: every cluster pushes its current
//!   nearest pair at creation. Popped entries naming a dead cluster are
//!   *stale*; if the other endpoint is still alive its nearest pair is
//!   recomputed and re-pushed. Cluster states are immutable after creation
//!   so keys never rot silently — staleness is detectable from liveness
//!   alone;
//! * **incremental reinsertion**: a merge removes two grid entries,
//!   inserts one, and pushes one heap entry. The grid is rebuilt (resized
//!   to the live population) whenever 3/4 of the clusters it was built for
//!   have died.
//!
//! # Determinism and bit-identity
//!
//! The engine must reproduce the brute-force path *bit for bit*. Two rules
//! make that hold:
//!
//! * **Exact costs come from the caller.** The grid and its ring bounds
//!   are used only to *prune* candidates; every comparison uses
//!   [`PairMetric::cost`], the same function (same operations, same
//!   order) the brute-force path evaluates. Conservative floating-point
//!   margin on the prune bound means a candidate is never dropped by
//!   rounding.
//! * **Ties break on creation order.** Pairs are ordered by the key
//!   `(cost, lower id, higher id)` where ids are assigned in creation
//!   order (sinks first, then merged clusters in merge order). Both the
//!   engine and the brute-force path select the minimum of that total
//!   order, so equal-cost pairs — ubiquitous on degenerate (collinear,
//!   coincident) inputs — resolve identically, independent of heap or
//!   scan order.
//!
//! # Correctness of lazy deletion
//!
//! Invariant: *whenever the engine pops, some heap entry keys ≤ the
//! current true minimum pair.* Let `(a, b)` be the true minimum pair with
//! key `k`, `b` the younger endpoint. When `b` was created it pushed its
//! then-nearest pair, whose key was ≤ key(a, b) ≤ `k` (a was already alive
//! and has stayed alive). If that entry was since popped, it was popped
//! stale (a merge would have consumed `b`), and the pop re-pushed `b`'s
//! then-current nearest pair — again ≤ `k` by the same argument. Chaining,
//! an entry with key ≤ `k` is always present; the heap therefore never
//! pops a live pair worse than the true minimum.

use sllt_geom::RPoint;
use sllt_tree::Topology;
use std::cmp::Ordering;
use std::collections::{BinaryHeap, HashMap};

/// Cost model plugged into [`agglomerate`]. `State` is whatever a scheme
/// tracks per cluster (centroid + weight, merging region + delay, …);
/// states are immutable once created.
pub trait PairMetric {
    /// Per-cluster state.
    type State;

    /// Representative position in rotated (u, v) space, used only for
    /// grid binning and ring pruning — never for exact comparisons.
    fn position(s: &Self::State) -> RPoint;

    /// Half-extent of the cluster around [`Self::position`] in (u, v) L∞:
    /// the cost to a cluster in a ring at L∞ distance `d` from the
    /// position is at least `d − half_extent(query) − max half_extent`.
    /// Zero for point-like clusters.
    fn half_extent(s: &Self::State) -> f64;

    /// Exact pair cost. Must be the very computation the brute-force path
    /// performs (bit-identical results depend on it). Symmetric.
    fn cost(a: &Self::State, b: &Self::State) -> f64;

    /// Merged state; `a` is always the older cluster (smaller id), so
    /// asymmetric formulas (centroid accumulation order, delay split
    /// orientation) match the brute-force path exactly.
    fn merge(a: &Self::State, b: &Self::State) -> Self::State;
}

/// The shared total order on selection keys `(cost, lower id, higher id)`.
/// The engine and the brute-force paths both select with exactly this
/// comparison so that equal-cost merges resolve identically.
pub(crate) fn key_less(a: (f64, u32, u32), b: (f64, u32, u32)) -> bool {
    a.0.total_cmp(&b.0)
        .then_with(|| a.1.cmp(&b.1))
        .then_with(|| a.2.cmp(&b.2))
        == Ordering::Less
}

/// A candidate pair in the lazy heap. Ordered by `(cost, lo, hi)`
/// ascending via [`Reverse`]-free manual ordering (we implement the
/// reversed order directly so `BinaryHeap`'s max-pop yields the minimum
/// key).
#[derive(Clone, Copy, Debug)]
struct Entry {
    cost: f64,
    lo: u32,
    hi: u32,
}

impl Entry {
    fn key(&self) -> (f64, u32, u32) {
        (self.cost, self.lo, self.hi)
    }
}

impl PartialEq for Entry {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}
impl Eq for Entry {}
impl PartialOrd for Entry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Entry {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reversed: smallest (cost, lo, hi) is the heap maximum.
        other
            .cost
            .total_cmp(&self.cost)
            .then_with(|| other.lo.cmp(&self.lo))
            .then_with(|| other.hi.cmp(&self.hi))
    }
}

/// Spatial hash grid over rotated-space positions. Cells are square; only
/// occupied cells are stored. The cell size adapts so occupancy stays
/// bounded even on lower-dimensional inputs (collinear sinks occupy only
/// the grid diagonal — a √n×√n grid would pile √n points per cell).
struct Grid {
    cell: f64,
    u0: f64,
    v0: f64,
    cells: HashMap<(i64, i64), Vec<u32>>,
    /// Occupied-cell bounding box, for ring clipping.
    lo: (i64, i64),
    hi: (i64, i64),
}

/// Target maximum cell occupancy during construction; cells are refined
/// (cell size halved) until met or the refinement cap is hit.
const OCCUPANCY_TARGET: usize = 12;

impl Grid {
    fn build(items: &[(u32, RPoint)]) -> Grid {
        debug_assert!(!items.is_empty());
        let (mut ulo, mut uhi, mut vlo, mut vhi) = (
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::INFINITY,
            f64::NEG_INFINITY,
        );
        for &(_, p) in items {
            ulo = ulo.min(p.u);
            uhi = uhi.max(p.u);
            vlo = vlo.min(p.v);
            vhi = vhi.max(p.v);
        }
        let span = (uhi - ulo).max(vhi - vlo).max(1e-9);
        let mut per_axis = ((items.len() as f64).sqrt().ceil() as i64).max(1);
        let mut refinements = 0u64;
        loop {
            let cell = span / per_axis as f64;
            let mut g = Grid {
                cell,
                u0: ulo,
                v0: vlo,
                cells: HashMap::with_capacity(items.len()),
                lo: (i64::MAX, i64::MAX),
                hi: (i64::MIN, i64::MIN),
            };
            let mut worst = 0usize;
            for &(id, p) in items {
                let c = g.cell_of(p);
                let bucket = g.cells.entry(c).or_default();
                bucket.push(id);
                worst = worst.max(bucket.len());
                g.lo = (g.lo.0.min(c.0), g.lo.1.min(c.1));
                g.hi = (g.hi.0.max(c.0), g.hi.1.max(c.1));
            }
            // Coincident points can never spread, so cap the refinement at
            // one cell per item.
            if worst <= OCCUPANCY_TARGET || per_axis as usize >= items.len() {
                sllt_obs::count("route.nnpair.grid_refinements", refinements);
                return g;
            }
            per_axis = (per_axis * 2).min(items.len() as i64);
            refinements += 1;
        }
    }

    #[inline]
    fn cell_of(&self, p: RPoint) -> (i64, i64) {
        (
            ((p.u - self.u0) / self.cell).floor() as i64,
            ((p.v - self.v0) / self.cell).floor() as i64,
        )
    }

    fn insert(&mut self, id: u32, p: RPoint) {
        let c = self.cell_of(p);
        self.cells.entry(c).or_default().push(id);
        self.lo = (self.lo.0.min(c.0), self.lo.1.min(c.1));
        self.hi = (self.hi.0.max(c.0), self.hi.1.max(c.1));
    }

    fn remove(&mut self, id: u32, p: RPoint) {
        let c = self.cell_of(p);
        let bucket = self.cells.get_mut(&c).expect("cluster binned at insert");
        let at = bucket
            .iter()
            .position(|&x| x == id)
            .expect("cluster present in its cell");
        bucket.swap_remove(at);
        if bucket.is_empty() {
            self.cells.remove(&c);
        }
    }

    /// Visits the buckets of the ring of cells at Chebyshev distance `r`
    /// around `(cu, cv)`, clipped to the occupied bounding box.
    fn for_ring(&self, cu: i64, cv: i64, r: i64, mut f: impl FnMut(&[u32])) {
        let visit = |u: i64, v: i64, f: &mut dyn FnMut(&[u32])| {
            if let Some(b) = self.cells.get(&(u, v)) {
                f(b);
            }
        };
        if r == 0 {
            visit(cu, cv, &mut f);
            return;
        }
        let (ulo, uhi) = ((cu - r).max(self.lo.0), (cu + r).min(self.hi.0));
        let (vlo, vhi) = ((cv - r).max(self.lo.1), (cv + r).min(self.hi.1));
        if ulo > uhi || vlo > vhi {
            return;
        }
        // Top and bottom rows of the ring.
        for row in [cv + r, cv - r] {
            if row >= vlo && row <= vhi {
                for u in ulo..=uhi {
                    visit(u, row, &mut f);
                }
            }
        }
        // Left and right columns, excluding ring corners already visited.
        for col in [cu - r, cu + r] {
            if col >= ulo && col <= uhi {
                for v in (cv - r + 1).max(vlo)..=(cv + r - 1).min(vhi) {
                    visit(col, v, &mut f);
                }
            }
        }
    }

    /// Largest Chebyshev cell distance from `(cu, cv)` to any occupied
    /// cell; rings beyond it are empty forever.
    fn max_ring(&self, cu: i64, cv: i64) -> i64 {
        let du = (cu - self.lo.0).abs().max((self.hi.0 - cu).abs());
        let dv = (cv - self.lo.1).abs().max((self.hi.1 - cv).abs());
        du.max(dv)
    }
}

/// Finds the minimum-key pair `(cost, lo, hi)` incident to cluster `q`
/// over all live clusters, by expanding grid rings with a conservative
/// lower-bound cut-off.
fn nearest_pair<M: PairMetric>(
    q: u32,
    states: &[Option<M::State>],
    grid: &Grid,
    max_half_extent: f64,
    alive: usize,
    margin: f64,
    total_examined: &mut u64,
) -> Entry {
    let sq = states[q as usize].as_ref().expect("query cluster is alive");
    let pq = M::position(sq);
    let slack = M::half_extent(sq) + max_half_extent + margin;
    let (cu, cv) = grid.cell_of(pq);
    let max_ring = grid.max_ring(cu, cv);
    let mut best: Option<Entry> = None;
    let mut examined = 0usize;
    let mut r: i64 = 0;
    while r <= max_ring {
        // Everything in ring r is at L∞ ≥ (r − 1)·cell from pq, hence at
        // cost ≥ that minus the extent slack. Strictly-greater cut-off:
        // equal-cost candidates are never pruned, so id tie-breaks see
        // every contender.
        if let Some(b) = &best {
            if (r - 1) as f64 * grid.cell - slack > b.cost {
                break;
            }
        }
        grid.for_ring(cu, cv, r, |bucket| {
            for &x in bucket {
                if x == q {
                    continue;
                }
                let sx = states[x as usize].as_ref().expect("grid holds only live");
                let cost = M::cost(sq, sx);
                let (lo, hi) = if x < q { (x, q) } else { (q, x) };
                let cand = Entry { cost, lo, hi };
                if best.is_none_or(|b| key_less(cand.key(), b.key())) {
                    best = Some(cand);
                }
                examined += 1;
            }
        });
        if examined >= alive - 1 {
            break; // every live partner has been cost-compared exactly
        }
        r += 1;
    }
    *total_examined += examined as u64;
    best.expect("a live partner exists whenever alive ≥ 2")
}

/// Tallies one [`agglomerate`] call: plain locals in the hot loop,
/// emitted to the telemetry shard (if any) once at the end.
#[derive(Default)]
struct EngineCounters {
    pushes: u64,
    pops: u64,
    stale: u64,
    rebuilds: u64,
    examined: u64,
}

impl EngineCounters {
    fn emit(&self, merges: u64) {
        if !sllt_obs::enabled() {
            return;
        }
        sllt_obs::count("route.nnpair.calls", 1);
        sllt_obs::count("route.nnpair.merges", merges);
        sllt_obs::count("route.nnpair.heap_push", self.pushes);
        sllt_obs::count("route.nnpair.heap_pop", self.pops);
        sllt_obs::count("route.nnpair.stale_discard", self.stale);
        sllt_obs::count("route.nnpair.grid_rebuilds", self.rebuilds);
        sllt_obs::count("route.nnpair.candidates_examined", self.examined);
    }
}

/// Runs greedy agglomeration to a single topology: repeatedly merges the
/// live pair minimizing `(cost, lo id, hi id)` until one cluster remains.
/// Bit-identical to the brute-force scan under the same metric (see the
/// module docs for why).
pub fn agglomerate<M: PairMetric>(initial: Vec<M::State>) -> Topology {
    let n = initial.len();
    assert!(n > 0, "agglomeration over zero clusters");
    if n == 1 {
        return Topology::sink(0);
    }
    // Slot i holds cluster id i (creation order: sinks 0..n, then merges).
    let mut states: Vec<Option<M::State>> = initial.into_iter().map(Some).collect();
    states.reserve(n - 1);
    // The `(older, newer)` ids each merge joined, in merge order.
    let mut merges: Vec<(usize, usize)> = Vec::with_capacity(n - 1);

    let mut max_half_extent = states
        .iter()
        .map(|s| M::half_extent(s.as_ref().expect("all alive at start")))
        .fold(0.0, f64::max);
    let positions: Vec<(u32, RPoint)> = states
        .iter()
        .enumerate()
        .map(|(i, s)| (i as u32, M::position(s.as_ref().expect("alive"))))
        .collect();
    let mut grid = Grid::build(&positions);
    // Absolute slop added to the pruning slack: covers the rounding gap
    // between the rotated-space ring bound and the caller's exact cost.
    let coord_scale = positions
        .iter()
        .fold(1.0f64, |m, &(_, p)| m.max(p.u.abs()).max(p.v.abs()));
    let margin = coord_scale * 1e-9;
    drop(positions);

    let mut alive = n;
    let mut grid_population = n;
    let mut tally = EngineCounters::default();
    let mut heap: BinaryHeap<Entry> = BinaryHeap::with_capacity(2 * n);
    for id in 0..n as u32 {
        heap.push(nearest_pair::<M>(
            id,
            &states,
            &grid,
            max_half_extent,
            alive,
            margin,
            &mut tally.examined,
        ));
        tally.pushes += 1;
    }

    while alive > 1 {
        let e = heap
            .pop()
            .expect("lazy-heap invariant: a live pair is enqueued");
        tally.pops += 1;
        let (i, j) = (e.lo as usize, e.hi as usize);
        match (states[i].is_some(), states[j].is_some()) {
            (false, false) => {
                tally.stale += 1;
                continue; // fully stale
            }
            (true, true) => {
                let sa = states[i].take().expect("checked");
                let sb = states[j].take().expect("checked");
                grid.remove(e.lo, M::position(&sa));
                grid.remove(e.hi, M::position(&sb));
                let merged = M::merge(&sa, &sb);
                let id = states.len() as u32;
                max_half_extent = max_half_extent.max(M::half_extent(&merged));
                grid.insert(id, M::position(&merged));
                states.push(Some(merged));
                merges.push((i, j));
                alive -= 1;
                if alive >= 2 {
                    if alive * 4 <= grid_population {
                        let live: Vec<(u32, RPoint)> = states
                            .iter()
                            .enumerate()
                            .filter_map(|(k, s)| s.as_ref().map(|s| (k as u32, M::position(s))))
                            .collect();
                        grid = Grid::build(&live);
                        grid_population = alive;
                        tally.rebuilds += 1;
                    }
                    heap.push(nearest_pair::<M>(
                        id,
                        &states,
                        &grid,
                        max_half_extent,
                        alive,
                        margin,
                        &mut tally.examined,
                    ));
                    tally.pushes += 1;
                }
            }
            (i_alive, _) => {
                // Half-stale: one endpoint outlived the entry. Re-arm the
                // survivor with its current nearest pair (see module docs
                // for why this preserves the pop-order invariant).
                tally.stale += 1;
                let survivor = if i_alive { e.lo } else { e.hi };
                heap.push(nearest_pair::<M>(
                    survivor,
                    &states,
                    &grid,
                    max_half_extent,
                    alive,
                    margin,
                    &mut tally.examined,
                ));
                tally.pushes += 1;
            }
        }
    }

    tally.emit((n - 1) as u64);
    Topology::from_merges(n, &merges)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sllt_geom::Point;

    /// Plain L1 metric over points — enough to exercise the engine
    /// machinery in isolation.
    struct PointMetric;
    impl PairMetric for PointMetric {
        type State = Point;
        fn position(s: &Point) -> RPoint {
            RPoint::from_xy(*s)
        }
        fn half_extent(_: &Point) -> f64 {
            0.0
        }
        fn cost(a: &Point, b: &Point) -> f64 {
            a.dist(*b)
        }
        fn merge(a: &Point, b: &Point) -> Point {
            Point::new((a.x + b.x) / 2.0, (a.y + b.y) / 2.0)
        }
    }

    /// Brute-force oracle with the identical (cost, lo, hi) selection.
    fn agglomerate_naive(points: Vec<Point>) -> Topology {
        assert!(!points.is_empty());
        let n = points.len();
        let mut live: Vec<(u32, Point)> = points
            .into_iter()
            .enumerate()
            .map(|(i, p)| (i as u32, p))
            .collect();
        let mut merges = Vec::new();
        let mut next = n as u32;
        while live.len() > 1 {
            let (mut bi, mut bj) = (0, 1);
            let mut bk = (f64::INFINITY, u32::MAX, u32::MAX);
            for i in 0..live.len() {
                for j in (i + 1)..live.len() {
                    let c = PointMetric::cost(&live[i].1, &live[j].1);
                    let (lo, hi) = if live[i].0 < live[j].0 {
                        (live[i].0, live[j].0)
                    } else {
                        (live[j].0, live[i].0)
                    };
                    let k = (c, lo, hi);
                    if key_less(k, bk) {
                        (bi, bj, bk) = (i, j, k);
                    }
                }
            }
            if live[bi].0 > live[bj].0 {
                std::mem::swap(&mut bi, &mut bj);
            }
            let (hi_slot, lo_slot) = if bi < bj { (bj, bi) } else { (bi, bj) };
            let b = live.swap_remove(hi_slot);
            let a = live.swap_remove(lo_slot);
            let (a, b) = if a.0 < b.0 { (a, b) } else { (b, a) };
            live.push((next, PointMetric::merge(&a.1, &b.1)));
            merges.push((a.0 as usize, b.0 as usize));
            next += 1;
        }
        Topology::from_merges(n, &merges)
    }

    fn pseudo_points(seed: u64, n: usize) -> Vec<Point> {
        use sllt_rng::prelude::*;
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n)
            .map(|_| Point::new(rng.random_range(0.0..500.0), rng.random_range(0.0..500.0)))
            .collect()
    }

    #[test]
    fn engine_matches_oracle_on_random_inputs() {
        for seed in 0..6 {
            for n in [1usize, 2, 3, 7, 40, 120] {
                let pts = pseudo_points(seed, n);
                assert_eq!(
                    agglomerate::<PointMetric>(pts.clone()),
                    agglomerate_naive(pts),
                    "seed {seed} n {n}"
                );
            }
        }
    }

    #[test]
    fn engine_matches_oracle_on_degenerate_inputs() {
        // Collinear: greedy produces a chain; every pair distance ties in
        // batches, so this leans hard on the id tie-break.
        let collinear: Vec<Point> = (0..60).map(|i| Point::new(i as f64, 0.0)).collect();
        assert_eq!(
            agglomerate::<PointMetric>(collinear.clone()),
            agglomerate_naive(collinear)
        );
        // Coincident: all costs zero, selection is pure id order.
        let coincident: Vec<Point> = (0..40).map(|_| Point::new(7.0, -3.0)).collect();
        assert_eq!(
            agglomerate::<PointMetric>(coincident.clone()),
            agglomerate_naive(coincident)
        );
    }

    #[test]
    fn grid_refines_under_collinear_load() {
        let items: Vec<(u32, RPoint)> = (0..1000)
            .map(|i| (i as u32, RPoint::from_xy(Point::new(i as f64, 0.0))))
            .collect();
        let g = Grid::build(&items);
        let worst = g.cells.values().map(Vec::len).max().unwrap_or(0);
        assert!(
            worst <= OCCUPANCY_TARGET,
            "collinear occupancy {worst} exceeds target"
        );
    }

    #[test]
    fn grid_caps_refinement_on_coincident_points() {
        let items: Vec<(u32, RPoint)> = (0..100)
            .map(|i| (i as u32, RPoint::new(1.0, 1.0)))
            .collect();
        let g = Grid::build(&items); // must terminate despite occupancy 100
        assert_eq!(g.cells.len(), 1);
    }
}
