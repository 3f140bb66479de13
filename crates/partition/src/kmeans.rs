//! Balanced K-means clustering.
//!
//! Standard Lloyd iterations give geometric cluster centres; a min-cost
//! flow assignment then maps every point to a centre subject to an exact
//! per-cluster capacity (paper §3.2: "by combining K-means clustering
//! with the min-cost flow, [Han–Kahng–Li] controls the maximum number of
//! nodes in cluster").
//!
//! Two fast-path mechanisms keep this stage off the profile (see
//! `DESIGN.md`, *Partition fast path*):
//!
//! * **Spatially-pruned assignment** — nearest-centre queries run on
//!   flat SoA coordinate arrays through a uniform grid over the centres
//!   ([`CenterGrid`]), scanning outward ring by ring with an exactness
//!   bound, so each point examines only nearby candidates yet the
//!   result is bit-identical to the full scan.
//! * **Warm-started capacity assignment** — instead of re-solving the
//!   dense point×centre bipartite flow from scratch every round, the
//!   unconstrained nearest assignment (optimal ignoring capacity) seeds
//!   a small *overflow-repair* flow that only routes the few points
//!   that must move off overloaded centres. The repair is exact (its
//!   optimum equals the dense solve's optimum); the dense solve remains
//!   only as the test oracle it is checked against.

use crate::cost::weighted_pick;
use crate::mcf::MinCostFlow;
use sllt_geom::Point;
use sllt_rng::prelude::*;

/// Result of a balanced clustering.
#[derive(Debug, Clone, PartialEq)]
pub struct Partition {
    /// Cluster index per point.
    pub assignment: Vec<usize>,
    /// Cluster centres (geometric means of their members).
    pub centers: Vec<Point>,
}

impl Partition {
    /// Members of cluster `c`.
    ///
    /// One call walks the whole assignment, so enumerating every
    /// cluster this way is O(n·k) — use
    /// [`members_all`](Self::members_all) for that.
    pub fn members(&self, c: usize) -> Vec<usize> {
        self.assignment
            .iter()
            .enumerate()
            .filter(|(_, &a)| a == c)
            .map(|(i, _)| i)
            .collect()
    }

    /// Member lists of every cluster, built in a single pass over the
    /// assignment (indices ascending within each cluster, matching
    /// [`members`](Self::members)).
    pub fn members_all(&self) -> Vec<Vec<usize>> {
        let mut out = vec![Vec::new(); self.len()];
        for (i, &a) in self.assignment.iter().enumerate() {
            out[a].push(i);
        }
        out
    }

    /// Number of clusters.
    pub fn len(&self) -> usize {
        self.centers.len()
    }

    /// Whether there are no clusters.
    pub fn is_empty(&self) -> bool {
        self.centers.is_empty()
    }
}

/// Maximum unconstrained Lloyd iterations before the capacity
/// assignment (stops early when the assignment stabilises).
const LLOYD_ITERS: usize = 25;

/// Capacity-assign → re-average rounds. Two let the centres settle onto
/// their capacity-feasible membership (stops early when the assignment
/// stops changing).
const BALANCE_ROUNDS: usize = 2;

/// Below this many centres a flat SoA scan beats the grid (build cost
/// plus ring bookkeeping outweigh the pruning).
const PRUNE_MIN_K: usize = 24;

/// A uniform grid over centre coordinates (flat SoA) for exact pruned
/// nearest-centre queries.
///
/// The grid is `g × g` with `g = ⌈√k⌉` over the centre bounding box;
/// queries expand outward in Chebyshev rings from the query point's
/// cell. Every centre in ring `r ≥ 1` lies at least
/// `(r−1)·min(sx,sy) − pad` away in L∞ (hence in L1 and L2), so once
/// that bound exceeds the best distance found, no farther ring can win
/// and the scan stops — the result matches the full scan exactly,
/// including its lowest-index tie-break. `pad` absorbs the one-ulp cell
/// rounding of the float divisions that place centres into cells.
pub struct CenterGrid {
    cx: Vec<f64>,
    cy: Vec<f64>,
    g: i64,
    x0: f64,
    y0: f64,
    sx: f64,
    sy: f64,
    smin: f64,
    pad: f64,
    start: Vec<usize>,
    items: Vec<u32>,
}

impl CenterGrid {
    /// Builds the grid over centre coordinates given as SoA slices.
    ///
    /// # Panics
    ///
    /// Panics when the slices are empty or of different lengths.
    pub fn build(cx: &[f64], cy: &[f64]) -> CenterGrid {
        assert!(!cx.is_empty() && cx.len() == cy.len(), "bad centre SoA");
        let k = cx.len();
        let (mut x0, mut x1, mut y0, mut y1) = (
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::INFINITY,
            f64::NEG_INFINITY,
        );
        for i in 0..k {
            x0 = x0.min(cx[i]);
            x1 = x1.max(cx[i]);
            y0 = y0.min(cy[i]);
            y1 = y1.max(cy[i]);
        }
        let g = (k as f64).sqrt().ceil() as i64;
        // Degenerate (coincident or axis-aligned) centre sets collapse
        // a cell span to 0 (or NaN); fall back to unit cells.
        let mut sx = (x1 - x0) / g as f64;
        let mut sy = (y1 - y0) / g as f64;
        if sx <= 0.0 || sx.is_nan() {
            sx = 1.0;
        }
        if sy <= 0.0 || sy.is_nan() {
            sy = 1.0;
        }
        let span = (x1 - x0) + (y1 - y0) + x0.abs().max(x1.abs()) + y0.abs().max(y1.abs());
        let pad = 1e-9 * (1.0 + span);
        let cell = |x: f64, y: f64| -> usize {
            let ix = (((x - x0) / sx).floor() as i64).clamp(0, g - 1);
            let iy = (((y - y0) / sy).floor() as i64).clamp(0, g - 1);
            (iy * g + ix) as usize
        };
        // Two-pass CSR; iterating centres in ascending order keeps each
        // cell's list ascending, which the tie-break relies on only for
        // determinism of the scan order (the update rule itself picks
        // the lowest index among minima regardless of order).
        let mut start = vec![0usize; (g * g) as usize + 1];
        for i in 0..k {
            start[cell(cx[i], cy[i]) + 1] += 1;
        }
        for c in 0..(g * g) as usize {
            start[c + 1] += start[c];
        }
        let mut fill = start.clone();
        let mut items = vec![0u32; k];
        for i in 0..k {
            let c = cell(cx[i], cy[i]);
            items[fill[c]] = i as u32;
            fill[c] += 1;
        }
        CenterGrid {
            cx: cx.to_vec(),
            cy: cy.to_vec(),
            g,
            x0,
            y0,
            sx,
            sy,
            smin: sx.min(sy),
            pad,
            start,
            items,
        }
    }

    fn nearest_impl<const L2: bool>(&self, px: f64, py: f64) -> usize {
        let g = self.g;
        let fx = (((px - self.x0) / self.sx).floor() as i64).clamp(0, g - 1);
        let fy = (((py - self.y0) / self.sy).floor() as i64).clamp(0, g - 1);
        let mut best = f64::INFINITY;
        let mut best_i = u32::MAX;
        let scan_cell = |ix: i64, iy: i64, best: &mut f64, best_i: &mut u32| {
            if ix < 0 || iy < 0 || ix >= g || iy >= g {
                return;
            }
            let c = (iy * g + ix) as usize;
            for &ci in &self.items[self.start[c]..self.start[c + 1]] {
                let (dx, dy) = (px - self.cx[ci as usize], py - self.cy[ci as usize]);
                let d = if L2 {
                    dx * dx + dy * dy
                } else {
                    dx.abs() + dy.abs()
                };
                if d < *best || (d == *best && ci < *best_i) {
                    *best = d;
                    *best_i = ci;
                }
            }
        };
        let mut r = 0i64;
        loop {
            if best_i != u32::MAX {
                // Exactness bound: any centre in ring r is at least
                // this far away; a strictly larger bound than the best
                // cannot even tie, so the expansion stops.
                let lb = (((r - 1) as f64) * self.smin - self.pad).max(0.0);
                let lb = if L2 { lb * lb } else { lb };
                if lb > best {
                    break;
                }
            }
            if r > g {
                // All cells visited (clamped start cell is inside the
                // grid, so Chebyshev distance to any cell is ≤ g).
                break;
            }
            if r == 0 {
                scan_cell(fx, fy, &mut best, &mut best_i);
            } else {
                for ix in (fx - r)..=(fx + r) {
                    scan_cell(ix, fy - r, &mut best, &mut best_i);
                    scan_cell(ix, fy + r, &mut best, &mut best_i);
                }
                for iy in (fy - r + 1)..=(fy + r - 1) {
                    scan_cell(fx - r, iy, &mut best, &mut best_i);
                    scan_cell(fx + r, iy, &mut best, &mut best_i);
                }
            }
            r += 1;
        }
        best_i as usize
    }

    /// Index of the L1-nearest centre (lowest index wins ties), equal
    /// to [`nearest_scan_l1`] on the same SoA arrays.
    pub fn nearest_l1(&self, px: f64, py: f64) -> usize {
        self.nearest_impl::<false>(px, py)
    }

    /// Index of the squared-L2-nearest centre (lowest index wins ties),
    /// equal to [`nearest_scan_l2sq`] on the same SoA arrays.
    pub fn nearest_l2sq(&self, px: f64, py: f64) -> usize {
        self.nearest_impl::<true>(px, py)
    }
}

/// Reference full scan for the L1-nearest centre; first (lowest-index)
/// minimum wins.
pub fn nearest_scan_l1(cx: &[f64], cy: &[f64], px: f64, py: f64) -> usize {
    let mut best = f64::INFINITY;
    let mut best_i = 0usize;
    for i in 0..cx.len() {
        let d = (px - cx[i]).abs() + (py - cy[i]).abs();
        if d < best {
            best = d;
            best_i = i;
        }
    }
    best_i
}

/// Reference full scan for the squared-L2-nearest centre; first
/// (lowest-index) minimum wins.
pub fn nearest_scan_l2sq(cx: &[f64], cy: &[f64], px: f64, py: f64) -> usize {
    let mut best = f64::INFINITY;
    let mut best_i = 0usize;
    for i in 0..cx.len() {
        let (dx, dy) = (px - cx[i], py - cy[i]);
        let d = dx * dx + dy * dy;
        if d < best {
            best = d;
            best_i = i;
        }
    }
    best_i
}

/// Clusters `points` into `k` groups of at most `cap` members each.
///
/// Lloyd iterations run unconstrained first (k-means++-style seeding
/// from `seed`); the capacity assignment then holds the per-cluster cap
/// *exactly* while total point-to-centre distance is minimal for the
/// chosen centres; centres re-average over the final membership.
///
/// # Panics
///
/// Panics when `points` is empty, `k` is zero, or `k·cap` cannot hold
/// all points.
pub fn balanced_kmeans(points: &[Point], k: usize, cap: usize, seed: u64) -> Partition {
    assert!(!points.is_empty(), "clustering an empty point set");
    assert!(k > 0, "k must be positive");
    assert!(
        k * cap >= points.len(),
        "k*cap too small: {}*{cap} < {}",
        k,
        points.len()
    );
    let n = points.len();
    let mut rng = StdRng::seed_from_u64(seed);

    // Flat SoA copies of the point coordinates: the Lloyd inner loop
    // and the nearest-centre queries stream over these.
    let px: Vec<f64> = points.iter().map(|p| p.x).collect();
    let py: Vec<f64> = points.iter().map(|p| p.y).collect();

    let mut centers = seed_plus_plus(points, k, &mut rng);

    // Unconstrained Lloyd.
    let mut assignment = vec![0usize; n];
    let lloyd_iters = lloyd(points, &px, &py, &mut centers, &mut assignment);

    // Capacity-exact assignment, then centre re-averaging; repeated for
    // `BALANCE_ROUNDS` so the centres settle onto capacity-feasible
    // membership. Min-cost flow is optimal but its
    // successive-shortest-path cost grows with size; above a threshold
    // we switch to the classic same-size-k-means greedy (points ranked
    // by how much they lose if bumped off their favourite centre),
    // which is near-optimal in practice and linearithmic.
    const MCF_LIMIT: usize = 1500;
    let mut rounds = 0u64;
    for round in 0..BALANCE_ROUNDS {
        rounds += 1;
        let next = if n > MCF_LIMIT {
            sllt_obs::count("partition.kmeans.assign_greedy", 1);
            greedy_capacitated(points, &centers, cap)
        } else {
            capacitated_assign(&px, &py, &centers, cap)
        };
        let converged = round > 0 && next == assignment;
        assignment = next;
        // Re-average the centres over the capacity-feasible membership.
        let mut sums = vec![Point::ORIGIN; k];
        let mut counts = vec![0usize; k];
        for (i, p) in points.iter().enumerate() {
            sums[assignment[i]] = sums[assignment[i]] + *p;
            counts[assignment[i]] += 1;
        }
        for c in 0..k {
            if counts[c] > 0 {
                centers[c] = sums[c] / counts[c] as f64;
            }
        }
        if converged {
            break;
        }
    }
    sllt_obs::count("partition.kmeans.calls", 1);
    sllt_obs::count("partition.kmeans.lloyd_iterations", lloyd_iters);
    sllt_obs::count("partition.kmeans.balance_rounds", rounds);
    Partition {
        assignment,
        centers,
    }
}

/// k-means++ seeding: each next centre is drawn with probability
/// proportional to the squared distance to the nearest existing centre.
/// The running minimum is maintained incrementally (O(n) per centre).
fn seed_plus_plus(points: &[Point], k: usize, rng: &mut StdRng) -> Vec<Point> {
    let mut centers: Vec<Point> = Vec::with_capacity(k);
    let first = points[rng.random_range(0..points.len())];
    centers.push(first);
    let mut weights: Vec<f64> = points.iter().map(|p| p.dist_l2_sq(first)).collect();
    while centers.len() < k {
        let total: f64 = weights.iter().sum();
        if total <= 1e-12 {
            // All points coincide with existing centres; duplicate one.
            centers.push(centers[0]);
            continue;
        }
        let pick = rng.random_range(0.0..total);
        let chosen = weighted_pick(&weights, pick)
            // Invariant: `total > 0` implies some weight is positive.
            .expect("positive total weight");
        let c = points[chosen];
        centers.push(c);
        for (w, p) in weights.iter_mut().zip(points) {
            *w = w.min(p.dist_l2_sq(c));
        }
    }
    centers
}

/// Unconstrained Lloyd iterations over SoA coordinates. Returns the
/// iteration count; `centers` and `assignment` are updated in place.
///
/// Centres that lose all members are reseeded to the point currently
/// farthest from its assigned centre — deterministically: empties are
/// processed in ascending centre order, each taking the lowest-index
/// farthest point not already taken. Without the reseed a dead centroid
/// persists for all remaining iterations and the final capacity
/// assignment inherits it.
fn lloyd(
    points: &[Point],
    px: &[f64],
    py: &[f64],
    centers: &mut [Point],
    assignment: &mut [usize],
) -> u64 {
    let n = px.len();
    let k = centers.len();
    let mut cx = vec![0.0f64; k];
    let mut cy = vec![0.0f64; k];
    let mut iters = 0u64;
    for _ in 0..LLOYD_ITERS {
        iters += 1;
        for (c, ctr) in centers.iter().enumerate() {
            cx[c] = ctr.x;
            cy[c] = ctr.y;
        }
        let grid = (k >= PRUNE_MIN_K).then(|| CenterGrid::build(&cx, &cy));
        let mut changed = false;
        for i in 0..n {
            let best = match &grid {
                Some(g) => g.nearest_l2sq(px[i], py[i]),
                None => nearest_scan_l2sq(&cx, &cy, px[i], py[i]),
            };
            if assignment[i] != best {
                assignment[i] = best;
                changed = true;
            }
        }
        let mut sums = vec![Point::ORIGIN; k];
        let mut counts = vec![0usize; k];
        for (i, p) in points.iter().enumerate() {
            sums[assignment[i]] = sums[assignment[i]] + *p;
            counts[assignment[i]] += 1;
        }
        for c in 0..k {
            if counts[c] > 0 {
                centers[c] = sums[c] / counts[c] as f64;
            }
        }
        let mut reseeded = false;
        if counts.contains(&0) {
            // Distance of every point to its (freshly averaged) centre;
            // consumed greedily by the empty centres in ascending order.
            let mut far: Vec<f64> = (0..n)
                .map(|i| points[i].dist_l2_sq(centers[assignment[i]]))
                .collect();
            for c in 0..k {
                if counts[c] != 0 {
                    continue;
                }
                let mut best = -1.0f64;
                let mut best_i = usize::MAX;
                for (i, &d) in far.iter().enumerate() {
                    if d > best {
                        best = d;
                        best_i = i;
                    }
                }
                if best < 0.0 {
                    break; // more empty centres than points
                }
                far[best_i] = -1.0;
                if centers[c] != points[best_i] {
                    centers[c] = points[best_i];
                    reseeded = true;
                    sllt_obs::count("partition.kmeans.reseeds", 1);
                }
            }
        }
        if !changed && !reseeded {
            break;
        }
    }
    iters
}

/// Capacity-exact assignment for flow-sized instances: repairs the
/// unconstrained nearest assignment, which is optimal for the given
/// centres (the same total cost as the dense flow, `mcf_assign`).
fn capacitated_assign(px: &[f64], py: &[f64], centers: &[Point], cap: usize) -> Vec<usize> {
    let k = centers.len();
    let n = px.len();
    let cx: Vec<f64> = centers.iter().map(|c| c.x).collect();
    let cy: Vec<f64> = centers.iter().map(|c| c.y).collect();
    let grid = (k >= PRUNE_MIN_K).then(|| CenterGrid::build(&cx, &cy));
    let mut near = vec![0usize; n];
    let mut near_d = vec![0.0f64; n];
    let mut load = vec![0i64; k];
    for i in 0..n {
        let c = match &grid {
            Some(g) => g.nearest_l1(px[i], py[i]),
            None => nearest_scan_l1(&cx, &cy, px[i], py[i]),
        };
        near[i] = c;
        near_d[i] = (px[i] - cx[c]).abs() + (py[i] - cy[c]).abs();
        load[c] += 1;
    }
    if load.iter().all(|&l| l <= cap as i64) {
        // Every point already sits at its individual optimum and no
        // capacity binds: the nearest assignment IS the flow optimum.
        sllt_obs::count("partition.kmeans.assign_trivial", 1);
        return near;
    }
    sllt_obs::count("partition.kmeans.assign_warm", 1);
    repair_assign(px, py, &cx, &cy, cap, &near, &near_d, &load)
}

/// Overflow repair: min-cost flow that moves just enough points off
/// overloaded centres to restore feasibility, starting from the
/// unconstrained nearest assignment `near`.
///
/// Network: `source → overloaded centre` (overflow, 0) injects the
/// units that must leave; `centre(near[i]) → gate_i` (1, 0) lets each
/// point move at most once; `gate_i → c'` (1, d(i,c')−d(i,near[i]))
/// prices the move (non-negative — `near` is the L1 optimum);
/// `underloaded centre → sink` (slack, 0) absorbs them. Any feasible
/// assignment decomposes into such point moves with exactly this total
/// cost over the nearest baseline, and chains through full centres are
/// representable, so the repair optimum equals the dense bipartite
/// optimum (argument in DESIGN.md) — while augmentation count drops
/// from n to the total overflow.
#[allow(clippy::too_many_arguments)]
fn repair_assign(
    px: &[f64],
    py: &[f64],
    cx: &[f64],
    cy: &[f64],
    cap: usize,
    near: &[usize],
    near_d: &[f64],
    load: &[i64],
) -> Vec<usize> {
    let n = px.len();
    let k = cx.len();
    // Node ids: 0 = source, 1..=k centres, 1+k..1+k+n point gates.
    let sink = 1 + k + n;
    let mut g = MinCostFlow::new(2 + k + n);
    let mut overflow = 0i64;
    for (c, &l) in load.iter().enumerate() {
        if l > cap as i64 {
            g.add_edge(0, 1 + c, l - cap as i64, 0.0);
            overflow += l - cap as i64;
        }
    }
    let mut arc = vec![usize::MAX; n * k];
    for i in 0..n {
        g.add_edge(1 + near[i], 1 + k + i, 1, 0.0);
        for c in 0..k {
            if c == near[i] {
                continue;
            }
            let d = (px[i] - cx[c]).abs() + (py[i] - cy[c]).abs();
            arc[i * k + c] = g.add_edge(1 + k + i, 1 + c, 1, (d - near_d[i]).max(0.0));
        }
    }
    for (c, &l) in load.iter().enumerate() {
        if l < cap as i64 {
            g.add_edge(1 + c, sink, cap as i64 - l, 0.0);
        }
    }
    let (flow, _) = g.solve(0, sink);
    // Invariant: Σ load = n ≤ k·cap (asserted at entry) implies total
    // slack ≥ total overflow, and every gate reaches every centre.
    assert_eq!(flow, overflow, "repair flow must drain all overflow");
    let mut out = near.to_vec();
    for i in 0..n {
        for c in 0..k {
            let e = arc[i * k + c];
            if e != usize::MAX && g.flow_on(e) > 0 {
                out[i] = c;
            }
        }
    }
    out
}

/// Optimal capacitated assignment by dense min-cost flow:
/// source → point (1, 0); point → centre (1, L1 distance);
/// centre → sink (cap, 0). The test oracle for [`repair_assign`].
#[cfg(test)]
fn mcf_assign(points: &[Point], centers: &[Point], cap: usize) -> Vec<usize> {
    let k = centers.len();
    let n = points.len();
    let source = 0;
    let sink = 1 + n + k;
    let mut g = MinCostFlow::new(2 + n + k);
    let mut edge_of = vec![vec![0usize; k]; n];
    for (i, p) in points.iter().enumerate() {
        g.add_edge(source, 1 + i, 1, 0.0);
        for (c, ctr) in centers.iter().enumerate() {
            edge_of[i][c] = g.add_edge(1 + i, 1 + n + c, 1, p.dist(*ctr));
        }
    }
    for c in 0..k {
        g.add_edge(1 + n + c, sink, cap as i64, 0.0);
    }
    let (flow, _) = g.solve(source, sink);
    assert_eq!(flow as usize, n, "flow must place every point");
    let mut assignment = vec![0usize; n];
    for (i, edges) in edge_of.iter().enumerate() {
        for (c, &e) in edges.iter().enumerate() {
            if g.flow_on(e) > 0 {
                assignment[i] = c;
            }
        }
    }
    assignment
}

/// Greedy capacitated assignment: points claim centres in order of the
/// regret they would suffer if denied their nearest centre; full centres
/// fall through to the nearest with remaining room.
fn greedy_capacitated(points: &[Point], centers: &[Point], cap: usize) -> Vec<usize> {
    let k = centers.len();
    let n = points.len();
    // Rank per point: (second-nearest − nearest) distance regret.
    let mut order: Vec<(f64, usize)> = points
        .iter()
        .enumerate()
        .map(|(i, p)| {
            let (mut d1, mut d2) = (f64::INFINITY, f64::INFINITY);
            for c in centers {
                let d = p.dist(*c);
                if d < d1 {
                    d2 = d1;
                    d1 = d;
                } else if d < d2 {
                    d2 = d;
                }
            }
            (d2 - d1, i)
        })
        .collect();
    order.sort_by(|a, b| b.0.total_cmp(&a.0));

    let mut room = vec![cap; k];
    let mut assignment = vec![usize::MAX; n];
    for (_, i) in order {
        let p = points[i];
        let mut best = usize::MAX;
        let mut best_d = f64::INFINITY;
        for (c, ctr) in centers.iter().enumerate() {
            if room[c] > 0 {
                let d = p.dist(*ctr);
                if d < best_d {
                    best_d = d;
                    best = c;
                }
            }
        }
        assert!(best != usize::MAX, "k*cap guarantees room somewhere");
        assignment[i] = best;
        room[best] -= 1;
    }
    assignment
}

/// Splits `0..points.len()` into spatial cells of at most `max_cell`
/// indices by recursive median bisection along the wider extent. Cell
/// order is a pure function of the point set (LIFO split order, stable
/// sorts), so downstream cluster numbering is reproducible.
fn median_split_cells(points: &[Point], max_cell: usize) -> Vec<Vec<usize>> {
    let mut cells = Vec::new();
    let mut stack: Vec<Vec<usize>> = vec![(0..points.len()).collect()];
    while let Some(mut cell) = stack.pop() {
        if cell.is_empty() {
            // Median splits of nonempty cells keep both halves nonempty,
            // but an empty cell must be skipped, not crash the flow: it
            // simply contributes no clusters.
            continue;
        }
        if cell.len() > max_cell {
            // Split along the wider extent at the median.
            let pts: Vec<Point> = cell.iter().map(|&i| points[i]).collect();
            let Some(bb) = sllt_geom::Rect::bounding(&pts) else {
                continue;
            };
            if bb.width() >= bb.height() {
                cell.sort_by(|&a, &b| points[a].x.total_cmp(&points[b].x));
            } else {
                cell.sort_by(|&a, &b| points[a].y.total_cmp(&points[b].y));
            }
            let hi = cell.split_off(cell.len() / 2);
            stack.push(cell);
            stack.push(hi);
            continue;
        }
        cells.push(cell);
    }
    cells
}

/// Capacity-exact clustering for large point sets: the die is split by
/// recursive median bisection into cells of at most `max_cell` points,
/// and each cell is clustered independently with [`balanced_kmeans`]
/// (whose min-cost-flow assignment is exact). `target_k` distributes a
/// caller-chosen total cluster count proportionally over the cells.
///
/// The greedy fallback inside [`balanced_kmeans`] can strand points in
/// far-away clusters on dense placements (die-spanning clusters hundreds
/// of µm wide); median bisection keeps every cluster local while the
/// per-cell flow keeps the capacity exact.
///
/// The median bisection runs first and yields a deterministic cell
/// list; `workers` scoped threads then pull whole cells from a shared
/// counter and run the per-cell K-means + min-cost-flow independently.
/// Each cell's seed is anchored to its first (sort-leading) point index
/// and expanded through SplitMix64 by the RNG layer, so every shard's
/// random stream is a pure function of the point set and `seed` —
/// never of worker count or scheduling. Shard results merge in cell
/// order, which makes the returned partition (assignment *and* centre
/// numbering) bit-identical at any worker count, including one.
///
/// `stop` is polled between cells on every worker; returns `None` when
/// it fired (the partial partition is discarded).
///
/// # Panics
///
/// As [`balanced_kmeans`]; additionally panics when `max_cell < cap`.
pub fn balanced_kmeans_grid_sharded(
    points: &[Point],
    target_k: usize,
    cap: usize,
    max_cell: usize,
    seed: u64,
    workers: usize,
    stop: &(dyn Fn() -> bool + Sync),
) -> Option<Partition> {
    assert!(!points.is_empty(), "clustering an empty point set");
    assert!(max_cell >= cap, "cells must hold at least one full cluster");
    let n = points.len();
    let cells = median_split_cells(points, max_cell);
    sllt_obs::count("partition.grid.cells", cells.len() as u64);

    let cluster_cell = |cell: &[usize]| -> Partition {
        let pts: Vec<Point> = cell.iter().map(|&i| points[i]).collect();
        let k_cell = cell
            .len()
            .div_ceil(cap)
            .max(target_k * cell.len() / n.max(1))
            .max(1)
            .min(cell.len());
        serial_restarts(&pts, k_cell, cap, seed ^ cell[0] as u64, 2)
    };

    let workers = workers.clamp(1, cells.len().max(1));
    let parts: Vec<Option<Partition>> = if workers <= 1 {
        let mut parts = Vec::with_capacity(cells.len());
        for cell in &cells {
            if stop() {
                return None;
            }
            parts.push(Some(cluster_cell(cell)));
        }
        parts
    } else {
        use std::sync::atomic::{AtomicUsize, Ordering};
        use std::sync::Mutex;
        let next = AtomicUsize::new(0);
        let slots: Mutex<Vec<Option<Partition>>> = Mutex::new(vec![None; cells.len()]);
        // Telemetry hand-off: workers record into the coordinator's
        // registry (if one is installed) so per-cell counters merge to
        // the same totals the serial path records — worker count must
        // stay invisible to telemetry, not just to the partition.
        let registry = sllt_obs::current();
        let parent_span = sllt_obs::current_span();
        std::thread::scope(|scope| {
            let (next, slots, cells, cluster_cell, registry) =
                (&next, &slots, &cells, &cluster_cell, &registry);
            for w in 0..workers {
                scope.spawn(move || {
                    let _telemetry = registry
                        .as_ref()
                        .map(|r| r.install_worker(&format!("kmeans-worker-{w}"), parent_span));
                    loop {
                        // Poll before claiming, so at most `workers` cells
                        // start after a stop fires.
                        if stop() {
                            break;
                        }
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= cells.len() {
                            break;
                        }
                        let part = cluster_cell(&cells[i]);
                        slots.lock().expect("no panics hold the slot lock")[i] = Some(part);
                    }
                });
            }
        });
        slots.into_inner().expect("workers joined")
    };

    // Merge in cell order: shard-local cluster indices offset by the
    // running total, exactly as the serial loop numbered them.
    let mut assignment = vec![0usize; n];
    let mut centers: Vec<Point> = Vec::new();
    for (cell, part) in cells.iter().zip(parts) {
        // An empty slot means its worker saw the stop before claiming
        // the cell; the whole partition is discarded.
        let part = part?;
        let base = centers.len();
        centers.extend_from_slice(&part.centers);
        for (local, &global) in cell.iter().enumerate() {
            assignment[global] = base + part.assignment[local];
        }
    }
    Some(Partition {
        assignment,
        centers,
    })
}

/// Total L1 point-to-centre distance — the default restart score.
fn l1_score(points: &[Point], part: &Partition) -> f64 {
    points
        .iter()
        .zip(&part.assignment)
        .map(|(p, &a)| p.dist(part.centers[a]))
        .sum()
}

/// Serial restart loop used inside already-parallel shards (cells run
/// on their own workers; nesting pools would oversubscribe).
fn serial_restarts(points: &[Point], k: usize, cap: usize, seed: u64, tries: usize) -> Partition {
    let mut best: Option<(f64, Partition)> = None;
    for t in 0..tries {
        let part = balanced_kmeans(points, k, cap, restart_seed(seed, t));
        let cost = l1_score(points, &part);
        if best.as_ref().is_none_or(|(bc, _)| cost < *bc) {
            best = Some((cost, part));
        }
    }
    best.map(|(_, p)| p).expect("tries > 0")
}

/// Per-restart seed stream: restart `t` runs on
/// `seed + t·0x9E37` (wrapping), which `StdRng::seed_from_u64` expands
/// through SplitMix64 into a decorrelated stream per restart. Restart 0
/// uses the base seed verbatim, so a single-restart run reproduces
/// `balanced_kmeans(seed)` exactly.
fn restart_seed(seed: u64, t: usize) -> u64 {
    seed.wrapping_add(t as u64 * 0x9E37)
}

/// Runs [`balanced_kmeans`] `tries` times with derived seeds and keeps
/// the partition with the smallest total point-to-centre L1 distance.
/// k-means++ seeding is stochastic; on clustered (register-bank)
/// placements an unlucky seed can fragment banks and cost >20 % of
/// routed wirelength, so production flows restart.
///
/// # Panics
///
/// As [`balanced_kmeans`]; additionally panics when `tries` is zero.
pub fn balanced_kmeans_restarts(
    points: &[Point],
    k: usize,
    cap: usize,
    seed: u64,
    tries: usize,
) -> Partition {
    assert!(tries > 0, "at least one try");
    serial_restarts(points, k, cap, seed, tries)
}

/// [`balanced_kmeans_restarts`] with a caller-supplied score and the
/// restarts fanned out across `workers` scoped threads.
///
/// Each restart `t` runs on its own SplitMix64-expanded seed stream
/// (see [`balanced_kmeans_restarts`]); workers pull restart indices
/// from a shared counter and score their partitions in place, and the
/// best-of selection is a serial scan in restart order keeping the
/// strictly lowest score — ties break toward the lowest restart index —
/// so the winner is bit-identical at any worker count.
///
/// `stop` is polled between restarts on every worker; returns `None`
/// when it fired (partial results are discarded).
///
/// # Panics
///
/// As [`balanced_kmeans`]; additionally panics when `tries` is zero.
#[allow(clippy::too_many_arguments)]
pub fn balanced_kmeans_restarts_scored(
    points: &[Point],
    k: usize,
    cap: usize,
    seed: u64,
    tries: usize,
    workers: usize,
    score: &(dyn Fn(&Partition) -> f64 + Sync),
    stop: &(dyn Fn() -> bool + Sync),
) -> Option<Partition> {
    assert!(tries > 0, "at least one try");
    let run = |t: usize| -> (f64, Partition) {
        let part = balanced_kmeans(points, k, cap, restart_seed(seed, t));
        (score(&part), part)
    };
    let workers = workers.clamp(1, tries);
    let scored: Vec<Option<(f64, Partition)>> = if workers <= 1 {
        let mut out = Vec::with_capacity(tries);
        for t in 0..tries {
            if stop() {
                return None;
            }
            out.push(Some(run(t)));
        }
        out
    } else {
        use std::sync::atomic::{AtomicUsize, Ordering};
        use std::sync::Mutex;
        let next = AtomicUsize::new(0);
        let slots: Mutex<Vec<Option<(f64, Partition)>>> = Mutex::new(vec![None; tries]);
        let registry = sllt_obs::current();
        let parent_span = sllt_obs::current_span();
        std::thread::scope(|scope| {
            let (next, slots, run, registry) = (&next, &slots, &run, &registry);
            for w in 0..workers {
                scope.spawn(move || {
                    let _telemetry = registry
                        .as_ref()
                        .map(|r| r.install_worker(&format!("kmeans-restart-{w}"), parent_span));
                    loop {
                        if stop() {
                            break;
                        }
                        let t = next.fetch_add(1, Ordering::Relaxed);
                        if t >= tries {
                            break;
                        }
                        let out = run(t);
                        slots.lock().expect("no panics hold the slot lock")[t] = Some(out);
                    }
                });
            }
        });
        slots.into_inner().expect("workers joined")
    };
    // Deterministic best-of: strict `<` over restart order means the
    // lowest restart index wins ties, independent of worker schedule.
    let mut best: Option<(f64, Partition)> = None;
    for slot in scored {
        let (cost, part) = slot?;
        if best.as_ref().is_none_or(|(bc, _)| cost < *bc) {
            best = Some((cost, part));
        }
    }
    best.map(|(_, p)| p)
}

/// Mean silhouette score of a clustering, in `[-1, 1]` (1 = compact,
/// well-separated clusters). Used by the paper to evaluate clustering
/// quality before the SA refinement. Points in singleton clusters score 0
/// by convention; returns 0 for a single cluster.
pub fn silhouette(points: &[Point], assignment: &[usize], k: usize) -> f64 {
    assert_eq!(points.len(), assignment.len());
    if k < 2 || points.len() < 2 {
        return 0.0;
    }
    let mut total = 0.0;
    for (i, p) in points.iter().enumerate() {
        // Mean distance to own cluster (a) and nearest other cluster (b).
        let mut sums = vec![0.0f64; k];
        let mut counts = vec![0usize; k];
        for (j, q) in points.iter().enumerate() {
            if i == j {
                continue;
            }
            sums[assignment[j]] += p.dist(*q);
            counts[assignment[j]] += 1;
        }
        let own = assignment[i];
        if counts[own] == 0 {
            continue; // singleton: contributes 0
        }
        let a = sums[own] / counts[own] as f64;
        let b = (0..k)
            .filter(|&c| c != own && counts[c] > 0)
            .map(|c| sums[c] / counts[c] as f64)
            .fold(f64::INFINITY, f64::min);
        if b.is_finite() {
            total += (b - a) / a.max(b);
        }
    }
    total / points.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    fn grid(n: usize, step: f64) -> Vec<Point> {
        (0..n * n)
            .map(|i| Point::new((i % n) as f64 * step, (i / n) as f64 * step))
            .collect()
    }

    fn random_points(seed: u64, n: usize, span: f64) -> Vec<Point> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n)
            .map(|_| Point::new(rng.random_range(0.0..span), rng.random_range(0.0..span)))
            .collect()
    }

    #[test]
    fn capacity_is_exact() {
        let pts = grid(6, 5.0); // 36 points
        for (k, cap) in [(4, 9), (6, 7), (9, 4), (36, 1)] {
            let part = balanced_kmeans(&pts, k, cap, 1);
            for c in 0..k {
                let m = part.members(c).len();
                assert!(m <= cap, "k={k} cap={cap}: cluster {c} has {m}");
            }
            assert_eq!(part.assignment.len(), 36);
        }
    }

    #[test]
    fn separated_blobs_cluster_cleanly() {
        let mut pts = Vec::new();
        for (cx, cy) in [(0.0, 0.0), (100.0, 0.0), (0.0, 100.0)] {
            for i in 0..8 {
                pts.push(Point::new(cx + (i % 3) as f64, cy + (i / 3) as f64));
            }
        }
        let part = balanced_kmeans(&pts, 3, 8, 7);
        // Each blob must be a single cluster (capacity forces exactness).
        for blob in 0..3 {
            let first = part.assignment[blob * 8];
            for i in 0..8 {
                assert_eq!(part.assignment[blob * 8 + i], first, "blob {blob} split");
            }
        }
        let s = silhouette(&pts, &part.assignment, 3);
        assert!(s > 0.8, "separated blobs should score high: {s}");
    }

    #[test]
    fn tight_capacity_splits_a_blob() {
        // One blob of 10, capacity 5, k = 2: flow must split 5/5.
        let pts: Vec<Point> = (0..10).map(|i| Point::new(i as f64 * 0.1, 0.0)).collect();
        let part = balanced_kmeans(&pts, 2, 5, 3);
        assert_eq!(part.members(0).len(), 5);
        assert_eq!(part.members(1).len(), 5);
    }

    #[test]
    fn members_all_matches_members() {
        let pts = random_points(8, 37, 60.0);
        let part = balanced_kmeans(&pts, 5, 9, 2);
        let all = part.members_all();
        assert_eq!(all.len(), part.len());
        for (c, members) in all.iter().enumerate() {
            assert_eq!(*members, part.members(c), "cluster {c}");
        }
    }

    /// Satellite regression: the k-means++ weighted pick must never
    /// land on a zero-weight (coincident) candidate, neither when
    /// floating-point residue leaves `pick > 0` after the scan nor when
    /// the draw is exactly zero.
    #[test]
    fn weighted_pick_skips_zero_weights() {
        use crate::cost::weighted_pick;
        // Residue past the total: fall back to the LAST positive
        // weight, not index 0.
        assert_eq!(weighted_pick(&[0.0, 1.0, 0.0], 1.0 + 1e-7), Some(1));
        assert_eq!(weighted_pick(&[0.5, 1.0, 0.0], 1.5 + 1e-9), Some(1));
        // A zero draw must take the first positive weight, not a
        // zero-weight point sitting at index 0.
        assert_eq!(weighted_pick(&[0.0, 1.0, 2.0], 0.0), Some(1));
        // Interior draws behave cumulatively.
        assert_eq!(weighted_pick(&[1.0, 2.0, 3.0], 0.5), Some(0));
        assert_eq!(weighted_pick(&[1.0, 2.0, 3.0], 2.5), Some(1));
        assert_eq!(weighted_pick(&[1.0, 2.0, 3.0], 5.5), Some(2));
        // Degenerate: nothing pickable.
        assert_eq!(weighted_pick(&[0.0, 0.0], 0.0), None);
        assert_eq!(weighted_pick(&[], 0.0), None);
    }

    /// Regression: a centre whose cluster empties mid-Lloyd must be
    /// reseeded to the current farthest point instead of persisting as
    /// a dead centroid.
    #[test]
    fn lloyd_reseeds_empty_centres() {
        // Two far blobs; three centres, but centre 1 starts remote from
        // every point. It loses the first assignment round, so only the
        // reseed can bring it back.
        let mut pts = Vec::new();
        for i in 0..8 {
            pts.push(Point::new((i % 4) as f64, (i / 4) as f64));
        }
        for i in 0..8 {
            pts.push(Point::new(500.0 + (i % 4) as f64, 300.0 + (i / 4) as f64));
        }
        let px: Vec<f64> = pts.iter().map(|p| p.x).collect();
        let py: Vec<f64> = pts.iter().map(|p| p.y).collect();
        let seed_centers = vec![
            Point::new(1.5, 0.5),
            Point::new(-900.0, -700.0),
            Point::new(501.5, 300.5),
        ];

        let mut centers = seed_centers;
        let mut assignment = vec![0usize; pts.len()];
        lloyd(&pts, &px, &py, &mut centers, &mut assignment);
        assert!(
            assignment.contains(&1),
            "reseeded centre must win members back"
        );
        let mut counts = [0usize; 3];
        for &a in &assignment {
            counts[a] += 1;
        }
        assert!(counts.iter().all(|&c| c > 0), "no cluster left empty");
    }

    /// Pruned nearest-centre queries must equal the full scan exactly,
    /// including lowest-index tie-breaks, in both metrics.
    #[test]
    fn center_grid_matches_scan() {
        for seed in 0..20u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            let k = rng.random_range(1..120);
            let span = [1.0, 75.0, 9000.0][(seed % 3) as usize];
            let cx: Vec<f64> = (0..k).map(|_| rng.random_range(0.0..span)).collect();
            let cy: Vec<f64> = (0..k).map(|_| rng.random_range(0.0..span)).collect();
            let grid = CenterGrid::build(&cx, &cy);
            for _ in 0..200 {
                // Queries both inside and well outside the centre bbox.
                let px = rng.random_range(-span..2.0 * span);
                let py = rng.random_range(-span..2.0 * span);
                assert_eq!(
                    grid.nearest_l1(px, py),
                    nearest_scan_l1(&cx, &cy, px, py),
                    "L1 seed={seed}"
                );
                assert_eq!(
                    grid.nearest_l2sq(px, py),
                    nearest_scan_l2sq(&cx, &cy, px, py),
                    "L2 seed={seed}"
                );
            }
        }
    }

    #[test]
    fn center_grid_handles_coincident_centres() {
        let cx = vec![5.0; 9];
        let cy = vec![5.0; 9];
        let grid = CenterGrid::build(&cx, &cy);
        // All ties: lowest index must win, as in the scan.
        assert_eq!(grid.nearest_l1(3.0, 3.0), 0);
        assert_eq!(grid.nearest_l2sq(100.0, -7.0), 0);
    }

    /// Warm (overflow-repair) and cold (dense flow) capacity
    /// assignments must reach the same total cost — and on ties-free
    /// random instances, the same assignment.
    #[test]
    fn warm_assignment_matches_dense_flow() {
        for seed in 0..15u64 {
            let mut rng = StdRng::seed_from_u64(100 + seed);
            let n = rng.random_range(20usize..120);
            let k = rng.random_range(2usize..8);
            let cap = n.div_ceil(k) + rng.random_range(0..2);
            let pts = random_points(seed, n, 200.0);
            let centers: Vec<Point> = (0..k)
                .map(|_| Point::new(rng.random_range(0.0..200.0), rng.random_range(0.0..200.0)))
                .collect();
            let px: Vec<f64> = pts.iter().map(|p| p.x).collect();
            let py: Vec<f64> = pts.iter().map(|p| p.y).collect();
            let warm = capacitated_assign(&px, &py, &centers, cap);
            let cold = mcf_assign(&pts, &centers, cap);
            let cost =
                |a: &[usize]| -> f64 { pts.iter().zip(a).map(|(p, &c)| p.dist(centers[c])).sum() };
            let (cw, cc) = (cost(&warm), cost(&cold));
            assert!(
                (cw - cc).abs() <= 1e-6 * (1.0 + cc),
                "seed={seed}: warm {cw} vs cold {cc}"
            );
            let mut counts = vec![0usize; k];
            for &a in &warm {
                counts[a] += 1;
            }
            assert!(counts.iter().all(|&c| c <= cap), "warm capacity violated");
            // Assignments may differ only where alternate optima tie:
            // every divergence must be cost-neutral overall (checked
            // above), so count them rather than demand identity.
            let diverged = warm.iter().zip(&cold).filter(|(a, b)| a != b).count();
            assert!(
                diverged == 0 || (cw - cc).abs() <= 1e-9 * (1.0 + cc),
                "seed={seed}: {diverged} non-tie divergences (warm {cw} vs cold {cc})"
            );
        }
    }

    #[test]
    fn grid_clustering_keeps_clusters_local() {
        // Two dense far-apart blobs with awkward counts: no cluster may
        // span the gap.
        let mut rng = StdRng::seed_from_u64(4);
        let mut pts = Vec::new();
        for cx in [0.0, 500.0] {
            for _ in 0..900 {
                pts.push(Point::new(
                    cx + rng.random_range(0.0..40.0),
                    rng.random_range(0.0..40.0),
                ));
            }
        }
        let part = balanced_kmeans_grid_sharded(&pts, 1800 / 32, 32, 600, 9, 1, &|| false).unwrap();
        let k = part.centers.len();
        for c in 0..k {
            let members = part.members(c);
            if members.is_empty() {
                continue;
            }
            assert!(members.len() <= 32, "capacity violated");
            let mpts: Vec<Point> = members.iter().map(|&i| pts[i]).collect();
            let bb = sllt_geom::Rect::bounding(&mpts).unwrap();
            assert!(bb.hpwl() < 200.0, "cluster spans the gap: {:.0}", bb.hpwl());
        }
        assert!(part.assignment.iter().all(|&a| a < k));
    }

    #[test]
    fn restarts_never_pick_a_worse_partition() {
        let pts = random_points(5, 60, 75.0);
        let cost = |part: &Partition| l1_score(&pts, part);
        let single = cost(&balanced_kmeans(&pts, 5, 15, 42));
        let multi = cost(&balanced_kmeans_restarts(&pts, 5, 15, 42, 5));
        assert!(multi <= single + 1e-9);
    }

    /// Restart parallelism is an execution strategy, not a result knob:
    /// the selected partition must be bit-identical at every worker
    /// count, and equal to the serial restart loop.
    #[test]
    fn scored_restarts_bit_identical_at_any_worker_count() {
        let pts = random_points(11, 140, 300.0);
        let score = |part: &Partition| l1_score(&pts, part);
        let serial = balanced_kmeans_restarts(&pts, 7, 24, 77, 6);
        for workers in [1usize, 2, 4, 8] {
            let par =
                balanced_kmeans_restarts_scored(&pts, 7, 24, 77, 6, workers, &score, &|| false)
                    .unwrap();
            assert_eq!(serial.assignment, par.assignment, "workers={workers}");
            assert_eq!(serial.centers.len(), par.centers.len());
            let same = serial
                .centers
                .iter()
                .zip(&par.centers)
                .all(|(a, b)| a.x.to_bits() == b.x.to_bits() && a.y.to_bits() == b.y.to_bits());
            assert!(same, "workers={workers}: centres diverged");
        }
    }

    #[test]
    fn scored_restarts_stop_discards() {
        let pts = random_points(3, 50, 80.0);
        let score = |part: &Partition| l1_score(&pts, part);
        for workers in [1usize, 4] {
            let out = balanced_kmeans_restarts_scored(&pts, 4, 16, 9, 4, workers, &score, &|| true);
            assert!(out.is_none(), "workers={workers}: stop must discard");
        }
    }

    #[test]
    fn silhouette_detects_bad_clustering() {
        let mut pts = Vec::new();
        for (cx, cy) in [(0.0, 0.0), (100.0, 0.0)] {
            for i in 0..6 {
                pts.push(Point::new(cx + i as f64, cy));
            }
        }
        let good: Vec<usize> = (0..12).map(|i| i / 6).collect();
        let bad: Vec<usize> = (0..12).map(|i| i % 2).collect();
        assert!(silhouette(&pts, &good, 2) > silhouette(&pts, &bad, 2));
    }

    #[test]
    fn silhouette_degenerate_cases() {
        let pts = vec![Point::ORIGIN, Point::new(1.0, 0.0)];
        assert_eq!(silhouette(&pts, &[0, 0], 1), 0.0);
        assert_eq!(silhouette(&[Point::ORIGIN], &[0], 2), 0.0);
    }

    #[test]
    fn coincident_points_do_not_crash() {
        let pts = vec![Point::new(5.0, 5.0); 9];
        let part = balanced_kmeans(&pts, 3, 3, 11);
        for c in 0..3 {
            assert_eq!(part.members(c).len(), 3);
        }
    }

    /// The grid splitter must survive degenerate point sets without
    /// panicking on an empty cell: fully coincident points force every
    /// median split to cut identical coordinates, the worst case for the
    /// bounding-box path that previously `expect`ed cells nonempty.
    #[test]
    fn grid_clustering_survives_degenerate_cells() {
        let pts = vec![Point::new(5.0, 5.0); 64];
        let part = balanced_kmeans_grid_sharded(&pts, 8, 8, 16, 3, 1, &|| false).unwrap();
        assert_eq!(part.assignment.len(), 64);
        let k = part.centers.len();
        assert!(part.assignment.iter().all(|&a| a < k));
        for c in 0..k {
            assert!(part.members(c).len() <= 8, "cluster {c} over capacity");
        }
        // A two-point degenerate set exercises the minimal-cell path.
        let two = vec![Point::ORIGIN; 2];
        let part = balanced_kmeans_grid_sharded(&two, 1, 2, 2, 1, 1, &|| false).unwrap();
        assert_eq!(part.assignment.len(), 2);
    }

    #[test]
    #[should_panic(expected = "too small")]
    fn infeasible_capacity_rejected() {
        let pts = grid(3, 1.0);
        let _ = balanced_kmeans(&pts, 2, 4, 1);
    }

    /// Sharding is an execution strategy, not a result knob: the
    /// partition (assignment and centre numbering) must be bit-identical
    /// at every worker count, including one.
    #[test]
    fn sharded_grid_is_bit_identical_at_any_worker_count() {
        let pts = random_points(21, 2400, 900.0);
        let serial =
            balanced_kmeans_grid_sharded(&pts, 2400 / 24, 24, 400, 17, 1, &|| false).unwrap();
        for workers in [2usize, 3, 8] {
            let sharded =
                balanced_kmeans_grid_sharded(&pts, 2400 / 24, 24, 400, 17, workers, &|| false)
                    .unwrap();
            assert_eq!(serial.assignment, sharded.assignment, "workers={workers}");
            let same_centers = serial
                .centers
                .iter()
                .zip(&sharded.centers)
                .all(|(a, b)| a.x.to_bits() == b.x.to_bits() && a.y.to_bits() == b.y.to_bits());
            assert!(
                same_centers && serial.centers.len() == sharded.centers.len(),
                "workers={workers}: centres diverged"
            );
        }
    }

    #[test]
    fn sharded_grid_stop_discards_the_partition() {
        let pts = grid(50, 4.0); // 2500 points
        for workers in [1usize, 4] {
            let out = balanced_kmeans_grid_sharded(&pts, 80, 32, 500, 3, workers, &|| true);
            assert!(out.is_none(), "workers={workers}: stop must discard");
        }
    }

    #[test]
    #[cfg(feature = "proptest")]
    fn proptest_every_point_assigned_within_capacity() {
        use proptest::prelude::*;
        proptest!(|(seed in 0u64..100, n in 1usize..40, k in 1usize..8)| {
            let pts = random_points(seed, n, 75.0);
            let cap = n.div_ceil(k) + 1;
            let part = balanced_kmeans(&pts, k, cap, seed);
            prop_assert_eq!(part.assignment.len(), n);
            for c in 0..k {
                prop_assert!(part.members(c).len() <= cap);
            }
            prop_assert!(part.assignment.iter().all(|&a| a < k));
        });
    }

    /// Property: pruned assignment ≡ full-scan assignment over random
    /// point/centre sets, both metrics, arbitrary spans.
    #[test]
    #[cfg(feature = "proptest")]
    fn proptest_pruned_assignment_matches_scan() {
        use proptest::prelude::*;
        proptest!(|(seed in 0u64..150, k in 1usize..90, span_exp in 0u32..5)| {
            let mut rng = StdRng::seed_from_u64(seed);
            let span = 10f64.powi(span_exp as i32);
            let cx: Vec<f64> = (0..k).map(|_| rng.random_range(0.0..span)).collect();
            let cy: Vec<f64> = (0..k).map(|_| rng.random_range(0.0..span)).collect();
            let grid = CenterGrid::build(&cx, &cy);
            for _ in 0..50 {
                let px = rng.random_range(-span..2.0 * span);
                let py = rng.random_range(-span..2.0 * span);
                prop_assert_eq!(grid.nearest_l1(px, py), nearest_scan_l1(&cx, &cy, px, py));
                prop_assert_eq!(grid.nearest_l2sq(px, py), nearest_scan_l2sq(&cx, &cy, px, py));
            }
        });
    }

    /// Property: warm-started (overflow-repair) capacity assignment
    /// reaches the same total cost as the cold dense solve.
    #[test]
    #[cfg(feature = "proptest")]
    fn proptest_warm_assignment_cost_matches_cold() {
        use proptest::prelude::*;
        proptest!(|(seed in 0u64..100, n in 4usize..80, k in 2usize..8)| {
            let mut rng = StdRng::seed_from_u64(seed ^ 0xABCD);
            let cap = n.div_ceil(k);
            let pts = random_points(seed, n, 120.0);
            let centers: Vec<Point> = (0..k)
                .map(|_| Point::new(rng.random_range(0.0..120.0), rng.random_range(0.0..120.0)))
                .collect();
            let px: Vec<f64> = pts.iter().map(|p| p.x).collect();
            let py: Vec<f64> = pts.iter().map(|p| p.y).collect();
            let warm = capacitated_assign(&px, &py, &centers, cap);
            let cold = mcf_assign(&pts, &centers, cap);
            let cost = |a: &[usize]| -> f64 {
                pts.iter().zip(a).map(|(p, &c)| p.dist(centers[c])).sum()
            };
            let (cw, cc) = (cost(&warm), cost(&cold));
            prop_assert!((cw - cc).abs() <= 1e-6 * (1.0 + cc), "warm {} vs cold {}", cw, cc);
            let mut counts = vec![0usize; k];
            for &a in &warm { counts[a] += 1; }
            prop_assert!(counts.iter().all(|&c| c <= cap));
        });
    }
}
