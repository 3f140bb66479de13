//! Candidate merge-order (topology) generation.
//!
//! Paper §2.3, footnote 1 — the BST step of CBS may use any of four merge
//! orders:
//!
//! * **Greedy-Dist** — "the two closest subtrees are merged greedily at
//!   each step";
//! * **Greedy-Merge** — "selects and merges the two subtrees with the
//!   minimum merging cost at each step" (merging cost = wire the DME merge
//!   would add, i.e. the distance between merging regions);
//! * **Bi-Partition** — "performs binary partitioning in each round based
//!   on the diameter cost of the partitioned subsets";
//! * **Bi-Cluster** — "recursively performing binary partitions in a
//!   clustering manner" (2-means).

use crate::nnpair::{self, key_less, PairMetric};
use sllt_geom::{Point, RPoint, RRect};
use sllt_tree::{ClockNet, Topology};
use std::fmt;

/// Which merge-order scheme to use for the BST/CBS topology.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TopologyScheme {
    /// Merge the two geometrically closest subtrees first.
    GreedyDist,
    /// Merge the pair with the smallest DME merging cost first.
    GreedyMerge,
    /// Recursive median bi-partition minimizing subset diameters.
    BiPartition,
    /// Recursive 2-means clustering.
    BiCluster,
}

impl TopologyScheme {
    /// All four schemes, in the paper's order.
    pub const ALL: [TopologyScheme; 4] = [
        TopologyScheme::GreedyDist,
        TopologyScheme::GreedyMerge,
        TopologyScheme::BiPartition,
        TopologyScheme::BiCluster,
    ];

    /// Builds the merge order for `net` under this scheme.
    ///
    /// # Panics
    ///
    /// Panics when the net has no sinks.
    pub fn build(self, net: &ClockNet) -> Topology {
        match self {
            TopologyScheme::GreedyDist => greedy_dist(net),
            TopologyScheme::GreedyMerge => greedy_merge(net),
            TopologyScheme::BiPartition => bi_partition(net),
            TopologyScheme::BiCluster => bi_cluster(net),
        }
    }
}

impl fmt::Display for TopologyScheme {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            TopologyScheme::GreedyDist => "GreedyDist",
            TopologyScheme::GreedyMerge => "GreedyMerge",
            TopologyScheme::BiPartition => "BiPartition",
            TopologyScheme::BiCluster => "BiCluster",
        };
        f.write_str(s)
    }
}

fn check_nonempty(net: &ClockNet) {
    assert!(!net.is_empty(), "topology generation over a sinkless net");
}

/// Below this sink count the brute-force scan wins on constant factor
/// (no grid or heap setup); above it the nearest-pair engine takes over.
/// Results are bit-identical either way, so the cutoff is pure tuning.
const NAIVE_CUTOFF: usize = 32;

/// Greedy-Dist cluster state: weighted centroid of the merged sinks.
struct DistState {
    centroid: Point,
    weight: f64,
}

/// The exact Greedy-Dist cost — L1 centroid distance. Shared verbatim by
/// the engine-backed and brute-force paths (bit-identity depends on it).
fn dist_cost(a: &DistState, b: &DistState) -> f64 {
    a.centroid.dist(b.centroid)
}

/// The exact Greedy-Dist merge; `a` is the older (smaller-id) cluster, so
/// the accumulation order of the weighted mean is deterministic.
fn dist_merge(a: &DistState, b: &DistState) -> DistState {
    let w = a.weight + b.weight;
    DistState {
        centroid: (a.centroid * a.weight + b.centroid * b.weight) / w,
        weight: w,
    }
}

struct DistMetric;

impl PairMetric for DistMetric {
    type State = DistState;
    fn position(s: &DistState) -> RPoint {
        RPoint::from_xy(s.centroid)
    }
    fn half_extent(_: &DistState) -> f64 {
        0.0 // centroids are points
    }
    fn cost(a: &DistState, b: &DistState) -> f64 {
        dist_cost(a, b)
    }
    fn merge(a: &DistState, b: &DistState) -> DistState {
        dist_merge(a, b)
    }
}

fn dist_states(net: &ClockNet) -> Vec<DistState> {
    net.sinks
        .iter()
        .map(|s| DistState {
            centroid: s.pos,
            weight: 1.0,
        })
        .collect()
}

/// Greedy-Dist: repeatedly merge the two subtrees whose centroids are
/// closest in L1; ties break toward the oldest pair (creation-order ids).
///
/// Runs on the nearest-pair engine ([`crate::nnpair`]) in ~O(n log n);
/// bit-identical to [`greedy_dist_naive`].
pub fn greedy_dist(net: &ClockNet) -> Topology {
    check_nonempty(net);
    if net.sinks.len() <= NAIVE_CUTOFF {
        return greedy_dist_naive(net);
    }
    nnpair::agglomerate::<DistMetric>(dist_states(net))
}

/// Brute-force Greedy-Dist: every live pair scanned per merge (pair
/// costs cached), O(n³) overall. Retained as the oracle the accelerated
/// path is cross-checked against, and as the small-n fast path.
pub fn greedy_dist_naive(net: &ClockNet) -> Topology {
    check_nonempty(net);
    // |a − b| and |b − a| are the same float, and + commutes: symmetric.
    agglomerate_naive(dist_states(net), dist_cost, dist_merge, true)
}

/// Greedy-Merge cluster state: DME merging region plus linear-model delay
/// (path length) at that region.
struct MergeState {
    region: RRect,
    delay: f64,
}

/// The exact Greedy-Merge cost — the wire a balanced merge would add: the
/// L1 distance between merging regions, or the delay gap when the gap
/// exceeds it (the fast side must detour that much under the linear
/// model). Shared verbatim by both paths.
fn merge_cost(a: &MergeState, b: &MergeState) -> f64 {
    let d = a.region.dist(&b.region);
    d.max((a.delay - b.delay).abs())
}

/// The exact Greedy-Merge merge: zero-skew split of the connecting wire
/// under the linear delay model. `a` is the older (smaller-id) cluster,
/// fixing the orientation of the split.
fn merge_merge(a: &MergeState, b: &MergeState) -> MergeState {
    let d = a.region.dist(&b.region);
    let mut ea = (b.delay - a.delay + d) / 2.0;
    let mut eb = d - ea;
    if ea < 0.0 {
        ea = 0.0;
        eb = a.delay - b.delay;
    } else if eb < 0.0 {
        eb = 0.0;
        ea = b.delay - a.delay;
    }
    let region = a
        .region
        .inflated(ea)
        .intersection(&b.region.inflated(eb))
        .unwrap_or_else(|| {
            // Detour merges may not intersect exactly due to fp noise;
            // fall back to the midpoint of the nearest approach.
            RRect::from_point(a.region.nearest_to(b.region.center()))
        });
    MergeState {
        region,
        delay: a.delay + ea,
    }
}

struct MergeMetric;

impl PairMetric for MergeMetric {
    type State = MergeState;
    fn position(s: &MergeState) -> RPoint {
        let (ulo, uhi, vlo, vhi) = s.region.bounds();
        RPoint::new((ulo + uhi) / 2.0, (vlo + vhi) / 2.0)
    }
    fn half_extent(s: &MergeState) -> f64 {
        let (ulo, uhi, vlo, vhi) = s.region.bounds();
        ((uhi - ulo).max(vhi - vlo)) / 2.0
    }
    fn cost(a: &MergeState, b: &MergeState) -> f64 {
        merge_cost(a, b)
    }
    fn merge(a: &MergeState, b: &MergeState) -> MergeState {
        merge_merge(a, b)
    }
}

fn merge_states(net: &ClockNet) -> Vec<MergeState> {
    net.sinks
        .iter()
        .map(|s| MergeState {
            region: RRect::from_point(s.pos),
            delay: 0.0,
        })
        .collect()
}

/// Greedy-Merge: repeatedly merge the pair with the smallest DME merging
/// cost; ties break toward the oldest pair (creation-order ids).
///
/// Runs on the nearest-pair engine ([`crate::nnpair`]) in ~O(n log n);
/// bit-identical to [`greedy_merge_naive`]. The region half-extent feeds
/// the engine's prune slack, since the merging-region distance can be up
/// to a full region extent smaller than the center distance.
pub fn greedy_merge(net: &ClockNet) -> Topology {
    check_nonempty(net);
    if net.sinks.len() <= NAIVE_CUTOFF {
        return greedy_merge_naive(net);
    }
    nnpair::agglomerate::<MergeMetric>(merge_states(net))
}

/// Brute-force Greedy-Merge: every live pair scanned per merge (pair
/// costs cached), O(n³) overall. Retained as the oracle the accelerated
/// path is cross-checked against, and as the small-n fast path.
pub fn greedy_merge_naive(net: &ClockNet) -> Topology {
    check_nonempty(net);
    // `f64::max` may return either zero of a ±0 tie, so the region
    // distance is not provably symmetric in its arguments.
    agglomerate_naive(merge_states(net), merge_cost, merge_merge, false)
}

/// The brute-force agglomeration shared by both `*_naive` schemes: scan
/// every live pair, select the minimum `(cost, lower id, higher id)` —
/// the same selection key the engine uses — merge, repeat.
///
/// Pair costs live in a flat slot × slot matrix, filled once per pair
/// (one row and column per new cluster) instead of being recomputed by
/// every scan, and both `swap_remove`s are mirrored on it, so the scan
/// visits the same slots in the same order with the same keys as a full
/// rescan. Entry `[i][j]` holds `cost(slot i, slot j)`, the orientation
/// the scan asks for; a `symmetric` cost is evaluated once per pair,
/// any other once per orientation (slot order flips when `swap_remove`
/// moves a cluster down).
fn agglomerate_naive<S>(
    initial: Vec<S>,
    cost: impl Fn(&S, &S) -> f64,
    merge: impl Fn(&S, &S) -> S,
    symmetric: bool,
) -> Topology {
    struct Cluster<S> {
        id: u32,
        state: S,
    }
    let n = initial.len();
    let mut next_id = n as u32;
    let mut clusters: Vec<Cluster<S>> = initial
        .into_iter()
        .enumerate()
        .map(|(i, state)| Cluster {
            id: i as u32,
            state,
        })
        .collect();
    let mut merges = Vec::with_capacity(n - 1);
    let mut costs = vec![0.0f64; n * n];
    let fill = |costs: &mut [f64], clusters: &[Cluster<S>], j: usize| {
        for i in 0..j {
            let c = cost(&clusters[i].state, &clusters[j].state);
            costs[i * n + j] = c;
            costs[j * n + i] = if symmetric {
                c
            } else {
                cost(&clusters[j].state, &clusters[i].state)
            };
        }
    };
    for j in 1..n {
        fill(&mut costs, &clusters, j);
    }
    // Mirrors `clusters.swap_remove(k)` while `len` slots are live.
    let swap_remove = |costs: &mut [f64], k: usize, len: usize| {
        let last = len - 1;
        if k != last {
            for t in 0..last {
                costs[k * n + t] = costs[last * n + t];
                costs[t * n + k] = costs[t * n + last];
            }
        }
    };
    while clusters.len() > 1 {
        let live = clusters.len();
        let (mut bi, mut bj) = (0, 1);
        let mut bk = (f64::INFINITY, u32::MAX, u32::MAX);
        for i in 0..live {
            let row = &costs[i * n..i * n + live];
            for (j, &c) in row.iter().enumerate().skip(i + 1) {
                // A strictly larger cost loses under `key_less` too (its
                // `total_cmp` agrees with `>` on non-NaN values): skip
                // building the key.
                if c > bk.0 {
                    continue;
                }
                let (lo, hi) = if clusters[i].id < clusters[j].id {
                    (clusters[i].id, clusters[j].id)
                } else {
                    (clusters[j].id, clusters[i].id)
                };
                if key_less((c, lo, hi), bk) {
                    (bi, bj, bk) = (i, j, (c, lo, hi));
                }
            }
        }
        // Invariant: bi < bj (the scan only visits i < j), so removing bj
        // first cannot move slot bi — `swap_remove(bj)` relocates only the
        // final element, whose slot index is ≥ bj > bi. No index fixup is
        // needed for the second removal.
        let b = clusters.swap_remove(bj);
        swap_remove(&mut costs, bj, live);
        let a = clusters.swap_remove(bi);
        swap_remove(&mut costs, bi, live - 1);
        // Orient by creation id, as the engine does: the older cluster is
        // the left/`a` side of asymmetric merge formulas.
        let (a, b) = if a.id < b.id { (a, b) } else { (b, a) };
        clusters.push(Cluster {
            id: next_id,
            state: merge(&a.state, &b.state),
        });
        merges.push((a.id as usize, b.id as usize));
        fill(&mut costs, &clusters, clusters.len() - 1);
        next_id += 1;
    }
    Topology::from_merges(n, &merges)
}

/// The full-rescan agglomeration [`agglomerate_naive`] replaced: every
/// scan recomputes every pair cost. The oracle it is checked against.
#[cfg(test)]
fn agglomerate_rescan<S>(
    initial: Vec<S>,
    cost: impl Fn(&S, &S) -> f64,
    merge: impl Fn(&S, &S) -> S,
) -> Topology {
    struct Cluster<S> {
        id: u32,
        state: S,
    }
    let n = initial.len();
    let mut next_id = n as u32;
    let mut clusters: Vec<Cluster<S>> = initial
        .into_iter()
        .enumerate()
        .map(|(i, state)| Cluster {
            id: i as u32,
            state,
        })
        .collect();
    let mut merges = Vec::new();
    while clusters.len() > 1 {
        let (mut bi, mut bj) = (0, 1);
        let mut bk = (f64::INFINITY, u32::MAX, u32::MAX);
        for i in 0..clusters.len() {
            for j in (i + 1)..clusters.len() {
                let c = cost(&clusters[i].state, &clusters[j].state);
                let (lo, hi) = if clusters[i].id < clusters[j].id {
                    (clusters[i].id, clusters[j].id)
                } else {
                    (clusters[j].id, clusters[i].id)
                };
                if key_less((c, lo, hi), bk) {
                    (bi, bj, bk) = (i, j, (c, lo, hi));
                }
            }
        }
        let b = clusters.swap_remove(bj);
        let a = clusters.swap_remove(bi);
        let (a, b) = if a.id < b.id { (a, b) } else { (b, a) };
        clusters.push(Cluster {
            id: next_id,
            state: merge(&a.state, &b.state),
        });
        merges.push((a.id as usize, b.id as usize));
        next_id += 1;
    }
    Topology::from_merges(n, &merges)
}

/// Bi-Partition: recursively split the sink set in two along the axis
/// that minimizes the larger subset diameter (half-perimeter).
pub fn bi_partition(net: &ClockNet) -> Topology {
    check_nonempty(net);
    let idx: Vec<usize> = (0..net.sinks.len()).collect();
    split_partition(net, idx)
}

fn diameter(net: &ClockNet, idx: &[usize]) -> f64 {
    sllt_geom::Rect::bounding(&idx.iter().map(|&i| net.sinks[i].pos).collect::<Vec<_>>())
        .map_or(0.0, |r| r.hpwl())
}

fn split_partition(net: &ClockNet, mut idx: Vec<usize>) -> Topology {
    if idx.len() == 1 {
        return Topology::sink(idx[0]);
    }
    let mid = idx.len() / 2;
    // Try the median split on each axis; keep the one whose worse half has
    // the smaller diameter.
    let mut by_x = idx.clone();
    by_x.sort_by(|&a, &b| net.sinks[a].pos.x.total_cmp(&net.sinks[b].pos.x));
    idx.sort_by(|&a, &b| net.sinks[a].pos.y.total_cmp(&net.sinks[b].pos.y));
    let by_y = idx;
    let cost = |v: &[usize]| diameter(net, &v[..mid]).max(diameter(net, &v[mid..]));
    let chosen = if cost(&by_x) <= cost(&by_y) {
        by_x
    } else {
        by_y
    };
    let (lo, hi) = chosen.split_at(mid);
    Topology::merge(
        split_partition(net, lo.to_vec()),
        split_partition(net, hi.to_vec()),
    )
}

/// Bi-Cluster: recursive 2-means (Lloyd, L2 objective, deterministic
/// farthest-pair seeding).
pub fn bi_cluster(net: &ClockNet) -> Topology {
    check_nonempty(net);
    let idx: Vec<usize> = (0..net.sinks.len()).collect();
    split_cluster(net, idx)
}

fn split_cluster(net: &ClockNet, idx: Vec<usize>) -> Topology {
    if idx.len() == 1 {
        return Topology::sink(idx[0]);
    }
    if idx.len() == 2 {
        return Topology::merge(Topology::sink(idx[0]), Topology::sink(idx[1]));
    }
    let pos = |i: usize| net.sinks[i].pos;
    // Seed with the two mutually farthest members (exact for these sizes).
    let (mut sa, mut sb, mut far) = (idx[0], idx[1], -1.0);
    for (k, &i) in idx.iter().enumerate() {
        for &j in &idx[k + 1..] {
            let d = pos(i).dist(pos(j));
            if d > far {
                (sa, sb, far) = (i, j, d);
            }
        }
    }
    let (mut ca, mut cb) = (pos(sa), pos(sb));
    let mut assign = vec![false; idx.len()]; // false → a, true → b
    for _ in 0..12 {
        let mut changed = false;
        for (k, &i) in idx.iter().enumerate() {
            let to_b = pos(i).dist_l2_sq(cb) < pos(i).dist_l2_sq(ca);
            if assign[k] != to_b {
                assign[k] = to_b;
                changed = true;
            }
        }
        let (mut na, mut nb) = (Point::ORIGIN, Point::ORIGIN);
        let (mut wa, mut wb) = (0usize, 0usize);
        for (k, &i) in idx.iter().enumerate() {
            if assign[k] {
                nb = nb + pos(i);
                wb += 1;
            } else {
                na = na + pos(i);
                wa += 1;
            }
        }
        if wa == 0 || wb == 0 {
            break;
        }
        ca = na / wa as f64;
        cb = nb / wb as f64;
        if !changed {
            break;
        }
    }
    let mut a = Vec::new();
    let mut b = Vec::new();
    for (k, &i) in idx.iter().enumerate() {
        if assign[k] {
            b.push(i);
        } else {
            a.push(i);
        }
    }
    // Lloyd can collapse a side; fall back to a median split.
    if a.is_empty() || b.is_empty() {
        let mut v = idx;
        v.sort_by(|&x, &y| pos(x).x.total_cmp(&pos(y).x));
        let mid = v.len() / 2;
        let (lo, hi) = v.split_at(mid);
        return Topology::merge(
            split_cluster(net, lo.to_vec()),
            split_cluster(net, hi.to_vec()),
        );
    }
    Topology::merge(split_cluster(net, a), split_cluster(net, b))
}

#[cfg(test)]
mod tests {
    use super::*;
    use sllt_rng::prelude::*;
    use sllt_tree::{Sink, TopoNode};

    fn random_net(seed: u64, n: usize) -> ClockNet {
        let mut rng = StdRng::seed_from_u64(seed);
        ClockNet::new(
            Point::new(37.5, 37.5),
            (0..n)
                .map(|_| {
                    Sink::new(
                        Point::new(rng.random_range(0.0..75.0), rng.random_range(0.0..75.0)),
                        1.0,
                    )
                })
                .collect(),
        )
    }

    /// The cost-matrix agglomeration must pick the same merges as the
    /// full rescan. 15 µm-grid nets tie on cost at almost every step, so
    /// the `(cost, lo id, hi id)` order is exercised, not just the cost.
    #[test]
    fn cost_matrix_agglomeration_matches_the_full_rescan() {
        let mut rng = StdRng::seed_from_u64(15);
        for n in 1..=32 {
            for trial in 0..6 {
                // Distinct cells of an 8 × 8 grid at 15 µm pitch, plus
                // (odd trials) repeated cells: coincident sinks.
                let sinks: Vec<Sink> = (0..n)
                    .map(|i| {
                        let cell = if trial % 2 == 1 && i % 3 == 2 {
                            rng.random_range(0..64)
                        } else {
                            (i * 5 + trial * 7) % 64
                        };
                        let pos = Point::new((cell % 8) as f64 * 15.0, (cell / 8) as f64 * 15.0);
                        Sink::new(pos, 1.0)
                    })
                    .collect();
                let net = ClockNet::new(Point::new(52.5, 52.5), sinks);
                assert_eq!(
                    greedy_dist_naive(&net),
                    agglomerate_rescan(dist_states(&net), dist_cost, dist_merge),
                    "greedy_dist n {n} trial {trial}"
                );
                assert_eq!(
                    greedy_merge_naive(&net),
                    agglomerate_rescan(merge_states(&net), merge_cost, merge_merge),
                    "greedy_merge n {n} trial {trial}"
                );
            }
        }
    }

    #[test]
    fn all_schemes_cover_every_sink_exactly_once() {
        for seed in 0..10 {
            let net = random_net(seed, 23);
            for scheme in TopologyScheme::ALL {
                let topo = scheme.build(&net);
                let mut leaves = topo.leaves();
                leaves.sort_unstable();
                assert_eq!(leaves, (0..23).collect::<Vec<_>>(), "{scheme} seed {seed}");
            }
        }
    }

    #[test]
    fn single_sink_topology() {
        let net = random_net(1, 1);
        for scheme in TopologyScheme::ALL {
            assert_eq!(scheme.build(&net), Topology::sink(0));
        }
    }

    #[test]
    fn greedy_dist_merges_closest_pair_first() {
        // Two tight pairs far apart: each pair must be merged internally
        // before the cross merge.
        let net = ClockNet::new(
            Point::ORIGIN,
            vec![
                Sink::new(Point::new(0.0, 0.0), 1.0),
                Sink::new(Point::new(1.0, 0.0), 1.0),
                Sink::new(Point::new(100.0, 0.0), 1.0),
                Sink::new(Point::new(101.0, 0.0), 1.0),
            ],
        );
        let topo = greedy_dist(&net);
        let Some(&TopoNode::Merge { left, .. }) = topo.nodes().last() else {
            panic!("expected a merge at the root");
        };
        // Postorder: the left subtree is nodes `0..=left`, its sinks the
        // leading `left / 2 + 1` leaves.
        let leaves = topo.leaves();
        let (la, lb) = leaves.split_at(left / 2 + 1);
        let (mut la, mut lb) = (la.to_vec(), lb.to_vec());
        la.sort_unstable();
        lb.sort_unstable();
        let (la, lb) = if la[0] == 0 { (la, lb) } else { (lb, la) };
        assert_eq!(la, vec![0, 1]);
        assert_eq!(lb, vec![2, 3]);
    }

    #[test]
    fn bi_partition_is_balanced() {
        let net = random_net(2, 32);
        let topo = bi_partition(&net);
        assert_eq!(
            topo.depth(),
            5,
            "median splits give a perfectly balanced tree"
        );
    }

    #[test]
    fn bi_cluster_depth_is_reasonable() {
        let net = random_net(3, 32);
        let topo = bi_cluster(&net);
        // 2-means trees are near-balanced on uniform data.
        assert!(topo.depth() <= 12, "depth {}", topo.depth());
    }

    #[test]
    fn greedy_merge_on_collinear_points() {
        let net = ClockNet::new(
            Point::ORIGIN,
            (0..6)
                .map(|i| Sink::new(Point::new(i as f64 * 10.0, 0.0), 1.0))
                .collect(),
        );
        let topo = greedy_merge(&net);
        assert_eq!(topo.len(), 6);
    }

    #[test]
    fn display_names_match_paper() {
        assert_eq!(TopologyScheme::GreedyDist.to_string(), "GreedyDist");
        assert_eq!(TopologyScheme::GreedyMerge.to_string(), "GreedyMerge");
        assert_eq!(TopologyScheme::BiPartition.to_string(), "BiPartition");
        assert_eq!(TopologyScheme::BiCluster.to_string(), "BiCluster");
    }

    #[test]
    #[should_panic(expected = "sinkless")]
    fn empty_net_rejected() {
        let net = ClockNet::new(Point::ORIGIN, vec![]);
        let _ = greedy_dist(&net);
    }

    /// The best pair sits in the last vector slot: the case the removed
    /// index-fixup branch claimed to handle. Since the scan guarantees
    /// `bi < bj`, `swap_remove(bj)` never relocates slot `bi` and the
    /// merge comes out right without any fixup.
    #[test]
    fn last_element_merge_is_handled_without_index_fixup() {
        let net = ClockNet::new(
            Point::ORIGIN,
            vec![
                Sink::new(Point::new(0.0, 0.0), 1.0),
                Sink::new(Point::new(100.0, 0.0), 1.0),
                Sink::new(Point::new(101.0, 0.0), 1.0), // best pair = slots (1, 2)
            ],
        );
        let expect = Topology::merge(
            Topology::sink(0),
            Topology::merge(Topology::sink(1), Topology::sink(2)),
        );
        assert_eq!(greedy_dist_naive(&net), expect);
        assert_eq!(greedy_merge_naive(&net), expect);
        assert_eq!(greedy_dist(&net), expect);
        assert_eq!(greedy_merge(&net), expect);
    }

    fn collinear_net(n: usize) -> ClockNet {
        ClockNet::new(
            Point::ORIGIN,
            (0..n)
                .map(|i| Sink::new(Point::new(i as f64 * 2.0, 0.0), 1.0))
                .collect(),
        )
    }

    fn coincident_net(n: usize) -> ClockNet {
        ClockNet::new(
            Point::ORIGIN,
            (0..n)
                .map(|_| Sink::new(Point::new(5.0, -3.0), 1.0))
                .collect(),
        )
    }

    /// Clustered-then-collinear: tight pairs along a line, the shape that
    /// drives greedy merge orders toward deep chains.
    fn paired_line_net(n: usize) -> ClockNet {
        ClockNet::new(
            Point::ORIGIN,
            (0..n)
                .map(|i| {
                    let base = (i / 2) as f64 * 50.0;
                    Sink::new(Point::new(base + (i % 2) as f64, 0.0), 1.0)
                })
                .collect(),
        )
    }

    /// Equivalence suite: the engine-backed schemes must be *bit-identical*
    /// to the brute-force oracle — same topology structure, which (since
    /// both share the exact cost/merge code and selection key) implies the
    /// same merge sequence and the same floating-point states throughout.
    ///
    /// The brute-force oracle is O(n³), so debug runs use reduced sizes;
    /// release runs cover n up to 2000 (`cargo test --release -p
    /// sllt-route`).
    #[test]
    fn accelerated_greedy_matches_naive_bit_for_bit() {
        let sizes: &[usize] = if cfg!(debug_assertions) {
            &[1, 2, 3, 33, 64, 150]
        } else {
            &[1, 2, 3, 33, 150, 500, 2000]
        };
        for &n in sizes {
            for seed in 0..3 {
                let net = random_net(seed, n);
                assert_eq!(
                    greedy_dist(&net),
                    greedy_dist_naive(&net),
                    "greedy_dist random n {n} seed {seed}"
                );
                assert_eq!(
                    greedy_merge(&net),
                    greedy_merge_naive(&net),
                    "greedy_merge random n {n} seed {seed}"
                );
            }
        }
    }

    /// The engine-backed path must account for its work: every merge
    /// pops the pair it commits, and heap traffic/examinations are
    /// visible once a telemetry scope is installed.
    #[test]
    fn accelerated_greedy_emits_engine_counters() {
        let net = random_net(7, 200);
        let registry = sllt_obs::Registry::new();
        {
            let _scope = registry.install("test");
            let _ = greedy_dist(&net);
        }
        let m = registry.snapshot().metrics;
        assert_eq!(m.counter("route.nnpair.calls"), 1);
        assert_eq!(m.counter("route.nnpair.merges"), 199);
        assert!(m.counter("route.nnpair.heap_push") >= 199);
        assert!(m.counter("route.nnpair.heap_pop") >= 199);
        assert!(m.counter("route.nnpair.candidates_examined") > 0);
        // Disabled scope: the same run must record nothing.
        let silent = sllt_obs::Registry::new();
        let _ = greedy_dist(&net);
        assert_eq!(silent.snapshot().metrics.counter("route.nnpair.calls"), 0);
    }

    #[test]
    fn accelerated_greedy_matches_naive_on_degenerate_inputs() {
        let n = if cfg!(debug_assertions) { 120 } else { 600 };
        for net in [collinear_net(n), coincident_net(n), paired_line_net(n)] {
            assert_eq!(greedy_dist(&net), greedy_dist_naive(&net));
            assert_eq!(greedy_merge(&net), greedy_merge_naive(&net));
        }
        // Single sink short-circuits every path identically.
        let one = collinear_net(1);
        assert_eq!(greedy_dist(&one), Topology::sink(0));
        assert_eq!(greedy_merge(&one), Topology::sink(0));
    }

    /// Acceptance: 50k-sink random nets complete in well under 10 s per
    /// scheme in release mode. Debug builds only check a smaller size (the
    /// engine itself is identical); timings are recorded in EXPERIMENTS.md.
    #[test]
    fn greedy_schemes_scale_to_50k_sinks() {
        let n = if cfg!(debug_assertions) {
            5_000
        } else {
            50_000
        };
        let net = random_net(99, n);
        let t0 = std::time::Instant::now();
        let td = greedy_dist(&net);
        let dist_elapsed = t0.elapsed();
        assert_eq!(td.len(), n);
        let t1 = std::time::Instant::now();
        let tm = greedy_merge(&net);
        let merge_elapsed = t1.elapsed();
        assert_eq!(tm.len(), n);
        if !cfg!(debug_assertions) {
            assert!(
                dist_elapsed.as_secs_f64() < 10.0,
                "greedy_dist 50k took {dist_elapsed:?}"
            );
            assert!(
                merge_elapsed.as_secs_f64() < 10.0,
                "greedy_merge 50k took {merge_elapsed:?}"
            );
        }
    }
}
