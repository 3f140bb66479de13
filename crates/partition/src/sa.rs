//! Simulated-annealing partition refinement (paper §3.2, Fig. 4).
//!
//! After balanced K-means, some clusters may still violate capacitance or
//! wirelength constraints. The SA pass repairs them with the paper's
//! boundary-move neighbourhood:
//!
//! 1. pick a cluster with large cost (violations, in capacitance units),
//! 2. collect its *convex-hull* instances — moving an interior instance
//!    would make the cluster nets cross,
//! 3. for each boundary instance, the nearest foreign cluster is the
//!    move target,
//! 4. accept or reject by the annealing criterion on the global cost
//!    delta.
//!
//! Costs follow the paper's unification: every violation is expressed in
//! fF (wirelength via the unit wire capacitance, fanout via the mean pin
//! capacitance), so "all constraint costs have equivalent numerical
//! ranges".
//!
//! The proposal loop is allocation-free per move: cluster costs are
//! evaluated by streaming over member indices (no collected point
//! vectors), the hull runs on reused scratch buffers, and accepted
//! moves mutate the member lists in place. [`refine_chains`] runs
//! several independent chains (per-chain SplitMix64 seed streams)
//! through [`sllt_obs::fan_out`] with deterministic best-of selection.

use crate::cost::weighted_pick;
use sllt_geom::{HullScratch, Point};
use sllt_rng::prelude::*;

/// Per-cluster design constraints (paper Table 5 for the defaults used in
/// the evaluation).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PartitionConstraints {
    /// Maximum net capacitance, fF.
    pub max_cap_ff: f64,
    /// Maximum sinks per cluster.
    pub max_fanout: usize,
    /// Maximum net wirelength, µm.
    pub max_wl_um: f64,
    /// Wire capacitance per µm, fF — unifies wirelength violations into
    /// capacitance units.
    pub unit_wire_cap: f64,
}

/// Annealing schedule.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SaConfig {
    /// Number of proposed moves.
    pub iterations: usize,
    /// Initial temperature (in fF of cost).
    pub t0: f64,
    /// Geometric cooling factor per iteration, in `(0, 1)`.
    pub cooling: f64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for SaConfig {
    fn default() -> Self {
        SaConfig {
            iterations: 400,
            t0: 20.0,
            cooling: 0.99,
            seed: 0xC10C4,
        }
    }
}

/// Violation cost over a streamed member set — the allocation-free core
/// behind [`violation_cost`]. The bounding box accumulates inline
/// instead of collecting points and calling `Rect::bounding`.
fn violation_cost_iter(
    points: &[Point],
    caps: &[f64],
    members: impl Iterator<Item = usize>,
    cons: &PartitionConstraints,
) -> f64 {
    let mut count = 0usize;
    let mut total_cap = 0.0f64;
    let (mut x0, mut y0) = (f64::INFINITY, f64::INFINITY);
    let (mut x1, mut y1) = (f64::NEG_INFINITY, f64::NEG_INFINITY);
    for i in members {
        count += 1;
        total_cap += caps[i];
        let p = points[i];
        x0 = x0.min(p.x);
        x1 = x1.max(p.x);
        y0 = y0.min(p.y);
        y1 = y1.max(p.y);
    }
    if count == 0 {
        return 0.0;
    }
    let mean_cap = total_cap / count as f64;
    // Half-perimeter of the member bounding box, as Rect::hpwl.
    let wl = (x1 - x0) + (y1 - y0);
    let wire_cap = cons.unit_wire_cap * wl;

    let cap_excess = (total_cap + wire_cap - cons.max_cap_ff).max(0.0);
    let wl_excess = cons.unit_wire_cap * (wl - cons.max_wl_um).max(0.0);
    let fanout_excess = count.saturating_sub(cons.max_fanout) as f64 * mean_cap;
    cap_excess + wl_excess + fanout_excess
}

/// Violation cost of one cluster, in fF. Zero when all constraints hold.
///
/// Wirelength is estimated by the cluster bounding box half-perimeter —
/// the quick routing assessment the flow uses inside search loops.
pub fn violation_cost(
    points: &[Point],
    caps: &[f64],
    members: &[usize],
    cons: &PartitionConstraints,
) -> f64 {
    violation_cost_iter(points, caps, members.iter().copied(), cons)
}

/// Total violation cost over all clusters, fF. Single pass over the
/// assignment to build member lists, then one evaluation per cluster.
pub fn total_cost(
    points: &[Point],
    caps: &[f64],
    assignment: &[usize],
    k: usize,
    cons: &PartitionConstraints,
) -> f64 {
    let mut members: Vec<Vec<usize>> = vec![Vec::new(); k];
    for (i, &a) in assignment.iter().enumerate() {
        members[a].push(i);
    }
    members
        .iter()
        .map(|m| violation_cost(points, caps, m, cons))
        .sum()
}

/// Refines `assignment` in place with boundary moves; returns the final
/// total violation cost.
///
/// # Panics
///
/// Panics when slice lengths disagree or an assignment references a
/// cluster `>= k`.
pub fn refine(
    points: &[Point],
    caps: &[f64],
    assignment: &mut [usize],
    k: usize,
    cons: &PartitionConstraints,
    cfg: &SaConfig,
) -> f64 {
    refine_with_stop(points, caps, assignment, k, cons, cfg, &mut || false)
        .expect("never-stop refinement always completes")
}

/// [`refine`] with a cooperative stop hook, polled once per proposed
/// move. When `stop` returns `true` the sweep abandons the annealing
/// immediately and returns `None`; `assignment` is then left in an
/// unspecified intermediate state and must be discarded by the caller.
/// A `None`-free run is bit-identical to [`refine`] with the same
/// config.
///
/// # Panics
///
/// Panics when slice lengths disagree or an assignment references a
/// cluster `>= k`.
#[allow(clippy::too_many_arguments)]
pub fn refine_with_stop(
    points: &[Point],
    caps: &[f64],
    assignment: &mut [usize],
    k: usize,
    cons: &PartitionConstraints,
    cfg: &SaConfig,
    stop: &mut dyn FnMut() -> bool,
) -> Option<f64> {
    assert_eq!(points.len(), caps.len());
    assert_eq!(points.len(), assignment.len());
    assert!(assignment.iter().all(|&a| a < k), "assignment out of range");
    let mut rng = StdRng::seed_from_u64(cfg.seed);

    let mut members: Vec<Vec<usize>> = vec![Vec::new(); k];
    for (i, &a) in assignment.iter().enumerate() {
        members[a].push(i);
    }
    let mut cluster_cost: Vec<f64> = (0..k)
        .map(|c| violation_cost(points, caps, &members[c], cons))
        .collect();
    let mut total: f64 = cluster_cost.iter().sum();
    let mut temp = cfg.t0;
    // Annealing may wander uphill; remember the best state seen.
    let mut best_total = total;
    let mut best_assignment: Vec<usize> = assignment.to_vec();
    let observing = sllt_obs::enabled();
    let mut proposals = 0u64;
    let mut accepts = 0u64;
    let mut temp_trace = sllt_obs::Histogram::new();
    // Scratch reused by every proposal: the annealer allocates nothing
    // per move after warm-up.
    let mut hull_scratch = HullScratch::new();
    let mut hull_pts: Vec<Point> = Vec::new();
    let mut hull: Vec<usize> = Vec::new();

    for _ in 0..cfg.iterations {
        if stop() {
            return None;
        }
        if total <= 1e-12 {
            break; // all constraints met
        }
        temp *= cfg.cooling;
        // (1) pick a violating cluster, biased to the most expensive —
        // the paper's greedy observation: net costs are independent, so
        // fixing in descending cost order is effective.
        let src = match pick_weighted(&cluster_cost, &mut rng) {
            Some(c) => c,
            None => break,
        };
        if members[src].len() <= 1 {
            continue; // moving the last member just relocates the violation
        }
        // (2) boundary instances of the source cluster.
        hull_pts.clear();
        hull_pts.extend(members[src].iter().map(|&i| points[i]));
        hull_scratch.compute(&hull_pts, &mut hull);
        if hull.is_empty() {
            continue;
        }
        let moved_local = hull[rng.random_range(0..hull.len())];
        let moved = members[src][moved_local];
        // (3) nearest foreign cluster by nearest foreign instance.
        let mut dst = usize::MAX;
        let mut best = f64::INFINITY;
        for (j, &a) in assignment.iter().enumerate() {
            if a == src {
                continue;
            }
            let d = points[j].dist(points[moved]);
            if d < best {
                best = d;
                dst = a;
            }
        }
        if dst == usize::MAX {
            break; // single cluster: no move possible
        }
        // (4) evaluate the move by streaming the hypothetical member
        // sets — no cloned vectors.
        let new_src = violation_cost_iter(
            points,
            caps,
            members[src].iter().copied().filter(|&i| i != moved),
            cons,
        );
        let new_dst = violation_cost_iter(
            points,
            caps,
            members[dst].iter().copied().chain(std::iter::once(moved)),
            cons,
        );
        let delta = new_src + new_dst - cluster_cost[src] - cluster_cost[dst];
        let accept = delta < 0.0 || (temp > 1e-12 && rng.random::<f64>() < (-delta / temp).exp());
        if observing {
            proposals += 1;
            // Trace the temperature in milli-fF so the log₂ buckets
            // resolve the cooling tail below 1 fF.
            temp_trace.record((temp * 1e3).max(0.0) as u64);
        }
        if accept {
            accepts += 1;
            assignment[moved] = dst;
            members[src].retain(|&i| i != moved);
            members[dst].push(moved);
            total += new_src + new_dst - cluster_cost[src] - cluster_cost[dst];
            cluster_cost[src] = new_src;
            cluster_cost[dst] = new_dst;
            if total < best_total {
                best_total = total;
                best_assignment.copy_from_slice(assignment);
            }
        }
    }
    assignment.copy_from_slice(&best_assignment);
    if observing {
        sllt_obs::count("partition.sa.calls", 1);
        sllt_obs::count("partition.sa.proposals", proposals);
        sllt_obs::count("partition.sa.accepts", accepts);
        sllt_obs::gauge("partition.sa.final_temp_ff", temp);
        sllt_obs::gauge("partition.sa.final_cost_ff", best_total.max(0.0));
        sllt_obs::record_hist("partition.sa.temperature_mff", &temp_trace);
    }
    Some(best_total.max(0.0))
}

/// Runs `chains` independent annealing chains from the same starting
/// assignment, fanned out over `workers` ([`sllt_obs::fan_out`]), and
/// keeps the best final state.
///
/// Chain `c` anneals with seed `cfg.seed + c·0x9E37` (wrapping), which
/// the RNG layer expands through SplitMix64 into a decorrelated stream
/// per chain; chain 0 uses `cfg.seed` verbatim, so a single chain
/// reproduces [`refine_with_stop`] exactly. The best-of selection is a
/// serial scan in chain order keeping the strictly lowest final cost
/// (ties break toward the lowest chain index), so the winning
/// assignment is bit-identical at any worker count.
///
/// Returns the winning final cost and writes the winning assignment in
/// place; `None` when `stop` fired (the assignment is then left
/// untouched).
///
/// # Panics
///
/// As [`refine_with_stop`]; additionally panics when `chains` is zero.
#[allow(clippy::too_many_arguments)]
pub fn refine_chains(
    points: &[Point],
    caps: &[f64],
    assignment: &mut [usize],
    k: usize,
    cons: &PartitionConstraints,
    cfg: &SaConfig,
    chains: usize,
    workers: usize,
    stop: &(dyn Fn() -> bool + Sync),
) -> Option<f64> {
    assert!(chains > 0, "at least one chain");
    let finals = sllt_obs::fan_out("sa-chain", vec![(); chains], workers, stop, |c, ()| {
        let chain_cfg = SaConfig {
            seed: cfg.seed.wrapping_add(c as u64 * 0x9E37),
            ..*cfg
        };
        let mut local = assignment.to_vec();
        let cost = refine_with_stop(points, caps, &mut local, k, cons, &chain_cfg, &mut || {
            stop()
        })?;
        Some((cost, local))
    });
    let (cost, state) = crate::best_of(finals.into_iter().map(Option::flatten))?;
    assignment.copy_from_slice(&state);
    Some(cost)
}

/// Samples an index with probability proportional to its (non-negative)
/// weight; `None` when all weights are ~0. Zero-weight entries are
/// never selected, even when floating-point residue leaves the draw
/// unconsumed after the scan (see [`weighted_pick`]).
fn pick_weighted(weights: &[f64], rng: &mut StdRng) -> Option<usize> {
    let total: f64 = weights.iter().sum();
    if total <= 1e-12 {
        return None;
    }
    let pick = rng.random_range(0.0..total);
    weighted_pick(weights, pick)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cons() -> PartitionConstraints {
        PartitionConstraints {
            max_cap_ff: 50.0,
            max_fanout: 8,
            max_wl_um: 100.0,
            unit_wire_cap: 0.16,
        }
    }

    #[test]
    fn no_violation_costs_zero() {
        let points: Vec<Point> = (0..4).map(|i| Point::new(i as f64, 0.0)).collect();
        let caps = vec![1.0; 4];
        let c = violation_cost(&points, &caps, &[0, 1, 2, 3], &cons());
        assert_eq!(c, 0.0);
        assert_eq!(violation_cost(&points, &caps, &[], &cons()), 0.0);
    }

    #[test]
    fn each_violation_type_is_detected() {
        let c = cons();
        // Capacitance violation: 10 fat pins.
        let pts: Vec<Point> = (0..10).map(|i| Point::new(i as f64 * 0.1, 0.0)).collect();
        let fat = vec![10.0; 10];
        let members: Vec<usize> = (0..10).collect();
        assert!(violation_cost(&pts, &fat, &members[..5], &c) > 0.0);
        // Fanout violation: 10 > 8 members.
        let thin = vec![0.1; 10];
        assert!(violation_cost(&pts, &thin, &members, &c) > 0.0);
        // Wirelength violation: two far-apart pins.
        let far = vec![Point::ORIGIN, Point::new(200.0, 0.0)];
        assert!(violation_cost(&far, &[0.1, 0.1], &[0, 1], &c) > 0.0);
    }

    /// The streamed cost must equal the collected-slice evaluation on
    /// hypothetical skip/extra member sets — the allocation-free move
    /// evaluation is a pure refactor.
    #[test]
    fn streamed_cost_matches_slice_cost() {
        let mut rng = StdRng::seed_from_u64(9);
        let points: Vec<Point> = (0..20)
            .map(|_| Point::new(rng.random_range(0.0..300.0), rng.random_range(0.0..300.0)))
            .collect();
        let caps: Vec<f64> = (0..20).map(|_| rng.random_range(0.5..20.0)).collect();
        let members: Vec<usize> = vec![2, 5, 7, 11, 13, 19];
        let c = cons();
        // Skip one member.
        let skipped: Vec<usize> = members.iter().copied().filter(|&i| i != 7).collect();
        assert_eq!(
            violation_cost_iter(
                &points,
                &caps,
                members.iter().copied().filter(|&i| i != 7),
                &c
            ),
            violation_cost(&points, &caps, &skipped, &c)
        );
        // Add one member.
        let mut extended = members.clone();
        extended.push(4);
        assert_eq!(
            violation_cost_iter(
                &points,
                &caps,
                members.iter().copied().chain(std::iter::once(4)),
                &c
            ),
            violation_cost(&points, &caps, &extended, &c)
        );
    }

    #[test]
    fn refine_fixes_an_overloaded_cluster() {
        // 12 co-located heavy pins in cluster 0, an empty-ish cluster 1
        // nearby: SA must shed load until constraints hold.
        let mut points: Vec<Point> = (0..12)
            .map(|i| Point::new((i % 4) as f64, (i / 4) as f64))
            .collect();
        points.push(Point::new(8.0, 0.0)); // lone member of cluster 1
        let caps = vec![6.0; 13]; // 12·6 = 72 > 50 max
        let mut assignment = vec![0usize; 12];
        assignment.push(1);
        let before = total_cost(&points, &caps, &assignment, 2, &cons());
        assert!(before > 0.0);
        let after = refine(
            &points,
            &caps,
            &mut assignment,
            2,
            &cons(),
            &SaConfig {
                iterations: 2000,
                ..SaConfig::default()
            },
        );
        assert!(
            after < before,
            "SA must reduce violations: {before} -> {after}"
        );
        let recomputed = total_cost(&points, &caps, &assignment, 2, &cons());
        assert!(
            (after - recomputed).abs() < 1e-6,
            "incremental cost drifted"
        );
    }

    #[test]
    fn refine_leaves_legal_partitions_alone() {
        let points: Vec<Point> = (0..8).map(|i| Point::new(i as f64, 0.0)).collect();
        let caps = vec![1.0; 8];
        let mut assignment: Vec<usize> = (0..8).map(|i| i / 4).collect();
        let snapshot = assignment.clone();
        let cost = refine(
            &points,
            &caps,
            &mut assignment,
            2,
            &cons(),
            &SaConfig::default(),
        );
        assert_eq!(cost, 0.0);
        assert_eq!(assignment, snapshot, "zero-cost partition must not change");
    }

    #[test]
    fn single_cluster_cannot_move() {
        let points: Vec<Point> = (0..20).map(|i| Point::new(i as f64 * 20.0, 0.0)).collect();
        let caps = vec![10.0; 20];
        let mut assignment = vec![0usize; 20];
        // k = 1: violations exist but there is nowhere to go.
        let cost = refine(
            &points,
            &caps,
            &mut assignment,
            1,
            &cons(),
            &SaConfig::default(),
        );
        assert!(cost > 0.0);
        assert!(assignment.iter().all(|&a| a == 0));
    }

    #[test]
    fn stop_hook_abandons_the_sweep_promptly() {
        let mut points: Vec<Point> = (0..12)
            .map(|i| Point::new((i % 4) as f64, (i / 4) as f64))
            .collect();
        points.push(Point::new(8.0, 0.0));
        let caps = vec![6.0; 13];
        let mut assignment = vec![0usize; 12];
        assignment.push(1);
        // Fire on the first poll: the sweep must stop before any move.
        let mut polls = 0u64;
        let out = refine_with_stop(
            &points,
            &caps,
            &mut assignment,
            2,
            &cons(),
            &SaConfig::default(),
            &mut || {
                polls += 1;
                true
            },
        );
        assert!(out.is_none());
        assert_eq!(polls, 1, "the sweep must stop at the very next poll");
        // A never-stop run through the hook matches plain refine exactly.
        let mut a1 = vec![0usize; 12];
        a1.push(1);
        let mut a2 = a1.clone();
        let c1 = refine(&points, &caps, &mut a1, 2, &cons(), &SaConfig::default());
        let c2 = refine_with_stop(
            &points,
            &caps,
            &mut a2,
            2,
            &cons(),
            &SaConfig::default(),
            &mut || false,
        )
        .unwrap();
        assert_eq!(c1, c2);
        assert_eq!(a1, a2);
    }

    /// Chain parallelism is an execution strategy: the winning
    /// assignment and cost must be bit-identical at every worker count,
    /// and a single chain must reproduce `refine_with_stop`.
    #[test]
    fn chains_bit_identical_at_any_worker_count() {
        let mut rng = StdRng::seed_from_u64(31);
        let points: Vec<Point> = (0..40)
            .map(|_| Point::new(rng.random_range(0.0..60.0), rng.random_range(0.0..60.0)))
            .collect();
        let caps: Vec<f64> = (0..40).map(|_| rng.random_range(2.0..9.0)).collect();
        let start: Vec<usize> = (0..40).map(|i| i % 3).collect();
        let cfg = SaConfig {
            iterations: 600,
            ..SaConfig::default()
        };

        let mut single = start.clone();
        let c_single =
            refine_with_stop(&points, &caps, &mut single, 3, &cons(), &cfg, &mut || false).unwrap();
        let mut one_chain = start.clone();
        let c_one = refine_chains(
            &points,
            &caps,
            &mut one_chain,
            3,
            &cons(),
            &cfg,
            1,
            1,
            &|| false,
        )
        .unwrap();
        assert_eq!(c_single, c_one, "one chain must reproduce the plain sweep");
        assert_eq!(single, one_chain);

        let mut reference: Option<(f64, Vec<usize>)> = None;
        for workers in [1usize, 2, 4] {
            let mut a = start.clone();
            let c = refine_chains(
                &points,
                &caps,
                &mut a,
                3,
                &cons(),
                &cfg,
                4,
                workers,
                &|| false,
            )
            .unwrap();
            match &reference {
                None => reference = Some((c, a)),
                Some((rc, ra)) => {
                    assert_eq!(*rc, c, "workers={workers}: cost diverged");
                    assert_eq!(*ra, &a[..], "workers={workers}: assignment diverged");
                }
            }
        }
        // More chains can only match or beat one chain.
        let (multi, _) = reference.unwrap();
        assert!(multi <= c_single + 1e-9);
    }

    #[test]
    fn chains_stop_discards() {
        let points: Vec<Point> = (0..10).map(|i| Point::new(i as f64 * 30.0, 0.0)).collect();
        let caps = vec![10.0; 10];
        let start: Vec<usize> = (0..10).map(|i| i % 2).collect();
        for workers in [1usize, 3] {
            let mut a = start.clone();
            let out = refine_chains(
                &points,
                &caps,
                &mut a,
                2,
                &cons(),
                &SaConfig::default(),
                3,
                workers,
                &|| true,
            );
            assert!(out.is_none(), "workers={workers}: stop must discard");
            assert_eq!(a, start, "stopped chains must leave the input untouched");
        }
    }

    #[test]
    #[cfg(feature = "proptest")]
    fn proptest_refine_never_worsens_at_zero_temperature() {
        use proptest::prelude::*;
        proptest!(|(seed in 0u64..50, n in 4usize..30)| {
            let mut rng = StdRng::seed_from_u64(seed);
            let points: Vec<Point> = (0..n)
                .map(|_| Point::new(rng.random_range(0.0..75.0), rng.random_range(0.0..75.0)))
                .collect();
            let caps: Vec<f64> = (0..n).map(|_| rng.random_range(0.5..12.0)).collect();
            let k = 3;
            let mut assignment: Vec<usize> = (0..n).map(|i| i % k).collect();
            let before = total_cost(&points, &caps, &assignment, k, &cons());
            let after = refine(
                &points,
                &caps,
                &mut assignment,
                k,
                &cons(),
                &SaConfig { iterations: 300, t0: 0.0, seed, ..SaConfig::default() },
            );
            // Greedy (T = 0) acceptance only takes improving moves.
            prop_assert!(after <= before + 1e-9);
        });
    }
}
