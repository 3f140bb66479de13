//! Level partitioning — cluster-count estimation, balanced K-means
//! restarts, and SA boundary refinement (paper §3.2).

use crate::error::CtsError;
use crate::fault::FaultStage;
use crate::flow::{HierarchicalCts, RunContext};
use sllt_geom::Point;
use sllt_partition::sa;

/// The chosen partition of one level's nodes.
#[derive(Debug)]
pub(crate) struct LevelPartition {
    /// Number of clusters (realized; may exceed the initial estimate).
    pub k: usize,
    /// Cluster index per node.
    pub assignment: Vec<usize>,
}

/// Estimates the cluster count and partitions one level.
///
/// Cluster count is fanout-driven, bumped when capacitance or wirelength
/// binds. Wire is estimated with the classic Steiner scaling
/// WL ≈ 0.8·√(n·A); splitting into k clusters divides it (and the pin
/// cap) by roughly k.
pub(crate) fn partition_level(
    cts: &HierarchicalCts,
    ctx: &RunContext<'_>,
    positions: &[Point],
    caps: &[f64],
    level: usize,
    attempt: usize,
) -> Result<LevelPartition, CtsError> {
    ctx.faults
        .check(FaultStage::Partition, level, None, attempt, &ctx.cancel)?;
    // The stages' stop callbacks run on partition workers: share just
    // the (Sync) token.
    let cancel = &ctx.cancel;
    let cons = &cts.constraints;
    let n = positions.len();
    let by_fanout = n.div_ceil(cons.max_fanout);
    let total_pin_cap: f64 = caps.iter().sum();
    let area = sllt_geom::Rect::bounding(positions).map_or(0.0, |r| r.area());
    let est_wl_total = 0.8 * (n as f64 * area).sqrt();
    let by_cap =
        ((total_pin_cap + cts.tech.wire_cap(est_wl_total)) * 1.2 / cons.max_cap_ff).ceil() as usize;
    let by_wl = (est_wl_total * 1.2 / cons.max_wl_um).ceil() as usize;
    // Each level must shrink the node count (a singleton cluster just
    // wraps a node in another buffer): cap k at n/2. The top trunk nets
    // this creates may exceed the per-net wirelength budget on large
    // dies — unavoidable for any tree that has to cross the die — and
    // the critical-wirelength repeater pass restores their electrical
    // health.
    let k = by_fanout.max(by_cap).max(by_wl).max(1).min((n / 2).max(1));

    // Large levels use median-bisection cells with per-cell exact
    // (min-cost-flow) assignment, fanned out across the flow's worker
    // pool — per-cell seed streams are anchored to cell content, so the
    // partition is bit-identical at any worker count. Smaller levels
    // pick among K-means restarts with the paper's
    // latency/capacitance-adaptive cost `p·σ(Cap) + q·σ(T)` (§3.2),
    // whose weights shift from capacitance balance at the bottom toward
    // delay balance at the top. The realized cluster count may exceed
    // the estimate.
    // The restart path's exact assignment costs ~O(n^2.7) per solve
    // (10 ms at 300 points, ~700 ms at 1400), so levels past a few
    // hundred nodes pay seconds per restart; the cell path bounds every
    // solve at `max_cell` points and stays near-linear.
    let part = if n > 600 {
        // Cell size bounds the min-cost-flow's quadratic blowup: at ~300
        // points a cell assigns in ~10 ms where 1200-point cells cost
        // ~450 ms each, and total partition time stays near-linear in
        // the sink count. Cells must still hold one full cluster.
        let max_cell = 300.max(cons.max_fanout);
        sllt_partition::balanced_kmeans_grid_sharded(
            positions,
            k,
            cons.max_fanout,
            max_cell,
            cts.seed ^ level as u64,
            cts.effective_workers(usize::MAX),
            &|| cancel.poll(),
        )
        .ok_or(CtsError::Cancelled)?
    } else {
        if cts.partition_restarts == 0 {
            return Err(CtsError::NoPartitionRestarts);
        }
        // Rough level count for the weight schedule.
        let est_levels = ((n as f64).ln() / (cons.max_fanout as f64).ln()).ceil() as usize + 1;
        let (p, q) = sllt_partition::cost::level_weights(level, est_levels.max(2));
        // Restarts fan out across the worker pool with per-restart seed
        // streams; the serial strict-`<` best-of keeps `min_by`'s
        // first-minimum-wins tie-break, so the chosen partition is
        // bit-identical at any worker count (and to the old serial
        // loop). Cancellation is polled between restarts; a stopped
        // search discards every candidate.
        sllt_partition::balanced_kmeans_restarts_scored(
            positions,
            k,
            cons.max_fanout,
            cts.seed ^ level as u64,
            cts.partition_restarts,
            cts.effective_workers(cts.partition_restarts),
            &|cand| adaptive_cluster_cost(cts, positions, caps, cand, p, q),
            &|| cancel.poll(),
        )
        .ok_or(CtsError::Cancelled)?
    };
    let k = part.centers.len();
    let mut assignment = part.assignment;
    if cts.use_sa && k > 1 {
        let pc = sa::PartitionConstraints {
            max_cap_ff: cons.max_cap_ff,
            max_fanout: cons.max_fanout,
            max_wl_um: cons.max_wl_um,
            unit_wire_cap: cts.tech.unit_cap_ff,
        };
        // Independent chains explore from the same start; the serial
        // best-of keeps the result bit-identical at any worker count.
        // Cancellation is polled once per SA proposal; a stopped run
        // leaves `assignment` untouched and the whole level attempt is
        // discarded as Cancelled.
        sa::refine_chains(
            positions,
            caps,
            &mut assignment,
            k,
            &pc,
            &sa::SaConfig {
                seed: cts.seed ^ (level as u64) << 8,
                ..Default::default()
            },
            cts.sa_chains.max(1),
            cts.effective_workers(cts.sa_chains.max(1)),
            &|| cancel.poll(),
        )
        .ok_or(CtsError::Cancelled)?;
    }
    Ok(LevelPartition { k, assignment })
}

/// The paper's adaptive clustering cost `p·σ(Cap) + q·σ(T)` over a
/// candidate partition, with per-cluster net capacitance (pins + HPWL
/// wire) and a bounding-box delay proxy.
fn adaptive_cluster_cost(
    cts: &HierarchicalCts,
    positions: &[Point],
    caps: &[f64],
    part: &sllt_partition::Partition,
    p: f64,
    q: f64,
) -> f64 {
    let k = part.centers.len();
    let mut cluster_caps = Vec::with_capacity(k);
    let mut cluster_delays = Vec::with_capacity(k);
    // Single pass over the assignment; the per-cluster `members(c)`
    // accessor would rescan it k times.
    for members in part.members_all() {
        if members.is_empty() {
            continue;
        }
        let pts: Vec<Point> = members.iter().map(|&i| positions[i]).collect();
        let pin_cap: f64 = members.iter().map(|&i| caps[i]).sum();
        let hpwl = sllt_geom::Rect::bounding(&pts).map_or(0.0, |r| r.hpwl());
        let net_cap = pin_cap + cts.tech.wire_cap(hpwl);
        cluster_caps.push(net_cap);
        // Delay proxy: Elmore over half the cluster span at its load.
        cluster_delays.push(cts.tech.wire_delay(hpwl / 2.0, net_cap));
    }
    sllt_partition::cluster_cost(&cluster_caps, &cluster_delays, p, q)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn grid(n: usize) -> (Vec<Point>, Vec<f64>) {
        let side = (n as f64).sqrt().ceil() as usize;
        let pts = (0..n)
            .map(|i| Point::new((i % side) as f64 * 10.0, (i / side) as f64 * 10.0))
            .collect();
        (pts, vec![1.0; n])
    }

    #[test]
    fn zero_restarts_is_a_typed_error() {
        let cts = HierarchicalCts {
            partition_restarts: 0,
            ..Default::default()
        };
        let (pts, caps) = grid(40);
        let err = partition_level(&cts, &RunContext::default(), &pts, &caps, 0, 0).unwrap_err();
        assert_eq!(err, CtsError::NoPartitionRestarts);
    }

    #[test]
    fn partition_covers_every_node() {
        let cts = HierarchicalCts::default();
        let (pts, caps) = grid(120);
        let part = partition_level(&cts, &RunContext::default(), &pts, &caps, 0, 0).unwrap();
        assert_eq!(part.assignment.len(), 120);
        assert!(part.k >= 2, "120 nodes must split");
        assert!(part.assignment.iter().all(|&a| a < part.k));
    }

    #[test]
    fn restart_count_changes_the_search_not_the_contract() {
        let (pts, caps) = grid(90);
        for restarts in [1usize, 4, 8] {
            let cts = HierarchicalCts {
                partition_restarts: restarts,
                ..Default::default()
            };
            let part = partition_level(&cts, &RunContext::default(), &pts, &caps, 0, 0).unwrap();
            assert_eq!(part.assignment.len(), 90);
        }
    }
}
