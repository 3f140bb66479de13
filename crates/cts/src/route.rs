//! Per-cluster routing — the parallel stage of each level.
//!
//! Every cluster routes independently (`route_cluster` needs only
//! `&HierarchicalCts`, the run's cancel token and fault plan, the
//! [`Nodes`] accessor and the cluster's member sources), so the stage
//! hands the clusters to [`sllt_obs::fan_out`]. Its contract
//! (`DESIGN.md` §4a, "Threading and determinism") returns results by
//! cluster index, so the output is bit-identical no matter how many
//! workers run or how they interleave.
//!
//! A routed tree leaves its worker as one `sllt_tree::codec` frame: the
//! flow holds every cluster in that form until assembly streams the
//! frames into the final tree (`DESIGN.md` §4d).

use crate::assemble::BuiltCluster;
use crate::cancel::CancelToken;
use crate::error::CtsError;
use crate::fault::{FaultPlan, FaultStage};
use crate::flow::{HierarchicalCts, RunContext, TopologyKind};
use crate::partition::LevelPartition;
use crate::report::FlowEvent;
use sllt_buffer::timing::propagate;
use sllt_core::cbs::{try_cbs_intervals, CbsConfig};
use sllt_design::Design;
use sllt_geom::{centroid, Point};
use sllt_obs::WorkBudget;
use sllt_route::{rsmt, try_dme_intervals, DelayModel, DmeOptions, TopologyScheme};
use sllt_timing::BufferLibrary;
use sllt_tree::codec::encode_tree;
use sllt_tree::{ClockNet, NodeKind, Sink};
use std::ops::Range;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;

/// One clock node as a level reads it: a design FF or a built cluster's
/// driver input, built by value on each read ([`Nodes::get`]).
#[derive(Debug, Clone, Copy)]
pub(crate) struct LevelNode {
    pub pos: Point,
    pub cap_ff: f64,
    /// Delay interval (fastest, slowest) already accumulated below this
    /// node, ps.
    pub interval_ps: (f64, f64),
}

/// Where a clock node comes from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum NodeSource {
    /// Index into the design's sink list.
    DesignSink(usize),
    /// Index into the flow's built-cluster arena.
    Cluster(usize),
}

/// The clock nodes entering one level: the design's sinks at level 0,
/// after that the clusters the level below appended to the arena, which
/// form a contiguous index range.
#[derive(Debug)]
pub(crate) enum Entering {
    /// Design sinks `0..n`.
    Sinks(usize),
    /// Arena clusters in this range.
    Clusters(Range<usize>),
}

impl Entering {
    /// Number of entering nodes.
    pub fn len(&self) -> usize {
        match self {
            Entering::Sinks(n) => *n,
            Entering::Clusters(r) => r.len(),
        }
    }

    /// The source of the level's `i`-th entering node.
    pub fn source(&self, i: usize) -> NodeSource {
        match self {
            Entering::Sinks(_) => NodeSource::DesignSink(i),
            Entering::Clusters(r) => NodeSource::Cluster(r.start + i),
        }
    }

    /// Whether `source` names one of the entering nodes.
    pub fn contains(&self, source: NodeSource) -> bool {
        match (self, source) {
            (Entering::Sinks(n), NodeSource::DesignSink(i)) => i < *n,
            (Entering::Clusters(r), NodeSource::Cluster(i)) => r.contains(&i),
            _ => false,
        }
    }
}

impl std::fmt::Display for Entering {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Entering::Sinks(n) => write!(f, "design sinks 0..{n}"),
            Entering::Clusters(r) => write!(f, "clusters {r:?}"),
        }
    }
}

/// The one accessor partition and route read clock nodes through, keyed
/// by [`NodeSource`]: design sinks from the design, clusters from the
/// built-cluster arena. No node list is stored.
#[derive(Clone, Copy)]
pub(crate) struct Nodes<'a> {
    pub design: &'a Design,
    pub lib: &'a BufferLibrary,
    pub clusters: &'a [BuiltCluster],
}

impl Nodes<'_> {
    /// A design sink is its pin with zero accumulated delay; a built
    /// cluster sits at its tree's source with the input cap of its top
    /// cell and the delay interval sizing gave it.
    pub fn get(&self, source: NodeSource) -> LevelNode {
        match source {
            NodeSource::DesignSink(i) => {
                let sink = &self.design.sinks[i];
                LevelNode {
                    pos: sink.pos,
                    cap_ff: sink.cap_ff,
                    interval_ps: (0.0, 0.0),
                }
            }
            NodeSource::Cluster(i) => {
                let c = &self.clusters[i];
                LevelNode {
                    pos: c.pos(),
                    cap_ff: c.input_cap_ff(self.lib),
                    interval_ps: c.interval_ps,
                }
            }
        }
    }
}

/// A routed cluster awaiting joint driver sizing.
#[derive(Debug)]
pub(crate) struct RoutedCluster {
    /// The routed tree as a `sllt_tree::codec` frame (depth-first
    /// preorder), rooted at the net tap; its sink indices refer to
    /// `members`.
    pub frame: Vec<u8>,
    /// Where each member came from, in the order the cluster net's sinks
    /// were listed.
    pub members: Vec<NodeSource>,
    pub load: f64,
    pub subtree_lo: f64,
    pub subtree_hi: f64,
    /// Routed wirelength of the tree, µm.
    pub wirelength_um: f64,
}

/// Groups the `entering` nodes by the partition and routes every
/// non-empty cluster. Results are returned in cluster-index order; on
/// error the failure of the lowest-indexed failing cluster is reported
/// (also independent of worker interleaving). A panic inside any
/// cluster's routing kernel is contained at cluster granularity
/// (`catch_unwind` around the job) and surfaces as
/// [`CtsError::ClusterPanicked`] — one bad cluster cannot take down the
/// run or poison its siblings.
#[allow(clippy::too_many_arguments)]
pub(crate) fn route_clusters(
    cts: &HierarchicalCts,
    ctx: &mut RunContext<'_>,
    nodes: Nodes<'_>,
    entering: &Entering,
    part: &LevelPartition,
    level: usize,
    attempt: usize,
    budget: &WorkBudget,
) -> Result<Vec<RoutedCluster>, CtsError> {
    // Single-pass bucketing of entering-node indices: a per-cluster scan
    // of the level is O(k·n), which at a million sinks (k ≈ 5·10⁴) costs
    // minutes of pure grouping. Buckets preserve level order within each
    // cluster; a job's index in the non-empty list is its cluster
    // identity.
    let mut buckets: Vec<Vec<u32>> = vec![Vec::new(); part.k];
    for (i, &a) in part.assignment.iter().enumerate() {
        buckets[a].push(i as u32);
    }
    buckets.retain(|members| !members.is_empty());

    // Within-level deciles, sent live: whichever completion pushes the
    // done-work counter (cluster members) past a tenth of the level
    // total takes the observer lock and sends every decile not yet sent
    // up to the one it crossed. `fetch_add` linearizes the crossings, so
    // each decile goes out exactly once, in order, and every field is a
    // pure function of (budget, k) — the stream is worker-count
    // independent.
    let total_members: u64 = buckets.iter().map(|m| m.len() as u64).sum();
    let done_members = AtomicU64::new(0);
    let deciles = Mutex::new((&mut *ctx.observer, 0u64));
    let report_progress = |members: u64| {
        let prev = done_members.fetch_add(members, Ordering::Relaxed);
        let crossed = ((prev + members) * 10 / total_members).min(10);
        if crossed > prev * 10 / total_members {
            let (observer, sent) = &mut *deciles.lock().expect("observers must not panic");
            while *sent < crossed {
                *sent += 1;
                observer.on_event(&FlowEvent::ClusterDecile {
                    level,
                    tenths: *sent as u32,
                    fraction: budget.fraction_at(budget.level_work() * *sent / 10),
                });
            }
        }
    };

    // Claims stop at a cancel or at the first failure. Claims go in
    // cluster order, so every cluster below a failed one was claimed
    // and finished: the lowest-indexed failure is always in its slot.
    let (cancel, faults) = (&ctx.cancel, &ctx.faults);
    let failed = AtomicBool::new(false);
    let stop = || failed.load(Ordering::Relaxed) || cancel.poll();
    let route = |cluster, indices: Vec<u32>| {
        let members = indices
            .iter()
            .map(|&i| entering.source(i as usize))
            .collect();
        let routed = catch_unwind(AssertUnwindSafe(|| {
            route_cluster(cts, cancel, faults, cluster, nodes, members, level, attempt)
        }))
        .unwrap_or(Err(CtsError::ClusterPanicked { level, cluster }));
        match &routed {
            Ok(rc) => report_progress(rc.members.len() as u64),
            Err(_) => failed.store(true, Ordering::Relaxed),
        }
        routed
    };
    let workers = cts.effective_workers();
    let slots = sllt_obs::fan_out("route-worker", buckets, workers, &stop, route);
    // Empty slots follow the lowest failure, which `collect` reports
    // first; with no failure, the cancel fired and the level is discarded.
    slots
        .into_iter()
        .map(|slot| slot.unwrap_or(Err(CtsError::Cancelled)))
        .collect()
}

/// Routes one cluster and computes its timing aggregates.
#[allow(clippy::too_many_arguments)]
fn route_cluster(
    cts: &HierarchicalCts,
    cancel: &CancelToken,
    faults: &FaultPlan,
    cluster: usize,
    nodes: Nodes<'_>,
    members: Vec<NodeSource>,
    level: usize,
    attempt: usize,
) -> Result<RoutedCluster, CtsError> {
    faults.check(FaultStage::Route, level, Some(cluster), attempt, cancel)?;
    // One span per cluster, nested under the route stage (workers
    // inherit the stage span as base parent) — this is what gives the
    // Chrome trace its per-worker lanes. Inert without telemetry.
    let _cluster_span = sllt_obs::span("cts.route.cluster");
    let started = sllt_obs::enabled().then(std::time::Instant::now);
    // Invariant: the partition stage never emits an empty cluster (the
    // min-cost flow assigns every centre at least one member), so the
    // centroid always exists.
    let (sinks, intervals): (Vec<Sink>, Vec<(f64, f64)>) = members
        .iter()
        .map(|&m| {
            let node = nodes.get(m);
            (Sink::new(node.pos, node.cap_ff), node.interval_ps)
        })
        .unzip();
    let tap =
        centroid(&sinks.iter().map(|s| s.pos).collect::<Vec<_>>()).expect("cluster is non-empty");
    let net = ClockNet::new(tap, sinks);

    // Merge-order generation inside `scheme.build` is nearest-pair
    // accelerated (sllt-route::nnpair), so cluster sizes are not limited
    // by topology generation even when partitioning is configured coarse.
    // Skew-controlled kernels report infeasibility as a typed
    // `DmeError` → `CtsError::ClusterRoute` (recoverable by the ladder);
    // RSMT cannot fail this way, and any residual panic is contained by
    // the caller's `catch_unwind`.
    let route_err = |source| CtsError::ClusterRoute {
        level,
        cluster,
        source,
    };
    let tree = match cts.topology {
        TopologyKind::Cbs { scheme } => {
            try_cbs_intervals(&net, &cluster_cbs_config(cts, scheme, &net), &intervals)
                .map_err(route_err)?
        }
        TopologyKind::Bst { scheme } => {
            let topo = scheme.build(&net);
            try_dme_intervals(
                &net,
                &topo,
                &DmeOptions {
                    skew_bound: cts.constraints.skew_ps * cts.level_skew_fraction,
                    model: DelayModel::Elmore(cts.tech),
                },
                &intervals,
            )
            .map_err(route_err)?
        }
        TopologyKind::Rsmt => rsmt::rsmt(&net),
    };

    // Cluster timing: Elmore from the tap plus each member's offset.
    let timing = propagate(&tree, &cts.tech, &cts.lib, |_| 1.0);
    let mut subtree_hi = 0.0f64;
    let mut subtree_lo = f64::INFINITY;
    for id in tree.sinks() {
        if let NodeKind::Sink { sink_index, .. } = tree.node(id).kind {
            let d = timing.delay[id.index()];
            subtree_hi = subtree_hi.max(d + intervals[sink_index].1);
            subtree_lo = subtree_lo.min(d + intervals[sink_index].0);
        }
    }
    let load = timing.cap[tree.root().index()];
    if let Some(t) = started {
        sllt_obs::count("cts.route.clusters", 1);
        sllt_obs::record("cts.route.cluster_sinks", members.len() as u64);
        sllt_obs::record("cts.route.cluster_us", t.elapsed().as_micros() as u64);
    }
    Ok(RoutedCluster {
        frame: encode_tree(&tree),
        members,
        load,
        subtree_lo,
        subtree_hi,
        wirelength_um: tree.wirelength(),
    })
}

/// CBS's base SALT shallowness budget ε, before the per-cluster
/// relaxation of [`cluster_cbs_config`].
const CBS_EPS: f64 = 0.2;

/// Latency slack granted to cluster-internal routing, ps: ε is relaxed
/// until a path of that Elmore cost is admissible, so small clusters
/// route like Steiner trees instead of stars (paper §3.3: "routability
/// concerns necessitate lighter SLLT, favoring FLUTE-like tree
/// structures; for larger designs minimizing latency … requires less
/// shallow SLLT").
const CLUSTER_LATENCY_SLACK_PS: f64 = 6.0;

/// The CBS configuration the route stage gives one cluster's net: the
/// flow's merge `scheme`, Elmore delay, the level's share of the skew
/// budget, and an adaptive ε that admits whatever path depth costs at
/// most 6 ps of Elmore delay, so compact clusters keep Steiner-light
/// routing while long-haul nets stay shallow.
pub fn cluster_cbs_config(
    cts: &HierarchicalCts,
    scheme: TopologyScheme,
    net: &ClockNet,
) -> CbsConfig {
    let max_md = net.max_source_dist();
    let eps = if max_md <= 1e-9 {
        CBS_EPS
    } else {
        let slack_len = (2.0 * CLUSTER_LATENCY_SLACK_PS
            / (cts.tech.unit_res_ohm * cts.tech.unit_cap_ff * 1e-3))
            .sqrt();
        CBS_EPS.max(slack_len / max_md - 1.0).min(10.0)
    };
    CbsConfig {
        scheme,
        eps,
        skew_bound: cts.constraints.skew_ps * cts.level_skew_fraction,
        model: DelayModel::Elmore(cts.tech),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sllt_timing::{BufferLibrary, Technology};

    /// Everything a route worker captures must cross threads.
    #[test]
    fn shared_flow_state_is_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<HierarchicalCts>();
        assert_send_sync::<TopologyScheme>();
        assert_send_sync::<DelayModel>();
        assert_send_sync::<Technology>();
        assert_send_sync::<BufferLibrary>();
        assert_send_sync::<ClockNet>();
        assert_send_sync::<Nodes<'_>>();
        assert_send_sync::<RoutedCluster>();
    }

    #[test]
    fn empty_assignment_routes_nothing() {
        let cts = HierarchicalCts::default();
        let part = LevelPartition {
            k: 4,
            assignment: Vec::new(),
        };
        let design = sllt_design::design_by_name("grid36").unwrap();
        let nodes = Nodes {
            design: &design,
            lib: &cts.lib,
            clusters: &[],
        };
        let routed = route_clusters(
            &cts,
            &mut RunContext::default(),
            nodes,
            &Entering::Sinks(0),
            &part,
            0,
            0,
            &WorkBudget::new(),
        )
        .unwrap();
        assert!(routed.is_empty());
    }
}
