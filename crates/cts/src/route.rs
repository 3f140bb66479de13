//! Per-cluster routing — the parallel stage of each level.
//!
//! Every cluster routes independently (`route_cluster` needs only
//! `&HierarchicalCts`, the run's cancel token and fault plan, and the
//! cluster's members), so the stage fans out across a
//! `std::thread::scope`: workers pull cluster indices from a shared
//! atomic counter and write results into per-index slots.
//! Collection is by cluster index, and each cluster's RNG stream is
//! derived up front from the flow seed with SplitMix64 — the output is
//! bit-identical no matter how many workers run or how they interleave.

use crate::cancel::CancelToken;
use crate::error::CtsError;
use crate::fault::{FaultPlan, FaultStage};
use crate::flow::{HierarchicalCts, RunContext, TopologyKind};
use crate::partition::LevelPartition;
use crate::report::FlowEvent;
use sllt_core::cbs::{try_cbs_intervals, CbsConfig};
use sllt_geom::{centroid, Point};
use sllt_obs::WorkBudget;
use sllt_rng::SplitMix64;
use sllt_route::{ghtree, htree, rsmt, salt, try_dme_intervals, DelayModel, DmeOptions};
use sllt_tree::{ClockNet, ClockTree, NodeKind, Sink};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;

/// One clock node at the current level: a design FF or a built cluster's
/// driver input.
#[derive(Debug, Clone, Copy)]
pub(crate) struct LevelNode {
    pub pos: Point,
    pub cap_ff: f64,
    /// Delay interval (fastest, slowest) already accumulated below this
    /// node, ps.
    pub interval_ps: (f64, f64),
    pub source: NodeSource,
}

#[derive(Debug, Clone, Copy)]
pub(crate) enum NodeSource {
    /// Index into the design's sink list.
    DesignSink(usize),
    /// Index into the flow's built-cluster arena.
    Cluster(usize),
}

/// A routed cluster awaiting joint driver sizing.
#[derive(Debug)]
pub(crate) struct RoutedCluster {
    pub tree: ClockTree,
    pub members: Vec<LevelNode>,
    pub tap: Point,
    pub load: f64,
    pub subtree_lo: f64,
    pub subtree_hi: f64,
}

/// One unit of route work: a cluster's members plus its private RNG
/// stream seed. Today's topology generators are deterministic and ignore
/// the seed; it is split off the flow seed *serially, in cluster order*
/// so a future stochastic generator stays reproducible under any worker
/// count.
struct ClusterJob {
    /// Dense job index — the cluster identity carried in route errors.
    index: usize,
    members: Vec<LevelNode>,
    seed: u64,
}

/// Groups `nodes` by the partition and routes every non-empty cluster.
/// Results are returned in cluster-index order; on error the failure of
/// the lowest-indexed failing cluster is reported (also independent of
/// worker interleaving). A panic inside any cluster's routing kernel is
/// contained at cluster granularity (`catch_unwind` around the job) and
/// surfaces as [`CtsError::ClusterPanicked`] — one bad cluster cannot
/// take down the run or poison its siblings.
pub(crate) fn route_clusters(
    cts: &HierarchicalCts,
    ctx: &mut RunContext<'_>,
    nodes: &[LevelNode],
    part: &LevelPartition,
    level: usize,
    attempt: usize,
    budget: &WorkBudget,
) -> Result<Vec<RoutedCluster>, CtsError> {
    let mut seeds = SplitMix64::new(cts.seed ^ (level as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));
    // Single-pass bucketing: a per-cluster scan of `nodes` is O(k·n),
    // which at a million sinks (k ≈ 5·10⁴) costs minutes of pure
    // grouping. Buckets preserve node-index order within each cluster,
    // so the job list is identical to the old filter-per-cluster form.
    let mut buckets: Vec<Vec<LevelNode>> = vec![Vec::new(); part.k];
    for (node, &a) in nodes.iter().zip(&part.assignment) {
        buckets[a].push(*node);
    }
    let mut index = 0usize;
    let jobs: Vec<ClusterJob> = buckets
        .into_iter()
        .filter_map(|members| {
            // Every cluster index draws its seed, occupied or not, so the
            // streams do not shift when a cluster comes up empty.
            let seed = seeds.next_u64();
            (!members.is_empty()).then(|| {
                let job = ClusterJob {
                    index,
                    members,
                    seed,
                };
                index += 1;
                job
            })
        })
        .collect();

    // Cooperative deadline: the stage's cost is a pure function of the
    // job list and topology (members × weight, summed in cluster order),
    // so the same configuration stops at the same place on every run and
    // worker count — no wall clocks, no shared counters. Checked before
    // any cluster routes; the ladder can recover by falling back to a
    // cheaper topology.
    if let Some(budget) = cts.route_budget {
        let required: u64 = jobs
            .iter()
            .map(|j| j.members.len() as u64 * cts.topology.cost_weight())
            .sum();
        if required > budget {
            return Err(CtsError::StageDeadline {
                level,
                stage: "route",
                budget,
                required,
            });
        }
    }

    let (cancel, faults) = (&ctx.cancel, &ctx.faults);
    let route_contained = |job: &ClusterJob| -> Result<RoutedCluster, CtsError> {
        catch_unwind(AssertUnwindSafe(|| {
            route_cluster(cts, cancel, faults, job, level, attempt)
        }))
        .unwrap_or(Err(CtsError::ClusterPanicked {
            level,
            cluster: job.index,
        }))
    };

    // Within-level deciles, sent live: whichever completion pushes the
    // done-work counter (cluster members; the topology weight cancels
    // out of the ratio) past a tenth of the level total takes the
    // observer lock and sends every decile not yet sent up to the one
    // it crossed. `fetch_add` linearizes the crossings, so each decile
    // goes out exactly once, in order, and every field is a pure
    // function of (budget, k) — the stream is worker-count independent.
    let total_members: u64 = jobs.iter().map(|j| j.members.len() as u64).sum();
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

    let workers = cts.effective_workers(jobs.len());
    if workers <= 1 {
        // Serial path: poll once per cluster so cancellation latency is
        // bounded by a single cluster's routing work.
        let mut out = Vec::with_capacity(jobs.len());
        for job in &jobs {
            if cancel.poll() {
                return Err(CtsError::Cancelled);
            }
            out.push(route_contained(job)?);
            report_progress(job.members.len() as u64);
        }
        return Ok(out);
    }

    let next = AtomicUsize::new(0);
    let slots: Mutex<Vec<Option<Result<RoutedCluster, CtsError>>>> =
        Mutex::new((0..jobs.len()).map(|_| None).collect());
    // Telemetry hand-off: workers record into the coordinator's registry
    // (if one is installed), with their spans parented under the route
    // stage's span. Purely observational — shards merge on scope exit,
    // never mid-run, so worker interleaving stays unconstrained.
    let registry = sllt_obs::current();
    let parent_span = sllt_obs::current_span();
    std::thread::scope(|scope| {
        let (next, slots, jobs, registry) = (&next, &slots, &jobs, &registry);
        let route_contained = &route_contained;
        let report_progress = &report_progress;
        for w in 0..workers {
            scope.spawn(move || {
                let _telemetry = registry
                    .as_ref()
                    .map(|r| r.install_worker(&format!("route-worker-{w}"), parent_span));
                loop {
                    // Each worker polls before claiming a cluster, so at
                    // most `workers` clusters start after a cancel fires.
                    if cancel.poll() {
                        break;
                    }
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= jobs.len() {
                        break;
                    }
                    let result = route_contained(&jobs[i]);
                    let ok = result.is_ok();
                    slots.lock().expect("no panics hold the slot lock")[i] = Some(result);
                    if ok {
                        report_progress(jobs[i].members.len() as u64);
                    }
                }
            });
        }
    });
    slots
        .into_inner()
        .expect("workers joined")
        .into_iter()
        // A slot left empty means its worker saw the cancel before
        // claiming the cluster; the whole level attempt is discarded.
        .map(|slot| slot.unwrap_or(Err(CtsError::Cancelled)))
        .collect()
}

/// Routes one cluster and computes its timing aggregates.
fn route_cluster(
    cts: &HierarchicalCts,
    cancel: &CancelToken,
    faults: &FaultPlan,
    job: &ClusterJob,
    level: usize,
    attempt: usize,
) -> Result<RoutedCluster, CtsError> {
    faults.check(FaultStage::Route, level, Some(job.index), attempt, cancel)?;
    // One span per cluster, nested under the route stage (workers
    // inherit the stage span as base parent) — this is what gives the
    // Chrome trace its per-worker lanes. Inert without telemetry.
    let _cluster_span = sllt_obs::span("cts.route.cluster");
    let started = sllt_obs::enabled().then(std::time::Instant::now);
    let members = &job.members;
    let _rng_stream = job.seed; // reserved for stochastic topology generators
                                // Invariant: the partition stage never emits an empty cluster (the
                                // min-cost flow assigns every centre at least one member), so the
                                // centroid always exists.
    let tap =
        centroid(&members.iter().map(|m| m.pos).collect::<Vec<_>>()).expect("cluster is non-empty");
    let net = ClockNet::new(
        tap,
        members.iter().map(|m| Sink::new(m.pos, m.cap_ff)).collect(),
    );
    let intervals: Vec<(f64, f64)> = members.iter().map(|m| m.interval_ps).collect();
    let bound = cts.constraints.skew_ps * cts.level_skew_fraction;
    let model = DelayModel::Elmore(cts.tech);

    // Adaptive shallowness: allow whatever path depth costs at most
    // `cluster_latency_slack_ps` of Elmore delay, so compact clusters
    // keep Steiner-light routing while long-haul nets stay shallow.
    let adaptive_eps = |eps: f64| -> f64 {
        let max_md = net.max_source_dist();
        if max_md <= 1e-9 {
            return eps;
        }
        let slack_len = (2.0 * cts.cluster_latency_slack_ps
            / (cts.tech.unit_res_ohm * cts.tech.unit_cap_ff * 1e-3))
            .sqrt();
        eps.max(slack_len / max_md - 1.0).min(10.0)
    };

    // Merge-order generation inside `scheme.build` is nearest-pair
    // accelerated (sllt-route::nnpair), so cluster sizes are not limited
    // by topology generation even when partitioning is configured coarse.
    // Skew-controlled kernels report infeasibility as a typed
    // `DmeError` → `CtsError::ClusterRoute` (recoverable by the ladder);
    // the skew-free generators cannot fail this way, and any residual
    // panic in either family is contained by the caller's
    // `catch_unwind`.
    let route_err = |source| CtsError::ClusterRoute {
        level,
        cluster: job.index,
        source,
    };
    let tree = match cts.topology {
        TopologyKind::Cbs { scheme, eps } => try_cbs_intervals(
            &net,
            &CbsConfig {
                scheme,
                eps: adaptive_eps(eps),
                skew_bound: bound,
                model,
            },
            &intervals,
        )
        .map_err(route_err)?,
        TopologyKind::Bst { scheme } => {
            let topo = scheme.build(&net);
            try_dme_intervals(
                &net,
                &topo.to_hinted(),
                &DmeOptions {
                    skew_bound: bound,
                    model,
                },
                &intervals,
            )
            .map_err(route_err)?
        }
        TopologyKind::Salt { eps } => salt(&net, adaptive_eps(eps)),
        TopologyKind::Rsmt => rsmt::rsmt(&net),
        TopologyKind::HTree => htree(&net, 2),
        TopologyKind::GhTree => ghtree(&net, 2),
    };

    // Cluster timing: Elmore from the tap plus each member's offset.
    let caps = sllt_buffer::repeater::downstream_caps(&tree, &cts.tech, Some(&cts.lib));
    let (rc, map) = tree.to_rc_tree();
    let delays = rc.elmore(&cts.tech, 0.0);
    let mut subtree_hi = 0.0f64;
    let mut subtree_lo = f64::INFINITY;
    for id in tree.sinks() {
        if let NodeKind::Sink { sink_index, .. } = tree.node(id).kind {
            let d = delays[map[id.index()].ok_or(CtsError::UnmappedSink { level, sink_index })?];
            subtree_hi = subtree_hi.max(d + intervals[sink_index].1);
            subtree_lo = subtree_lo.min(d + intervals[sink_index].0);
        }
    }
    let load = caps[tree.root().index()];
    if let Some(t) = started {
        sllt_obs::count("cts.route.clusters", 1);
        sllt_obs::record("cts.route.cluster_sinks", members.len() as u64);
        sllt_obs::record("cts.route.cluster_us", t.elapsed().as_micros() as u64);
    }
    Ok(RoutedCluster {
        tree,
        members: members.clone(),
        tap,
        load,
        subtree_lo,
        subtree_hi,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use sllt_route::TopologyScheme;
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
        assert_send_sync::<ClockTree>();
        assert_send_sync::<LevelNode>();
        assert_send_sync::<RoutedCluster>();
    }

    /// Cluster seed streams depend only on cluster index, not occupancy
    /// or worker count: the same flow seed always yields the same stream.
    #[test]
    fn cluster_seeds_are_stable() {
        let mut a = SplitMix64::new(0x05117C75 ^ 3u64.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        let mut b = SplitMix64::new(0x05117C75 ^ 3u64.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        for _ in 0..16 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn empty_assignment_routes_nothing() {
        let cts = HierarchicalCts::default();
        let part = LevelPartition {
            k: 4,
            assignment: Vec::new(),
        };
        let routed = route_clusters(
            &cts,
            &mut RunContext::default(),
            &[],
            &part,
            0,
            0,
            &WorkBudget::new(),
        )
        .unwrap();
        assert!(routed.is_empty());
    }

    /// The deadline trips before any cluster routes, deterministically,
    /// and reports exactly what the stage would have cost.
    #[test]
    fn route_budget_is_a_typed_deadline() {
        let cts = HierarchicalCts {
            route_budget: Some(3),
            ..Default::default()
        };
        let nodes: Vec<LevelNode> = (0..4)
            .map(|i| LevelNode {
                pos: Point::new(i as f64 * 10.0, 0.0),
                cap_ff: 1.0,
                interval_ps: (0.0, 0.0),
                source: NodeSource::DesignSink(i),
            })
            .collect();
        let part = LevelPartition {
            k: 2,
            assignment: vec![0, 0, 1, 1],
        };
        let err = route_clusters(
            &cts,
            &mut RunContext::default(),
            &nodes,
            &part,
            0,
            0,
            &WorkBudget::new(),
        )
        .unwrap_err();
        match err {
            CtsError::StageDeadline {
                level,
                stage,
                budget,
                required,
            } => {
                assert_eq!(level, 0);
                assert_eq!(stage, "route");
                assert_eq!(budget, 3);
                // 4 members × CBS weight 4.
                assert_eq!(required, 16);
            }
            other => panic!("expected StageDeadline, got {other:?}"),
        }
    }
}
