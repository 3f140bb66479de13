//! The hierarchical CTS flow (paper Fig. 3) — "Ours".
//!
//! Level by level, bottom-up:
//!
//! 1. **partition** (`crate::partition`) the current clock nodes with
//!    balanced K-means + min-cost flow (fanout-exact), then repair
//!    capacitance/wirelength violations with the SA boundary moves,
//! 2. **route** (`crate::route`) each cluster with the configured
//!    topology generator (CBS by default), carrying each node's *delay
//!    offset* — the Elmore+buffer delay already accumulated below it —
//!    into the bounded-skew merge so sibling subtrees equalize. Clusters
//!    are independent, so this stage fans out across worker threads,
//! 3. **size** (`crate::sizing`) each cluster's driver jointly: the
//!    cheapest library cell that can drive the net load becomes the
//!    cluster driver at the net source (tap), and the built cluster is
//!    itself the node the next level sees: at its tap, with its top
//!    cell's input capacitance and the cluster's delay plus the
//!    driver-delay estimate.
//!
//! When one node remains, the tree is assembled (`crate::assemble`)
//! under the design's clock root and long wires get critical-wirelength
//! repeaters.
//!
//! [`HierarchicalCts`] is the pure algorithm configuration: every field
//! shapes the tree (plus [`workers`](HierarchicalCts::workers), which
//! never does). Everything else about a run — cancellation, the
//! filesystem seam, fault injection, checkpointing, telemetry, and the
//! [`FlowObserver`] receiving the [`FlowEvent`] stream — travels in a
//! [`RunContext`] to the one entry point, [`HierarchicalCts::run_in`].

use crate::assemble::{assemble, BuiltCluster};
use crate::cancel::CancelToken;
use crate::checkpoint::{Checkpoint, CheckpointWriter};
use crate::constraints::CtsConstraints;
use crate::error::CtsError;
use crate::fault::FaultPlan;
use crate::partition::partition_level;
use crate::recovery::{ladder, Downgrade};
use crate::report::{FlowEvent, FlowObserver, LevelReport, NullObserver, StageTimings};
use crate::route::{route_clusters, Entering, NodeSource, Nodes};
use crate::sizing::size_drivers;
use sllt_buffer::DelayEstimator;
use sllt_design::Design;
use sllt_geom::Point;
use sllt_obs::vfs::{real_fs, Vfs};
use sllt_obs::{NullSink, TelemetrySink, WorkBudget};
use sllt_route::TopologyScheme;
use sllt_timing::{BufferLibrary, Technology};
use sllt_tree::ClockTree;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

/// Which routing topology generator a flow uses per cluster net: the
/// paper's CBS and the two rungs the degradation ladder falls back to.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum TopologyKind {
    /// The paper's CBS (skew-bounded, SALT-shaped), with ε set per
    /// cluster by [`cluster_cbs_config`](crate::cluster_cbs_config).
    Cbs {
        /// Merge order for the BST steps.
        scheme: TopologyScheme,
    },
    /// Plain bounded-skew DME.
    Bst {
        /// Merge order.
        scheme: TopologyScheme,
    },
    /// RSMT (no skew control; lightest).
    Rsmt,
}

impl TopologyKind {
    /// Short stable name for reports, telemetry, and downgrade records.
    pub fn name(&self) -> &'static str {
        match self {
            TopologyKind::Cbs { .. } => "cbs",
            TopologyKind::Bst { .. } => "bst",
            TopologyKind::Rsmt => "rsmt",
        }
    }
}

/// The hierarchical CTS engine: its algorithm configuration. Every
/// field but [`workers`](Self::workers) shapes the tree and enters the
/// checkpoint fingerprint; run plumbing goes in a [`RunContext`].
#[derive(Debug, Clone)]
pub struct HierarchicalCts {
    /// Design constraints (paper Table 5).
    pub constraints: CtsConstraints,
    /// Interconnect technology.
    pub tech: Technology,
    /// Buffer library.
    pub lib: BufferLibrary,
    /// Per-cluster routing topology generator.
    pub topology: TopologyKind,
    /// Whether to run the SA partition refinement.
    pub use_sa: bool,
    /// Provisional driver-delay policy (paper Eq. (7)).
    pub estimator: DelayEstimator,
    /// Fraction of the skew budget each level's nets may use.
    pub level_skew_fraction: f64,
    /// Buffer sizing slack: cells are accepted when their delay is within
    /// this factor of the fastest choice at the load (1.0 = always pick
    /// the fastest → larger cells). Read only when
    /// [`equalize_sizing`](Self::equalize_sizing) is off.
    pub sizing_slack: f64,
    /// Whether driver sizing equalizes cluster totals toward the slowest
    /// cluster (lower skew pressure, higher latency) instead of sizing
    /// each driver fast and letting the next level's interval-aware
    /// merge absorb the spread.
    pub equalize_sizing: bool,
    /// Threads for every fan-out of a run (partition cells, K-means
    /// restarts, SA chains, the median split and routing), the calling
    /// thread included: 0 picks the machine's available parallelism, 1
    /// starts no thread. Any value yields bit-identical trees.
    pub workers: usize,
    /// RNG seed for the K-means and SA partition searches.
    pub seed: u64,
    /// Whether a failed level climbs the [degradation
    /// ladder](crate::recovery) instead of failing the run. Off by
    /// default (fail fast).
    pub recovery: bool,
}

impl Default for HierarchicalCts {
    /// The paper's configuration — CBS topologies (Greedy-Dist, ε = 0.2),
    /// SA refinement on — with one departure: each cluster's driver
    /// delay is priced by [`DelayEstimator::ChosenCell`], the cell driver
    /// sizing already chose, not by the paper's Eq. (7) insertion-delay
    /// lower bound ([`DelayEstimator::LowerBound`]). Inside this flow
    /// Eq. (7) gives more skew than no estimate at all on six of the ten
    /// suite designs and at square 10⁴ (`ROADMAP.md` item 13's measured
    /// table).
    fn default() -> Self {
        HierarchicalCts {
            constraints: CtsConstraints::paper(),
            tech: Technology::n28(),
            lib: BufferLibrary::n28(),
            topology: TopologyKind::Cbs {
                scheme: TopologyScheme::GreedyDist,
            },
            use_sa: true,
            estimator: DelayEstimator::ChosenCell,
            level_skew_fraction: 0.5,
            equalize_sizing: true,
            sizing_slack: 1.3,
            workers: 0,
            seed: 0x05117C75,
            recovery: false,
        }
    }
}

/// How a run interacts with a checkpoint journal. Checkpointing is
/// observational: a resumed run builds the tree an uninterrupted run
/// would, at any worker count (see `DESIGN.md`, *Durability model*).
#[derive(Debug, Clone, Copy)]
pub enum CheckpointMode<'p> {
    /// No journal.
    Off,
    /// Start a fresh journal at the path, truncating any existing file,
    /// and append a crash-safe record after every committed level.
    Fresh(&'p Path),
    /// Validate the journal against this configuration and design
    /// (fingerprint), restore the last committed level, and continue —
    /// appending new levels to the same file. A torn final record
    /// (crash mid-append) is discarded and rebuilt.
    Resume(&'p Path),
}

/// Everything about one run that is not algorithm configuration: none
/// of it enters the checkpoint fingerprint. Build one with
/// [`RunContext::new`] or [`Default`] and struct-update the rest.
pub struct RunContext<'a> {
    /// Cooperative cancellation flag, polled at cluster and SA-sweep
    /// granularity by every stage. Clone the token before the run and
    /// [`cancel`](CancelToken::cancel) it from any thread (or wire it
    /// to Ctrl-C/SIGTERM with
    /// [`install_signals`](crate::cancel::install_signals)) to stop the
    /// flow with [`CtsError::Cancelled`] within a bounded number of work
    /// units.
    pub cancel: CancelToken,
    /// Filesystem seam for every durable write the flow performs (the
    /// checkpoint journal). Install a [`FaultFs`](sllt_obs::FaultFs) to
    /// exercise the storage-failure paths deterministically.
    pub vfs: Arc<dyn Vfs>,
    /// Fault injection for the recovery test harness; empty (injecting
    /// nothing) by default. See [`crate::fault`].
    pub faults: FaultPlan,
    /// Whether and how the run journals its committed levels.
    pub checkpoint: CheckpointMode<'a>,
    /// Span and metric recording. With [`NullSink`] every
    /// instrumentation site reduces to one relaxed atomic load; with a
    /// [`RecordingSink`](sllt_obs::RecordingSink) the run's span tree
    /// and counters land in the sink's registry.
    pub telemetry: &'a dyn TelemetrySink,
    /// Receives the run's [`FlowEvent`] stream.
    pub observer: &'a mut dyn FlowObserver,
}

impl<'a> RunContext<'a> {
    /// A context delivering events to `observer` and metrics to
    /// `telemetry`, with an inert cancel token, the real filesystem, no
    /// injected faults, and no checkpoint.
    pub fn new(observer: &'a mut dyn FlowObserver, telemetry: &'a dyn TelemetrySink) -> Self {
        RunContext {
            cancel: CancelToken::new(),
            vfs: real_fs(),
            faults: FaultPlan::none(),
            checkpoint: CheckpointMode::Off,
            telemetry,
            observer,
        }
    }
}

impl Default for RunContext<'_> {
    /// Observes nothing and records nothing.
    fn default() -> Self {
        // Leaking a zero-sized observer allocates nothing.
        RunContext::new(Box::leak(Box::new(NullObserver)), &NullSink)
    }
}

/// Per-run state threaded through the stages: the built-cluster arena,
/// which nodes enter the current level, and the level counter.
struct FlowState {
    clusters: Vec<BuiltCluster>,
    entering: Entering,
    level: usize,
}

/// Levels past this are a divergence, not a deep design: each level must
/// at least halve the node count.
const MAX_LEVELS: usize = 40;

impl HierarchicalCts {
    /// Runs the flow on a design and returns the assembled, buffered
    /// clock tree — [`run_in`](Self::run_in) with a default context.
    pub fn run(&self, design: &Design) -> Result<ClockTree, CtsError> {
        self.run_in(design, RunContext::default())
    }

    /// [`run`](Self::run), delivering the event stream to `observer`.
    pub fn run_with_observer(
        &self,
        design: &Design,
        observer: &mut dyn FlowObserver,
    ) -> Result<ClockTree, CtsError> {
        self.run_in(design, RunContext::new(observer, &NullSink))
    }

    /// [`run_with_observer`](Self::run_with_observer), additionally
    /// recording spans and metrics into `sink`.
    pub fn run_with_telemetry(
        &self,
        design: &Design,
        observer: &mut dyn FlowObserver,
        sink: &dyn TelemetrySink,
    ) -> Result<ClockTree, CtsError> {
        self.run_in(design, RunContext::new(observer, sink))
    }

    /// The one engine entry point: validate, optionally restore
    /// checkpointed state, build levels (checkpointing each commit),
    /// assemble. Sink nodes of the returned tree carry the design's
    /// sink indices. Nothing in `ctx` changes the tree: telemetry and
    /// observers are observational, checkpointing and resuming rebuild
    /// the uninterrupted tree bit-identically, and a failing journal
    /// write degrades the run to in-memory-only operation
    /// ([`FlowEvent::StorageDegraded`]) instead of aborting it.
    ///
    /// This never panics on user input: constraints, the design, and
    /// the buffer library are all checked up front, and per-level
    /// failures come back as typed [`CtsError`]s (or are retried by the
    /// [degradation ladder](crate::recovery) when
    /// [`recovery`](Self::recovery) is set).
    ///
    /// # Errors
    ///
    /// [`CtsError::NoSinks`] for a design without flip-flops,
    /// [`CtsError::InvalidDesign`] when the sanitizer pre-flight finds a
    /// fatal defect (repair with [`sllt_design::sanitize::repair`]),
    /// [`CtsError::InvalidConstraints`] for out-of-range bounds,
    /// [`CtsError::EmptyBufferLibrary`] when no driver can be sized,
    /// [`CtsError::LevelRunaway`] when partitioning stops reducing the
    /// node count, per-level routing errors
    /// ([`CtsError::ClusterRoute`], [`CtsError::ClusterPanicked`]) when
    /// recovery is disabled,
    /// [`CtsError::LadderExhausted`] when it is enabled but every rung
    /// failed, [`CtsError::Cancelled`] when the token fires, and
    /// [`CtsError::Checkpoint`] when the journal cannot be created, or
    /// on resume is unreadable, corrupt beyond its final record, or was
    /// written by a different configuration or design.
    pub fn run_in(&self, design: &Design, mut ctx: RunContext<'_>) -> Result<ClockTree, CtsError> {
        self.constraints.validate()?;
        if design.sinks.is_empty() {
            return Err(CtsError::NoSinks);
        }
        // Sanitizer pre-flight: reject non-finite or oversized
        // coordinates and bad pin caps before any geometry runs on them.
        // O(n), allocation-free; callers holding a dirty design can
        // `sllt_design::sanitize::repair` it and re-run.
        if let Some(issue) = sllt_design::sanitize::first_fatal(design) {
            return Err(CtsError::InvalidDesign {
                detail: issue.to_string(),
            });
        }
        if self.lib.cells().is_empty() {
            return Err(CtsError::EmptyBufferLibrary);
        }
        // Declared before the spans: guards drop in reverse declaration
        // order, so every span closes before the scope merges its shard.
        let _scope = ctx.telemetry.registry().map(|r| r.install("main"));
        let _flow_span = sllt_obs::span("cts.flow");
        ctx.observer.on_event(&FlowEvent::FlowStart {
            sinks: design.sinks.len(),
        });
        // Deterministic completion model: a level's work is its node
        // count, and the geometric-tail estimate in `WorkBudget` turns
        // done-work into fractions. Resumed levels are folded in below
        // so a resumed run's fractions line up.
        let mut budget = WorkBudget::new();

        let mut cx = FlowState {
            clusters: Vec::new(),
            entering: Entering::Sinks(design.sinks.len()),
            level: 0,
        };
        let mut writer = match ctx.checkpoint {
            CheckpointMode::Off => None,
            CheckpointMode::Fresh(path) => Some(CheckpointWriter::create(
                ctx.vfs.as_ref(),
                path,
                self,
                design,
            )?),
            CheckpointMode::Resume(path) => {
                let ckpt = Checkpoint::load(ctx.vfs.as_ref(), path, self, design)?;
                // Continue from the restored state. An empty journal
                // (meta only) resumes from the design sinks — identical
                // to a fresh run.
                cx = FlowState {
                    level: ckpt.reports.len(),
                    clusters: ckpt.clusters,
                    entering: ckpt.entering,
                };
                // Replay the committed history before any live level.
                for report in ckpt.reports {
                    budget.start_level(report.num_nodes as u64);
                    let fraction = budget.fraction_at(budget.level_work());
                    budget.finish_level();
                    ctx.observer.on_event(&FlowEvent::LevelDone {
                        report,
                        fraction,
                        resumed: true,
                    });
                }
                Some(CheckpointWriter::reopen(
                    ctx.vfs.as_ref(),
                    path,
                    ckpt.valid_len,
                )?)
            }
        };
        while cx.entering.len() > 1 {
            if ctx.cancel.poll() {
                return Err(CtsError::Cancelled);
            }
            if cx.level >= MAX_LEVELS {
                return Err(CtsError::LevelRunaway {
                    level: cx.level,
                    nodes: cx.entering.len(),
                });
            }
            budget.start_level(cx.entering.len() as u64);
            ctx.observer.on_event(&FlowEvent::LevelStart {
                level: cx.level,
                nodes: cx.entering.len(),
                fraction: budget.fraction_at(0),
            });
            let report = self.build_level(design, &mut cx, &mut ctx, &budget)?;
            let write_err = match writer.as_mut() {
                Some(w) => {
                    // The level just committed: the clusters it appended
                    // are the arena's last `num_clusters` entries.
                    let new = &cx.clusters[cx.clusters.len() - report.num_clusters..];
                    w.append_level(&report, new).err()
                }
                None => None,
            };
            if let Some(e) = write_err {
                // Storage failure is never fatal to a running flow: drop
                // the journal and continue in-memory-only. The run still
                // produces its tree; only crash-resumability is lost —
                // which the degradation event and counter make visible.
                writer = None;
                if sllt_obs::enabled() {
                    sllt_obs::count("cts.storage.degraded", 1);
                }
                ctx.observer.on_event(&FlowEvent::StorageDegraded {
                    level: cx.level,
                    detail: e.to_string(),
                });
            }
            // Exit fraction *before* folding the level in: with the
            // level's work done, (completed + W)/(completed + 2W) —
            // which equals the next level's entry fraction exactly when
            // levels halve, keeping the stream monotone.
            let fraction = budget.fraction_at(budget.level_work());
            budget.finish_level();
            ctx.observer.on_event(&FlowEvent::LevelDone {
                report,
                fraction,
                resumed: false,
            });
            if sllt_obs::enabled() {
                // Memory-footprint gauges, sampled once per committed
                // level on the coordinating thread (deterministic, so
                // the telemetry-equivalence contract holds): what the
                // built-cluster arena holds until assembly, its trees'
                // nodes and the bytes of their frames and member lists.
                let nodes: usize = cx.clusters.iter().map(|c| c.tree_nodes()).sum();
                let bytes: usize = cx
                    .clusters
                    .iter()
                    .map(|c| {
                        c.frame.capacity()
                            + c.members.capacity() * std::mem::size_of::<NodeSource>()
                    })
                    .sum();
                sllt_obs::gauge("cts.arena.trees", cx.clusters.len() as f64);
                sllt_obs::gauge("cts.arena.nodes", nodes as f64);
                sllt_obs::gauge("cts.arena.bytes", bytes as f64);
            }
            cx.level += 1;
        }

        let assemble_span = sllt_obs::span("cts.assemble");
        let (tree, report) = assemble(self, design, &cx.clusters, cx.entering.source(0));
        drop(assemble_span);
        ctx.observer.on_event(&FlowEvent::Assembled { report });
        Ok(tree)
    }

    /// Partitions, routes, and sizes one level, appending its clusters to
    /// the arena as the next level's entering nodes.
    ///
    /// This is where the degradation ladder lives: each rung of
    /// `recovery::ladder` is tried in order against an
    /// *unmodified* `cx` — a failed attempt commits nothing — and the
    /// first success records every rung climbed in
    /// [`LevelReport::downgrades`]. Non-recoverable errors propagate
    /// immediately; exhausting the ladder yields
    /// [`CtsError::LadderExhausted`] wrapping the final attempt's error.
    fn build_level(
        &self,
        design: &Design,
        cx: &mut FlowState,
        ctx: &mut RunContext<'_>,
        budget: &WorkBudget,
    ) -> Result<LevelReport, CtsError> {
        let _level_span = sllt_obs::span("cts.level");
        let steps = ladder(self.recovery, self.topology);
        let mut downgrades: Vec<Downgrade> = Vec::new();
        for (attempt, step) in steps.iter().enumerate() {
            // Attempt 0 runs the configured flow verbatim; retries run a
            // relaxed clone. `self` (not `eff`) keeps providing the
            // ladder so recovery never recurses.
            let owned: HierarchicalCts;
            let eff: &HierarchicalCts = if attempt == 0 {
                self
            } else {
                let mut relaxed = self.clone();
                relaxed.constraints.skew_ps *= step.skew_factor;
                if let Some(t) = step.topology {
                    relaxed.topology = t;
                }
                owned = relaxed;
                &owned
            };
            match Self::try_level(eff, design, cx, ctx, attempt, budget) {
                Ok((mut report, built)) => {
                    report.attempts = attempt + 1;
                    report.downgrades = downgrades;
                    if report.attempts > 1 && sllt_obs::enabled() {
                        sllt_obs::count("cts.recovery.levels_recovered", 1);
                        sllt_obs::count("cts.recovery.retries", attempt as u64);
                    }
                    let base = cx.clusters.len();
                    cx.clusters.extend(built);
                    cx.entering = Entering::Clusters(base..cx.clusters.len());
                    return Ok(report);
                }
                Err(e) if e.is_recoverable() && attempt + 1 < steps.len() => {
                    let next_step = &steps[attempt + 1];
                    downgrades.push(Downgrade {
                        attempt: attempt + 1,
                        skew_factor: next_step.skew_factor,
                        topology: next_step.topology.map(|t| t.name()),
                        trigger: e.to_string(),
                    });
                }
                Err(e) => {
                    // Non-recoverable, or the ladder is spent. A
                    // single-rung ladder (recovery disabled) reports the
                    // raw error — the historical contract.
                    if !e.is_recoverable() || steps.len() == 1 {
                        return Err(e);
                    }
                    return Err(CtsError::LadderExhausted {
                        level: cx.level,
                        attempts: attempt + 1,
                        last: Box::new(e),
                    });
                }
            }
        }
        unreachable!("ladder always has at least the identity step")
    }

    /// One attempt at one level under configuration `eff`. Reads `cx`
    /// but never mutates it: the caller commits the returned clusters
    /// only on success, so a failed attempt leaves the run exactly where
    /// it was.
    fn try_level(
        eff: &HierarchicalCts,
        design: &Design,
        cx: &FlowState,
        ctx: &mut RunContext<'_>,
        attempt: usize,
        budget: &WorkBudget,
    ) -> Result<(LevelReport, Vec<BuiltCluster>), CtsError> {
        let num_nodes = cx.entering.len();
        let nodes = Nodes {
            design,
            lib: &eff.lib,
            clusters: &cx.clusters,
        };
        let t0 = Instant::now();
        let part = {
            let _s = sllt_obs::span("cts.partition");
            let (positions, caps): (Vec<Point>, Vec<f64>) = (0..num_nodes)
                .map(|i| {
                    let node = nodes.get(cx.entering.source(i));
                    (node.pos, node.cap_ff)
                })
                .unzip();
            partition_level(eff, ctx, &positions, &caps, cx.level, attempt)?
        };
        let t1 = Instant::now();
        let routed = {
            let _s = sllt_obs::span("cts.route");
            route_clusters(
                eff,
                ctx,
                nodes,
                &cx.entering,
                &part,
                cx.level,
                attempt,
                budget,
            )?
        };
        let t2 = Instant::now();

        let wirelength_um: f64 = routed.iter().map(|r| r.wirelength_um).sum();
        let load_cap_ff: f64 = routed.iter().map(|r| r.load).sum();
        let workers = eff.effective_workers().min(routed.len()).max(1);

        let (built, stats) = {
            let _s = sllt_obs::span("cts.sizing");
            size_drivers(eff, ctx, routed, cx.level, attempt)?
        };
        let t3 = Instant::now();

        let (lo, hi) = built
            .iter()
            .fold((f64::INFINITY, f64::NEG_INFINITY), |acc, c| {
                (acc.0.min(c.interval_ps.0), acc.1.max(c.interval_ps.1))
            });
        let report = LevelReport {
            level: cx.level,
            num_nodes,
            num_clusters: built.len(),
            workers,
            timings: StageTimings {
                partition: t1 - t0,
                route: t2 - t1,
                sizing: t3 - t2,
            },
            wirelength_um,
            load_cap_ff,
            driver_input_cap_ff: stats.driver_input_cap_ff,
            driver_area_um2: stats.driver_area_um2,
            pads: stats.pads,
            delay_spread_ps: if built.is_empty() { 0.0 } else { hi - lo },
            attempts: 1,
            downgrades: Vec::new(),
        };
        Ok((report, built))
    }

    /// Threads each fan-out of a run may use (none uses more than it
    /// has items): the configured [`workers`](Self::workers), or the
    /// machine's available parallelism when that is 0.
    pub fn effective_workers(&self) -> usize {
        match self.workers {
            0 => std::thread::available_parallelism().map_or(1, |n| n.get()),
            w => w,
        }
    }
}
