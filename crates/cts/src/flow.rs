//! The hierarchical CTS flow (paper Fig. 3) — "Ours".
//!
//! Level by level, bottom-up:
//!
//! 1. **partition** ([`crate::partition`]) the current clock nodes with
//!    balanced K-means + min-cost flow (fanout-exact), then repair
//!    capacitance/wirelength violations with the SA boundary moves,
//! 2. **route** ([`crate::route`]) each cluster with the configured
//!    topology generator (CBS by default), carrying each node's *delay
//!    offset* — the Elmore+buffer delay already accumulated below it —
//!    into the bounded-skew merge so sibling subtrees equalize. Clusters
//!    are independent, so this stage fans out across worker threads,
//! 3. **size** ([`crate::sizing`]) each cluster's driver jointly: the
//!    cheapest library cell that can drive the net load becomes the
//!    cluster driver at the net source (tap), and the node reported to
//!    the next level carries the driver's input capacitance and the
//!    cluster's delay plus the insertion-delay estimate (paper Eq. (7)).
//!
//! When one node remains, the tree is assembled ([`crate::assemble`])
//! under the design's clock root and long wires get critical-wirelength
//! repeaters. Each level emits a [`LevelReport`] through the
//! [`FlowObserver`] the caller passes to
//! [`HierarchicalCts::run_with_observer`].

use crate::assemble::{assemble, BuiltCluster};
use crate::cancel::CancelToken;
use crate::checkpoint::{Checkpoint, CheckpointWriter};
use crate::constraints::CtsConstraints;
use crate::error::CtsError;
use crate::fault::FaultPlan;
use crate::partition::partition_level;
use crate::recovery::{Downgrade, RecoveryPolicy};
use crate::report::{FlowObserver, LevelReport, NullObserver, StageTimings};
use crate::route::{route_clusters, LevelNode, NodeSource};
use crate::sizing::size_drivers;
use sllt_buffer::DelayEstimator;
use sllt_design::Design;
use sllt_geom::Point;
use sllt_obs::vfs::{real_fs, Vfs};
use sllt_obs::{NullSink, Progress, ProgressEvent, TelemetrySink, WorkBudget};
use sllt_route::TopologyScheme;
use sllt_timing::{BufferLibrary, Technology};
use sllt_tree::ClockTree;
use std::sync::Arc;
use std::time::Instant;

/// Which routing topology generator a flow uses per cluster net.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum TopologyKind {
    /// The paper's CBS (skew-bounded, SALT-shaped).
    Cbs {
        /// Merge order for the BST steps.
        scheme: TopologyScheme,
        /// SALT shallowness budget.
        eps: f64,
    },
    /// Plain bounded-skew DME.
    Bst {
        /// Merge order.
        scheme: TopologyScheme,
    },
    /// Rectilinear SALT (no skew control inside the net).
    Salt {
        /// Shallowness budget.
        eps: f64,
    },
    /// RSMT (no skew control; lightest).
    Rsmt,
    /// Symmetric H-tree.
    HTree,
    /// Generalized H-tree.
    GhTree,
}

impl TopologyKind {
    /// Short stable name for reports, telemetry, and downgrade records.
    pub fn name(&self) -> &'static str {
        match self {
            TopologyKind::Cbs { .. } => "cbs",
            TopologyKind::Bst { .. } => "bst",
            TopologyKind::Salt { .. } => "salt",
            TopologyKind::Rsmt => "rsmt",
            TopologyKind::HTree => "htree",
            TopologyKind::GhTree => "ghtree",
        }
    }

    /// Deterministic per-member cost weight for the route-stage work
    /// budget ([`HierarchicalCts::route_budget`]). Relative, not
    /// calibrated: CBS runs a five-step pipeline over each net, BST and
    /// SALT a single construction, RSMT and the H-trees a cheap sweep —
    /// so a topology fallback genuinely lowers the budget a level needs.
    pub fn cost_weight(&self) -> u64 {
        match self {
            TopologyKind::Cbs { .. } => 4,
            TopologyKind::Bst { .. } | TopologyKind::Salt { .. } => 2,
            TopologyKind::Rsmt | TopologyKind::HTree | TopologyKind::GhTree => 1,
        }
    }
}

/// The hierarchical CTS engine.
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
    /// Latency slack granted to cluster-internal routing, ps: the SALT
    /// shallowness budget ε is relaxed until a path of that Elmore cost
    /// is admissible, so small clusters route like Steiner trees instead
    /// of stars (paper §3.3: "routability concerns necessitate lighter
    /// SLLT, favoring FLUTE-like tree structures; for larger designs
    /// minimizing latency … requires less shallow SLLT").
    pub cluster_latency_slack_ps: f64,
    /// Buffer sizing slack: cells are accepted when their delay is within
    /// this factor of the fastest choice at the load (1.0 = always pick
    /// the fastest → larger cells).
    pub sizing_slack: f64,
    /// Whether driver sizing equalizes cluster totals toward the slowest
    /// cluster (lower skew pressure, higher latency) instead of sizing
    /// each driver fast and letting the next level's interval-aware
    /// merge absorb the spread.
    pub equalize_sizing: bool,
    /// Width of the equalization window as a fraction of the per-level
    /// skew bound: 0 forces exact equalization; larger values let fast
    /// clusters stay fast and lean on the next level's merge.
    pub sizing_window_fraction: f64,
    /// K-means restarts per level in the small-level partition search.
    /// Must be at least 1 ([`CtsError::NoPartitionRestarts`]).
    pub partition_restarts: usize,
    /// Independent SA chains per level in the partition refinement; the
    /// lowest-cost final state wins (ties break toward the lowest chain
    /// index). Chains run across the worker pool; any chain/worker
    /// combination yields bit-identical trees. Must be at least 1 when
    /// [`use_sa`](Self::use_sa) is set.
    pub sa_chains: usize,
    /// Whether the per-cluster capacity assignment inside balanced
    /// K-means warm-starts from the nearest-centre seed and repairs only
    /// the overflow with a small min-cost flow, instead of solving the
    /// dense point×centre flow from scratch each balance round. Exact —
    /// the repaired assignment reaches the dense optimum's total cost —
    /// and several times faster; disable only to cross-check trees
    /// against the cold solver.
    pub partition_warm_mcf: bool,
    /// Worker threads for the per-cluster route stage: 0 picks the
    /// machine's available parallelism, 1 routes serially. Any value
    /// yields bit-identical trees.
    pub workers: usize,
    /// RNG seed for partitioning and the per-cluster route streams.
    pub seed: u64,
    /// Level-failure recovery: the degradation ladder. Disabled by
    /// default (fail fast, the historical behavior); see
    /// [`RecoveryPolicy::standard`].
    pub recovery: RecoveryPolicy,
    /// Cooperative per-level work budget for the route stage, in
    /// deterministic cost units (cluster members ×
    /// [`TopologyKind::cost_weight`]). `None` (default) = unlimited.
    /// Exceeding it yields [`CtsError::StageDeadline`] *before* any
    /// cluster routes — same cutoff on every run, at any worker count.
    pub route_budget: Option<u64>,
    /// Fault injection for the recovery test harness; empty (injecting
    /// nothing) by default. See [`crate::fault`].
    pub faults: FaultPlan,
    /// Cooperative cancellation flag, polled at cluster and SA-sweep
    /// granularity by every stage. Inert by default; clone the token
    /// before the run and [`cancel`](CancelToken::cancel) it from any
    /// thread (or wire it to Ctrl-C with
    /// [`install_sigint`](crate::cancel::install_sigint)) to stop the
    /// flow with [`CtsError::Cancelled`] within a bounded number of
    /// work units.
    pub cancel: CancelToken,
    /// Filesystem seam for every durable write the flow performs
    /// (checkpoint journal). The default is the real filesystem;
    /// install a [`FaultFs`](sllt_obs::FaultFs) to exercise the
    /// storage-failure paths deterministically. Excluded from the
    /// checkpoint fingerprint — the seam never changes the tree.
    pub vfs: Arc<dyn Vfs>,
    /// Live progress reporting: level start/done and within-level
    /// decile events with deterministic work-budget completion
    /// fractions (see [`sllt_obs::progress`]). Inert by default.
    /// Observation-only — attaching a sink never changes the tree.
    /// On a *failing* level attempt the serial route path stops at the
    /// first error while workers drain in-flight clusters, so decile
    /// events from failed attempts may differ across worker counts;
    /// every emitted fraction is still deterministic, and successful
    /// runs emit a worker-count-independent event set.
    pub progress: Progress,
}

impl Default for HierarchicalCts {
    /// The paper's configuration: CBS topologies (Greedy-Dist, ε = 0.2),
    /// SA refinement on, insertion-delay lower bound on.
    fn default() -> Self {
        HierarchicalCts {
            constraints: CtsConstraints::paper(),
            tech: Technology::n28(),
            lib: BufferLibrary::n28(),
            topology: TopologyKind::Cbs {
                scheme: TopologyScheme::GreedyDist,
                eps: 0.2,
            },
            use_sa: true,
            estimator: DelayEstimator::ChosenCell,
            level_skew_fraction: 0.5,
            cluster_latency_slack_ps: 6.0,
            equalize_sizing: true,
            sizing_window_fraction: 0.0,
            sizing_slack: 1.3,
            partition_restarts: 4,
            sa_chains: 2,
            partition_warm_mcf: true,
            workers: 0,
            seed: 0x05117C75,
            recovery: RecoveryPolicy::default(),
            route_budget: None,
            faults: FaultPlan::default(),
            cancel: CancelToken::default(),
            vfs: real_fs(),
            progress: Progress::none(),
        }
    }
}

/// Per-run state threaded through the stages: the built-cluster arena,
/// the current level's nodes, and the level counter.
struct FlowContext {
    clusters: Vec<BuiltCluster>,
    nodes: Vec<LevelNode>,
    level: usize,
}

impl FlowContext {
    /// Level 0: one node per design flip-flop, zero accumulated delay.
    fn seed(design: &Design) -> Self {
        FlowContext {
            clusters: Vec::new(),
            nodes: design
                .sinks
                .iter()
                .enumerate()
                .map(|(i, s)| LevelNode {
                    pos: s.pos,
                    cap_ff: s.cap_ff,
                    interval_ps: (0.0, 0.0),
                    source: NodeSource::DesignSink(i),
                })
                .collect(),
            level: 0,
        }
    }
}

/// Levels past this are a divergence, not a deep design: each level must
/// at least halve the node count.
const MAX_LEVELS: usize = 40;

/// How [`HierarchicalCts::run_core`] interacts with a checkpoint
/// journal.
enum CheckpointMode<'p> {
    /// No journal (the plain [`run`](HierarchicalCts::run) family).
    Off,
    /// Start a fresh journal at the path, truncating any existing file.
    Fresh(&'p std::path::Path),
    /// Load the journal, restore the last committed level, and append.
    Resume(&'p std::path::Path),
}

impl HierarchicalCts {
    /// Runs the flow on a design and returns the assembled, buffered
    /// clock tree. Sink nodes carry the design's sink indices.
    ///
    /// This never panics on user input: constraints, the design, and
    /// the buffer library are all checked up front, and per-level
    /// failures come back as typed [`CtsError`]s (or are retried by the
    /// [degradation ladder](RecoveryPolicy) when
    /// [`recovery`](Self::recovery) is enabled).
    ///
    /// # Errors
    ///
    /// [`CtsError::NoSinks`] for a design without flip-flops,
    /// [`CtsError::InvalidDesign`] when the sanitizer pre-flight finds a
    /// fatal defect (repair with [`sllt_design::sanitize::repair`]),
    /// [`CtsError::InvalidConstraints`] for out-of-range bounds,
    /// [`CtsError::EmptyBufferLibrary`] when no driver can be sized,
    /// [`CtsError::NoPartitionRestarts`] when the partition search has
    /// no candidates and recovery is disabled,
    /// [`CtsError::LevelRunaway`] when partitioning stops reducing the
    /// node count, per-level routing errors
    /// ([`CtsError::ClusterRoute`], [`CtsError::ClusterPanicked`],
    /// [`CtsError::StageDeadline`]) when recovery is disabled, and
    /// [`CtsError::LadderExhausted`] when it is enabled but every rung
    /// failed.
    pub fn run(&self, design: &Design) -> Result<ClockTree, CtsError> {
        self.run_with_observer(design, &mut NullObserver)
    }

    /// [`run`](Self::run), reporting each level and the final assembly
    /// to `observer` as the flow progresses.
    pub fn run_with_observer(
        &self,
        design: &Design,
        observer: &mut dyn FlowObserver,
    ) -> Result<ClockTree, CtsError> {
        self.run_with_telemetry(design, observer, &NullSink)
    }

    /// [`run_with_observer`](Self::run_with_observer), additionally
    /// recording spans and metrics into `sink`. With [`NullSink`] every
    /// instrumentation site reduces to one relaxed atomic load; with a
    /// [`RecordingSink`](sllt_obs::RecordingSink) the run's span tree
    /// and counters land in the sink's registry for post-run inspection
    /// or run-record serialization. Telemetry is observational only —
    /// the built tree is bit-identical either way, at any worker count.
    pub fn run_with_telemetry(
        &self,
        design: &Design,
        observer: &mut dyn FlowObserver,
        sink: &dyn TelemetrySink,
    ) -> Result<ClockTree, CtsError> {
        self.run_core(design, observer, sink, CheckpointMode::Off)
    }

    /// [`run`](Self::run), writing a crash-safe level checkpoint to
    /// `journal` after every committed level (truncating any existing
    /// file first). If the process dies — or the run is
    /// [cancelled](Self::cancel) — [`resume`](Self::resume) with the
    /// same configuration continues from the last committed level and
    /// produces a tree bit-identical to an uninterrupted run, at any
    /// worker count. See `DESIGN.md`, *Durability model*.
    pub fn run_checkpointed(
        &self,
        design: &Design,
        journal: &std::path::Path,
    ) -> Result<ClockTree, CtsError> {
        self.run_core(
            design,
            &mut NullObserver,
            &NullSink,
            CheckpointMode::Fresh(journal),
        )
    }

    /// [`run_checkpointed`](Self::run_checkpointed) with a progress
    /// observer.
    pub fn run_checkpointed_with_observer(
        &self,
        design: &Design,
        journal: &std::path::Path,
        observer: &mut dyn FlowObserver,
    ) -> Result<ClockTree, CtsError> {
        self.run_core(design, observer, &NullSink, CheckpointMode::Fresh(journal))
    }

    /// Resumes an interrupted [`run_checkpointed`](Self::run_checkpointed)
    /// from its journal: validates the journal against this configuration
    /// and the design (fingerprint), restores the last committed level,
    /// and continues — appending new level checkpoints to the same file.
    /// A torn final record (crash mid-append) is discarded and rebuilt.
    ///
    /// # Errors
    ///
    /// [`CtsError::Checkpoint`] when the journal is unreadable, corrupt
    /// beyond its final record, or was written by a different
    /// configuration or design; plus everything [`run`](Self::run) can
    /// return for the remaining levels.
    pub fn resume(
        &self,
        design: &Design,
        journal: &std::path::Path,
    ) -> Result<ClockTree, CtsError> {
        self.run_core(
            design,
            &mut NullObserver,
            &NullSink,
            CheckpointMode::Resume(journal),
        )
    }

    /// [`resume`](Self::resume) with a progress observer. Checkpointed
    /// levels are replayed through
    /// [`FlowObserver::on_resumed_level`] before live reports begin.
    pub fn resume_with_observer(
        &self,
        design: &Design,
        journal: &std::path::Path,
        observer: &mut dyn FlowObserver,
    ) -> Result<ClockTree, CtsError> {
        self.run_core(design, observer, &NullSink, CheckpointMode::Resume(journal))
    }

    /// The single engine loop behind every public entry point: validate,
    /// optionally restore checkpointed state, build levels (checkpointing
    /// each commit), assemble.
    fn run_core(
        &self,
        design: &Design,
        observer: &mut dyn FlowObserver,
        sink: &dyn TelemetrySink,
        mode: CheckpointMode<'_>,
    ) -> Result<ClockTree, CtsError> {
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
        // With recovery enabled the ladder floors restarts at
        // `min_restarts` on retry, so the misconfiguration is
        // survivable; without it, fail fast as always.
        if self.partition_restarts == 0 && !self.recovery.enabled {
            return Err(CtsError::NoPartitionRestarts);
        }
        // Declared before the spans: guards drop in reverse declaration
        // order, so every span closes before the scope merges its shard.
        let _scope = sink.registry().map(|r| r.install("main"));
        let _flow_span = sllt_obs::span("cts.flow");
        observer.on_flow_start(design.sinks.len(), self.effective_workers(usize::MAX));
        self.progress.emit(&ProgressEvent::FlowStart {
            sinks: design.sinks.len(),
        });
        // Deterministic completion model: a level's work is its node
        // count × the configured topology's cost weight (the same unit
        // as `route_budget`), and the geometric-tail estimate in
        // `WorkBudget` turns done-work into fractions. Resumed levels
        // are folded in below so a resumed run's fractions line up.
        let mut budget = WorkBudget::new();

        let mut cx = FlowContext::seed(design);
        let mut writer = match mode {
            CheckpointMode::Off => None,
            CheckpointMode::Fresh(path) => Some(CheckpointWriter::create(path, self, design)?),
            CheckpointMode::Resume(path) => {
                let ckpt = Checkpoint::load(path, self, design)?;
                // Replay the committed history, then continue from the
                // restored state. An empty journal (meta only) resumes
                // from the design sinks — identical to a fresh run.
                for report in ckpt.reports() {
                    budget.start_level(report.num_nodes as u64 * self.topology.cost_weight());
                    budget.finish_level();
                    observer.on_resumed_level(report);
                }
                if ckpt.levels() > 0 {
                    cx = FlowContext {
                        level: ckpt.levels(),
                        clusters: ckpt.clusters,
                        nodes: ckpt.nodes,
                    };
                }
                Some(CheckpointWriter::reopen(
                    self.vfs.as_ref(),
                    path,
                    ckpt.valid_len,
                    &cx.nodes,
                )?)
            }
        };
        while cx.nodes.len() > 1 {
            if self.cancel.poll() {
                return Err(CtsError::Cancelled);
            }
            if cx.level >= MAX_LEVELS {
                return Err(CtsError::LevelRunaway {
                    level: cx.level,
                    nodes: cx.nodes.len(),
                });
            }
            budget.start_level(cx.nodes.len() as u64 * self.topology.cost_weight());
            self.progress.emit(&ProgressEvent::LevelStart {
                level: cx.level,
                nodes: cx.nodes.len(),
                fraction: budget.fraction_at(0),
            });
            let report = self.build_level(&mut cx, &budget)?;
            let write_err = match writer.as_mut() {
                Some(w) => {
                    // The level just committed: the clusters it appended
                    // are the arena's last `num_clusters` entries and
                    // `cx.nodes` is the next level's node list.
                    let new = &cx.clusters[cx.clusters.len() - report.num_clusters..];
                    w.append_level(&report, &cx.nodes, new).err()
                }
                None => None,
            };
            if let Some(e) = write_err {
                // Storage failure is never fatal to a running flow: drop
                // the journal and continue in-memory-only. The run still
                // produces its tree; only crash-resumability is lost —
                // which the degradation event and counter make visible.
                let detail = e.to_string();
                writer = None;
                if sllt_obs::enabled() {
                    sllt_obs::count("cts.storage.degraded", 1);
                }
                observer.on_storage_degraded(cx.level, &detail);
                self.progress.emit(&ProgressEvent::StorageDegraded {
                    level: cx.level,
                    detail,
                });
            }
            observer.on_level(&report);
            // Exit fraction *before* folding the level in: with the
            // level's work done, (completed + W)/(completed + 2W) —
            // which equals the next level's entry fraction exactly when
            // levels halve, keeping the stream monotone.
            let exit_fraction = budget.fraction_at(budget.level_work());
            budget.finish_level();
            self.progress.emit(&ProgressEvent::LevelDone {
                level: cx.level,
                parents: report.num_clusters,
                fraction: exit_fraction,
            });
            if sllt_obs::enabled() {
                // Memory-footprint gauges, sampled once per committed
                // level on the coordinating thread (deterministic, so
                // the telemetry-equivalence contract holds): the
                // built-cluster arena's tree columns, in nodes / bytes.
                let nodes: usize = cx.clusters.iter().map(|c| c.tree.len()).sum();
                let bytes: usize = cx.clusters.iter().map(|c| c.tree.arena_bytes()).sum();
                sllt_obs::gauge("cts.arena.trees", cx.clusters.len() as f64);
                sllt_obs::gauge("cts.arena.nodes", nodes as f64);
                sllt_obs::gauge("cts.arena.bytes", bytes as f64);
            }
            cx.level += 1;
        }

        let assemble_span = sllt_obs::span("cts.assemble");
        let (tree, assemble_report) = assemble(self, design, &cx.clusters, &cx.nodes[0]);
        drop(assemble_span);
        observer.on_assemble(&assemble_report);
        self.progress.emit(&ProgressEvent::Done { fraction: 1.0 });
        Ok(tree)
    }

    /// Partitions, routes, and sizes one level, advancing `cx.nodes` to
    /// the next level's nodes.
    ///
    /// This is where the degradation ladder lives: each rung from
    /// [`RecoveryPolicy::ladder`] is tried in order against an
    /// *unmodified* `cx` — a failed attempt commits nothing — and the
    /// first success records every rung climbed in
    /// [`LevelReport::downgrades`]. Non-recoverable errors propagate
    /// immediately; exhausting the ladder yields
    /// [`CtsError::LadderExhausted`] wrapping the final attempt's error.
    fn build_level(
        &self,
        cx: &mut FlowContext,
        budget: &WorkBudget,
    ) -> Result<LevelReport, CtsError> {
        let _level_span = sllt_obs::span("cts.level");
        let steps = self.recovery.ladder(self.topology);
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
                relaxed.partition_restarts =
                    relaxed.partition_restarts.max(self.recovery.min_restarts);
                owned = relaxed;
                &owned
            };
            match Self::try_level(eff, cx, attempt, budget) {
                Ok((mut report, next, built)) => {
                    report.attempts = attempt + 1;
                    report.downgrades = downgrades;
                    if report.attempts > 1 && sllt_obs::enabled() {
                        sllt_obs::count("cts.recovery.levels_recovered", 1);
                        sllt_obs::count("cts.recovery.retries", attempt as u64);
                    }
                    cx.clusters.extend(built);
                    cx.nodes = next;
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
    /// but never mutates it: the caller commits the returned nodes and
    /// clusters only on success, so a failed attempt leaves the run
    /// exactly where it was.
    #[allow(clippy::type_complexity)]
    fn try_level(
        eff: &HierarchicalCts,
        cx: &FlowContext,
        attempt: usize,
        budget: &WorkBudget,
    ) -> Result<(LevelReport, Vec<LevelNode>, Vec<BuiltCluster>), CtsError> {
        let num_nodes = cx.nodes.len();
        let positions: Vec<Point> = cx.nodes.iter().map(|n| n.pos).collect();
        let caps: Vec<f64> = cx.nodes.iter().map(|n| n.cap_ff).collect();

        let t0 = Instant::now();
        let part = {
            let _s = sllt_obs::span("cts.partition");
            partition_level(eff, &positions, &caps, cx.level, attempt)?
        };
        let t1 = Instant::now();
        let routed = {
            let _s = sllt_obs::span("cts.route");
            route_clusters(
                eff,
                &cx.nodes,
                &part.assignment,
                part.k,
                cx.level,
                attempt,
                budget,
            )?
        };
        let t2 = Instant::now();

        let wirelength_um: f64 = routed.iter().map(|r| r.tree.wirelength()).sum();
        let load_cap_ff: f64 = routed.iter().map(|r| r.load).sum();
        let workers = eff.effective_workers(routed.len());

        let (next, built, stats) = {
            let _s = sllt_obs::span("cts.sizing");
            size_drivers(eff, routed, cx.clusters.len(), cx.level, attempt)?
        };
        let t3 = Instant::now();

        let (lo, hi) = next
            .iter()
            .fold((f64::INFINITY, f64::NEG_INFINITY), |acc, n| {
                (acc.0.min(n.interval_ps.0), acc.1.max(n.interval_ps.1))
            });
        let report = LevelReport {
            level: cx.level,
            num_nodes,
            num_clusters: next.len(),
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
            delay_spread_ps: if next.is_empty() { 0.0 } else { hi - lo },
            attempts: 1,
            downgrades: Vec::new(),
        };
        Ok((report, next, built))
    }

    /// Worker threads the route stage will actually use for `jobs`
    /// clusters: the configured [`workers`](Self::workers) (0 = the
    /// machine's available parallelism), never more than the job count.
    pub fn effective_workers(&self, jobs: usize) -> usize {
        let configured = if self.workers == 0 {
            std::thread::available_parallelism().map_or(1, |n| n.get())
        } else {
            self.workers
        };
        configured.min(jobs).max(1)
    }
}
