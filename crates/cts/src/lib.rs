//! Hierarchical clock tree synthesis (paper §3).
//!
//! The complete system: per-level partitioning (balanced K-means +
//! min-cost flow, simulated-annealing refinement), routing topology
//! generation (CBS by default), and buffering (driver selection by load,
//! insertion-delay lower bound, critical-wirelength repeaters), plus the
//! two baseline flows the paper compares against and the full metric
//! evaluation behind Tables 6 and 7.
//!
//! * [`constraints`] — the design constraints of paper Table 5,
//! * [`flow`] — the paper's flow ("Ours"): [`flow::HierarchicalCts`],
//!   a staged engine coordinating `partition` → `route` (parallel
//!   across clusters) → `sizing` per level, then `assemble`, run
//!   through one entry point ([`HierarchicalCts::run_in`]) with the run
//!   plumbing in a [`RunContext`]; typed failures in [`error`], the
//!   [`FlowEvent`] stream in [`report`],
//! * [`baseline`] — `OpenRoadLike` (TritonCTS-style structural H-tree
//!   with per-level buffering) and `CommercialLike` (same hierarchical
//!   engine tuned the way commercial CTS behaves: tight skew targets,
//!   aggressive buffer sizing) — see `DESIGN.md` for the substitution
//!   rationale,
//! * [`eval`] — buffered-tree timing (Elmore wires + Eq. (6) buffers,
//!   slew propagation) and every Table 6/7 metric,
//! * [`ocv`] — Monte-Carlo on-chip-variation robustness analysis (the
//!   paper's §1 motivation, quantified).
//!
//! # Example
//!
//! ```
//! use sllt_cts::{flow::HierarchicalCts, constraints::CtsConstraints, eval::evaluate};
//! use sllt_design::DesignSpec;
//!
//! let design = DesignSpec::by_name("s35932").unwrap().instantiate();
//! let cts = HierarchicalCts::default();
//! let tree = cts.run(&design).expect("well-formed design");
//! let report = evaluate(&tree, &cts.tech, &cts.lib);
//! assert_eq!(report.num_sinks, design.num_ffs());
//! assert!(report.skew_ps <= CtsConstraints::paper().skew_ps);
//! ```

mod assemble;
pub mod baseline;
pub mod cancel;
pub mod checkpoint;
pub mod constraints;
pub mod error;
pub mod eval;
pub mod fault;
pub mod flow;
pub mod ocv;
mod partition;
pub mod recovery;
pub mod report;
mod route;
mod sizing;
pub mod telemetry;

pub use baseline::{commercial_like, open_road_like};
pub use cancel::CancelToken;
pub use checkpoint::{Checkpoint, CHECKPOINT_SCHEMA};
pub use constraints::CtsConstraints;
pub use error::CtsError;
pub use eval::{evaluate, TreeReport};
pub use fault::{FaultKind, FaultPlan, FaultStage, StageFault};
pub use flow::{CheckpointMode, HierarchicalCts, RunContext, TopologyKind};
pub use ocv::{derate_skew, ocv_analysis, OcvModel, OcvReport};
pub use recovery::{Downgrade, LadderStep, RecoveryPolicy};
pub use report::{
    AssembleReport, CollectingObserver, FlowEvent, FlowObserver, LevelReport, NullObserver,
    ProgressJournal, StageTimings,
};
pub use sllt_obs::{NullSink, RecordingSink, TelemetrySink};
pub use telemetry::{assemble_value, downgrade_value, level_value, run_record};
