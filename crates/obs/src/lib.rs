//! Workspace-wide telemetry for the SLLT engine (`sllt-obs`).
//!
//! The build environment is offline, so — like `sllt-rng`, the in-repo
//! `proptest`, and the in-repo `criterion` — this crate has zero external
//! dependencies. It provides the three pieces the hierarchical CTS flow
//! instruments itself with:
//!
//! * **Spans** ([`span`], [`SpanRecord`]): hierarchical wall-time
//!   intervals with thread attribution, nesting under whatever span is
//!   open on the thread (workers inherit the spawner's current span).
//! * **A metrics registry** ([`Registry`], [`count`], [`gauge`],
//!   [`record`](fn@record)): named counters, gauges, and log₂-scale histograms.
//!   Each participating thread records into a private *shard* and the
//!   shard merges into the registry exactly once, on scope exit — so
//!   instrumentation never synchronizes mid-run and the engine's
//!   bit-identical parallel-routing guarantee is untouched.
//! * **A JSONL run record** ([`record::RunRecord`]): spans + metrics +
//!   the engine's report stream in a stable, validated schema.
//!
//! # Overhead contract
//!
//! With no telemetry scope installed anywhere in the process, every
//! instrumentation site costs one relaxed atomic load and a branch.
//! Instrumented hot loops accumulate into plain locals and emit once per
//! call, so even the enabled path adds no per-event map lookups.
//!
//! ```
//! use sllt_obs::{Registry, count, span};
//!
//! let registry = Registry::new();
//! {
//!     let _scope = registry.install("main");
//!     let _s = span("demo.stage");
//!     count("demo.widgets", 3);
//! }
//! assert_eq!(registry.snapshot().metrics.counter("demo.widgets"), 3);
//! ```

pub mod chrome;
pub mod journal;
pub mod json;
pub mod metrics;
pub mod progress;
pub mod record;
mod registry;
mod sink;
pub mod trace;
pub mod vfs;

pub use chrome::{chrome_trace, write_chrome};
pub use journal::{fnv1a64, DurableAppender, Journal, JournalError, JournalFrame, TornTail};
pub use json::Value;
pub use metrics::{fmt_rate, peak_rss_bytes, rate_per_sec, rss_bytes, Histogram, MetricsMap};
pub use progress::{latest_fraction, read_progress, WorkBudget};
pub use record::{RunRecord, SCHEMA_VERSION};
pub use registry::{
    count, current, current_span, enabled, gauge, record, record_hist, span, Collected, Registry,
    ScopeGuard, SpanGuard, SpanRecord,
};
pub use sink::{NullSink, RecordingSink, TelemetrySink};
pub use trace::{
    read_trace, TraceChunk, TraceEvent, TraceFile, TraceHub, TraceSlot, TraceWriter,
    DEFAULT_TRACE_CAPACITY, TRACE_SCHEMA,
};
pub use vfs::{real_fs, FaultConfig, FaultFs, FaultKind, RealFs, Vfs, VfsFile};
