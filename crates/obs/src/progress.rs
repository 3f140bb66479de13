//! Deterministic run-progress events and sinks.
//!
//! The flow engine reports how far along it is through a
//! [`ProgressSink`]: level start/done, within-level cluster progress,
//! and a final done event. Completion fractions come from a **work
//! budget**, not wall clocks, so the emitted values are identical at
//! any worker count (and on any machine): a cluster's work is
//! `members × topology cost weight` — the same deterministic unit the
//! engine's pre-route stage deadlines use — and the total-work estimate
//! for the whole run uses the level-halving invariant (every parent
//! absorbs ≥ 2 children, so all work after the current level is at
//! most one more current-level's worth: `total ≈ completed +
//! 2 × current_level_work`). Fractions are therefore conservative
//! early and converge to 1.0 at the end; they are non-decreasing
//! whenever levels actually halve (always, outside recovery fallback).
//!
//! Within a level, cluster completions are reported at *decile
//! crossings* of the level's work: whichever worker's completed
//! cluster pushes the done-work counter past `k/10` of the level
//! emits the `k`-th [`ProgressEvent::ClusterProgress`]. Every decile
//! is crossed exactly once, so the emitted **set** of events (and every
//! field in them) is worker-count independent — only the interleaving
//! order varies — which the determinism test in `sllt-cts` pins down.

use crate::journal::{read_journal, DurableAppender};
use crate::json::Value;
use std::fmt;
use std::path::Path;
use std::sync::{Arc, Mutex};

/// One progress report from the flow engine. All `fraction`s are in
/// `[0, 1]` and deterministic (work-budget based, never wall time).
#[derive(Debug, Clone, PartialEq)]
pub enum ProgressEvent {
    /// The run started: `sinks` leaf sinks at level 0.
    FlowStart {
        /// Number of leaf sinks the flow starts from.
        sinks: usize,
    },
    /// A level is about to run.
    LevelStart {
        /// Level index (0 = leaves).
        level: usize,
        /// Clock nodes entering the level (the work-budget base).
        nodes: usize,
        /// Completion fraction entering the level.
        fraction: f64,
    },
    /// The level's routed work crossed a decile boundary.
    ClusterProgress {
        /// Level index.
        level: usize,
        /// Which tenth of the level's work budget completed (1–10).
        tenths: u32,
        /// Completion fraction at the crossing.
        fraction: f64,
    },
    /// A level finished (routing + sizing committed).
    LevelDone {
        /// Level index.
        level: usize,
        /// Parents produced (= next level's point count).
        parents: usize,
        /// Completion fraction leaving the level.
        fraction: f64,
    },
    /// A durable write (checkpoint/journal) failed mid-run and the
    /// flow degraded to in-memory-only operation instead of aborting.
    /// Nonfatal: the run continues and still produces its tree, but a
    /// crash after this point loses resumability.
    StorageDegraded {
        /// Level index at which the write failed.
        level: usize,
        /// The storage error, for the record.
        detail: String,
    },
    /// The tree is assembled; the run is complete.
    Done {
        /// Always `1.0`.
        fraction: f64,
    },
}

impl ProgressEvent {
    /// The event's completion fraction (0 for [`ProgressEvent::FlowStart`]).
    pub fn fraction(&self) -> f64 {
        match self {
            ProgressEvent::FlowStart { .. } | ProgressEvent::StorageDegraded { .. } => 0.0,
            ProgressEvent::LevelStart { fraction, .. }
            | ProgressEvent::ClusterProgress { fraction, .. }
            | ProgressEvent::LevelDone { fraction, .. }
            | ProgressEvent::Done { fraction } => *fraction,
        }
    }

    /// The sealed-journal JSON shape (`{"t":"progress","ev":…}`).
    pub fn to_value(&self) -> Value {
        let base = Value::obj().with("t", "progress");
        match self {
            ProgressEvent::FlowStart { sinks } => {
                base.with("ev", "flow_start").with("sinks", *sinks)
            }
            ProgressEvent::LevelStart {
                level,
                nodes,
                fraction,
            } => base
                .with("ev", "level_start")
                .with("level", *level)
                .with("nodes", *nodes)
                .with("fraction", *fraction),
            ProgressEvent::ClusterProgress {
                level,
                tenths,
                fraction,
            } => base
                .with("ev", "clusters")
                .with("level", *level)
                .with("tenths", u64::from(*tenths))
                .with("fraction", *fraction),
            ProgressEvent::LevelDone {
                level,
                parents,
                fraction,
            } => base
                .with("ev", "level_done")
                .with("level", *level)
                .with("parents", *parents)
                .with("fraction", *fraction),
            ProgressEvent::StorageDegraded { level, detail } => base
                .with("ev", "storage_degraded")
                .with("level", *level)
                .with("detail", detail.as_str()),
            ProgressEvent::Done { fraction } => base.with("ev", "done").with("fraction", *fraction),
        }
    }

    /// Rebuilds an event from [`ProgressEvent::to_value`] output.
    pub fn from_value(v: &Value) -> Result<ProgressEvent, String> {
        if v.get("t").and_then(Value::as_str) != Some("progress") {
            return Err("not a progress record".to_string());
        }
        let ev = v
            .get("ev")
            .and_then(Value::as_str)
            .ok_or("progress record missing ev")?;
        let num = |key: &str| -> Result<u64, String> {
            v.get(key)
                .and_then(Value::as_u64)
                .ok_or_else(|| format!("progress record missing {key}"))
        };
        let fraction = || -> Result<f64, String> {
            v.get("fraction")
                .and_then(Value::as_f64)
                .ok_or_else(|| "progress record missing fraction".to_string())
        };
        match ev {
            "flow_start" => Ok(ProgressEvent::FlowStart {
                sinks: num("sinks")? as usize,
            }),
            "level_start" => Ok(ProgressEvent::LevelStart {
                level: num("level")? as usize,
                nodes: num("nodes")? as usize,
                fraction: fraction()?,
            }),
            "clusters" => Ok(ProgressEvent::ClusterProgress {
                level: num("level")? as usize,
                tenths: num("tenths")? as u32,
                fraction: fraction()?,
            }),
            "level_done" => Ok(ProgressEvent::LevelDone {
                level: num("level")? as usize,
                parents: num("parents")? as usize,
                fraction: fraction()?,
            }),
            "storage_degraded" => Ok(ProgressEvent::StorageDegraded {
                level: num("level")? as usize,
                detail: v
                    .get("detail")
                    .and_then(Value::as_str)
                    .ok_or("progress record missing detail")?
                    .to_string(),
            }),
            "done" => Ok(ProgressEvent::Done {
                fraction: fraction()?,
            }),
            other => Err(format!("unknown progress event {other:?}")),
        }
    }
}

/// Receives progress events. Implementations must tolerate concurrent
/// `emit` calls: within-level decile events come from whichever worker
/// crossed the boundary.
pub trait ProgressSink: Send + Sync {
    /// Handles one event. Must not panic (called from worker threads).
    fn emit(&self, ev: &ProgressEvent);
}

/// A cheap, clonable, optional handle to a [`ProgressSink`] — the form
/// the flow engine carries. The default (no sink) makes every `emit` a
/// no-op, so progress reporting is pay-for-use like telemetry.
#[derive(Clone, Default)]
pub struct Progress {
    sink: Option<Arc<dyn ProgressSink>>,
}

impl fmt::Debug for Progress {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Progress")
            .field("enabled", &self.sink.is_some())
            .finish()
    }
}

impl Progress {
    /// A handle delivering to `sink`.
    pub fn new(sink: Arc<dyn ProgressSink>) -> Progress {
        Progress { sink: Some(sink) }
    }

    /// The inert handle (every emit is a no-op).
    pub fn none() -> Progress {
        Progress::default()
    }

    /// Whether a sink is attached.
    pub fn enabled(&self) -> bool {
        self.sink.is_some()
    }

    /// Delivers one event, if a sink is attached.
    pub fn emit(&self, ev: &ProgressEvent) {
        if let Some(sink) = &self.sink {
            sink.emit(ev);
        }
    }
}

/// Collects events in memory (tests, and the CLI's `--progress`
/// summary).
#[derive(Debug, Default)]
pub struct CollectingProgress {
    events: Mutex<Vec<ProgressEvent>>,
}

impl CollectingProgress {
    /// An empty collector.
    pub fn new() -> CollectingProgress {
        CollectingProgress::default()
    }

    /// Everything emitted so far, in delivery order.
    pub fn snapshot(&self) -> Vec<ProgressEvent> {
        self.events.lock().expect("progress lock").clone()
    }
}

impl ProgressSink for CollectingProgress {
    fn emit(&self, ev: &ProgressEvent) {
        self.events.lock().expect("progress lock").push(ev.clone());
    }
}

/// Streams events into a sealed JSONL journal (a `slltd` job's
/// progress file, which the daemon tails for `status`/`watch`). Write
/// errors are swallowed after the first — progress must never fail a
/// run.
#[derive(Debug)]
pub struct JournalProgress {
    app: Mutex<Option<DurableAppender>>,
}

impl JournalProgress {
    /// Creates (or truncates) the progress journal at `path`.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors from creating the file.
    pub fn create(path: &Path) -> std::io::Result<JournalProgress> {
        Ok(JournalProgress {
            app: Mutex::new(Some(DurableAppender::create(path)?)),
        })
    }

    /// [`create`](Self::create) through an explicit filesystem seam
    /// (fault-injection coverage for the progress stream).
    ///
    /// # Errors
    ///
    /// Propagates filesystem (or injected) errors from creating the
    /// file.
    pub fn create_with(vfs: &dyn crate::vfs::Vfs, path: &Path) -> std::io::Result<JournalProgress> {
        Ok(JournalProgress {
            app: Mutex::new(Some(DurableAppender::create_with(vfs, path)?)),
        })
    }
}

impl ProgressSink for JournalProgress {
    fn emit(&self, ev: &ProgressEvent) {
        let mut app = self.app.lock().expect("progress journal lock");
        if let Some(a) = app.as_mut() {
            if a.append(&ev.to_value()).is_err() {
                // Disk went away mid-run: stop writing, keep running.
                *app = None;
            }
        }
    }
}

/// Reads back a [`JournalProgress`] file (intact prefix; a torn tail
/// is tolerated like any journal).
///
/// # Errors
///
/// Journal-level corruption or a malformed progress record.
pub fn read_progress(path: &Path) -> Result<Vec<ProgressEvent>, String> {
    let journal = read_journal(path).map_err(|e| e.to_string())?;
    journal
        .records
        .iter()
        .map(ProgressEvent::from_value)
        .collect()
}

/// The flow engine's deterministic completion model (module docs):
/// tracks completed work and the current level's budget, and converts
/// a done-work amount into a fraction of the estimated total.
#[derive(Debug, Clone, Default)]
pub struct WorkBudget {
    completed: u64,
    level_work: u64,
}

impl WorkBudget {
    /// A budget with nothing completed.
    pub fn new() -> WorkBudget {
        WorkBudget::default()
    }

    /// Enters a level whose clusters sum to `level_work` units.
    pub fn start_level(&mut self, level_work: u64) {
        self.level_work = level_work;
    }

    /// The current level's total work units.
    pub fn level_work(&self) -> u64 {
        self.level_work
    }

    /// Fraction with `done` units of the current level complete:
    /// `(completed + done) / (completed + 2 × level_work)` — the
    /// geometric-tail estimate. Returns 0 when nothing is known.
    pub fn fraction_at(&self, done: u64) -> f64 {
        let denom = self.completed + 2 * self.level_work;
        if denom == 0 {
            return 0.0;
        }
        (((self.completed + done.min(self.level_work)) as f64) / denom as f64).clamp(0.0, 1.0)
    }

    /// Marks the current level fully done, folding its work into
    /// `completed`.
    pub fn finish_level(&mut self) {
        self.completed += self.level_work;
        self.level_work = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_events() -> Vec<ProgressEvent> {
        vec![
            ProgressEvent::FlowStart { sinks: 1728 },
            ProgressEvent::LevelStart {
                level: 0,
                nodes: 1728,
                fraction: 0.0,
            },
            ProgressEvent::ClusterProgress {
                level: 0,
                tenths: 3,
                fraction: 0.15,
            },
            ProgressEvent::LevelDone {
                level: 0,
                parents: 96,
                fraction: 0.5,
            },
            ProgressEvent::StorageDegraded {
                level: 1,
                detail: "journal i/o error: No space left on device (os error 28)".into(),
            },
            ProgressEvent::Done { fraction: 1.0 },
        ]
    }

    #[test]
    fn events_round_trip_through_values() {
        for ev in sample_events() {
            assert_eq!(ProgressEvent::from_value(&ev.to_value()).unwrap(), ev);
        }
    }

    #[test]
    fn journal_sink_round_trips() {
        let path = std::env::temp_dir().join(format!("sllt_prog_rt_{}.jsonl", std::process::id()));
        let sink = JournalProgress::create(&path).unwrap();
        for ev in sample_events() {
            sink.emit(&ev);
        }
        drop(sink);
        assert_eq!(read_progress(&path).unwrap(), sample_events());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn inert_handle_is_a_noop() {
        let p = Progress::none();
        assert!(!p.enabled());
        p.emit(&ProgressEvent::Done { fraction: 1.0 });
    }

    #[test]
    fn work_budget_fractions_are_sane() {
        let mut b = WorkBudget::new();
        assert_eq!(b.fraction_at(0), 0.0);
        b.start_level(100);
        assert_eq!(b.fraction_at(0), 0.0);
        assert_eq!(b.fraction_at(50), 0.25);
        assert_eq!(b.fraction_at(100), 0.5);
        b.finish_level();
        // Second level half the size: entering fraction matches the
        // previous level's exit fraction exactly (work halved).
        b.start_level(50);
        assert_eq!(b.fraction_at(0), 0.5);
        assert_eq!(b.fraction_at(50), 0.75);
        b.finish_level();
        // Done-work overshoot clamps to the level budget.
        b.start_level(10);
        assert!(b.fraction_at(1000) <= 1.0);
    }
}
