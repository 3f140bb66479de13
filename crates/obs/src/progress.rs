//! Deterministic run progress: the completion model and the journal
//! reader.
//!
//! The flow engine reports how far along it is as completion fractions
//! on its event stream (`sllt_cts::FlowEvent`): level start/done,
//! within-level cluster deciles, and a final done. Fractions come from
//! a **work budget** ([`WorkBudget`]), not wall clocks, so the emitted
//! values are identical at any worker count (and on any machine): a
//! cluster's work is its member count, and the total-work estimate for
//! the whole run uses the level-halving
//! invariant (every parent absorbs ≥ 2 children, so all work after the
//! current level is at most one more current-level's worth: `total ≈
//! completed + 2 × current_level_work`). Fractions are therefore
//! conservative early and converge to 1.0 at the end; they are
//! non-decreasing whenever levels actually halve (always, outside
//! recovery fallback).
//!
//! Within a level, cluster completions are reported at *decile
//! crossings* of the level's work: the `k`-th decile event fires once
//! the routed work passes `k/10` of the level. Every decile is crossed
//! exactly once, so the emitted **set** of events (and every field in
//! them) is worker-count independent, which the determinism test in
//! `sllt-cts` pins down.
//!
//! A `slltd` job streams those events into a sealed JSONL *progress
//! journal* (`{"t":"progress","ev":…}` records, written by
//! `sllt_cts::ProgressJournal`); [`read_progress`] reads it back for
//! the daemon's `status`/`watch` replies.

use crate::journal::read_journal;
use crate::json::Value;
use std::path::Path;

/// Reads back a progress journal's records (intact prefix; a torn tail
/// is tolerated like any journal).
///
/// # Errors
///
/// Journal-level corruption.
pub fn read_progress(path: &Path) -> Result<Vec<Value>, String> {
    Ok(read_journal(path).map_err(|e| e.to_string())?.records)
}

/// The run's latest completion fraction: that of the last record that
/// carries one. A `storage_degraded` (or `flow_start`) record has none,
/// so a journal ending in one still reports the fraction reached.
pub fn latest_fraction(records: &[Value]) -> Option<f64> {
    records
        .iter()
        .rev()
        .find_map(|r| r.get("fraction").and_then(Value::as_f64))
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
    use crate::journal::DurableAppender;

    #[test]
    fn latest_fraction_survives_a_journal_ending_in_storage_degraded() {
        // The flow journals `storage_degraded` just before the level's
        // `level_done`; a status poll landing between the two must still
        // report the fraction reached, not 0.
        let path =
            std::env::temp_dir().join(format!("sllt_prog_tail_{}.jsonl", std::process::id()));
        let rec = |ev: &str| Value::obj().with("t", "progress").with("ev", ev);
        let mut app = DurableAppender::create(&path).unwrap();
        for r in [
            rec("flow_start").with("sinks", 1728u64),
            rec("level_start")
                .with("level", 0u64)
                .with("nodes", 1728u64)
                .with("fraction", 0.0),
            rec("clusters")
                .with("level", 0u64)
                .with("tenths", 10u64)
                .with("fraction", 0.5),
            rec("storage_degraded")
                .with("level", 0u64)
                .with("detail", "journal i/o error: No space left on device"),
        ] {
            app.append(&r).unwrap();
        }
        drop(app);
        let records = read_progress(&path).unwrap();
        assert_eq!(records.len(), 4);
        assert_eq!(latest_fraction(&records), Some(0.5));
        assert_eq!(latest_fraction(&records[..1]), None, "flow_start alone");
        std::fs::remove_file(&path).ok();
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
