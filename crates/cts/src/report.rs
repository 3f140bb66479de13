//! Flow observability: one typed event stream.
//!
//! The engine reports everything an observer can see as a single
//! stream of [`FlowEvent`]s delivered to the run's [`FlowObserver`]:
//! flow start, per-level start, within-level cluster deciles, one
//! [`LevelReport`] per committed bottom-up level, storage degradation,
//! and the final [`AssembleReport`]. Benchmark tables, the CLI's
//! `--progress` display, the `slltd` progress journal
//! ([`ProgressJournal`]), and the tie-out tests all hang off this one
//! stream instead of re-instrumenting the engine. Completion fractions
//! are deterministic work-budget values (see [`sllt_obs::progress`]).
//! Spans and counters are metrics, not events: they go to the run's
//! telemetry sink.

use crate::recovery::Downgrade;
use sllt_obs::journal::seal;
use sllt_obs::Value;
use std::fs::File;
use std::io::Write;
use std::path::Path;
use std::time::Duration;

/// Wall time spent in each stage of one level.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct StageTimings {
    /// Balanced K-means (+ min-cost flow) and SA refinement.
    pub partition: Duration,
    /// Per-cluster topology generation and timing aggregation — the
    /// parallel stage.
    pub route: Duration,
    /// Joint driver sizing and delay padding.
    pub sizing: Duration,
}

impl StageTimings {
    /// Total wall time across the three stages.
    pub fn total(&self) -> Duration {
        self.partition + self.route + self.sizing
    }
}

/// What one bottom-up level did.
#[derive(Debug, Clone, PartialEq)]
pub struct LevelReport {
    /// Level index (0 = the design flip-flops).
    pub level: usize,
    /// Clock nodes entering the level.
    pub num_nodes: usize,
    /// Clusters built (= nodes leaving the level).
    pub num_clusters: usize,
    /// Threads the route stage ran on, the calling thread included.
    pub workers: usize,
    /// Per-stage wall time.
    pub timings: StageTimings,
    /// Total routed wirelength of this level's cluster trees, µm.
    pub wirelength_um: f64,
    /// Total load each cluster driver sees (pins + wire), fF.
    pub load_cap_ff: f64,
    /// Input capacitance this level presents to the next one — every
    /// driver and delay-padding buffer inserted here, fF.
    pub driver_input_cap_ff: f64,
    /// Area of the drivers and pads inserted at this level, µm².
    pub driver_area_um2: f64,
    /// Delay-padding buffers inserted across all clusters.
    pub pads: usize,
    /// Spread of the accumulated delay intervals handed upward, ps:
    /// max slowest − min fastest over the level's output nodes.
    pub delay_spread_ps: f64,
    /// How many attempts the level took (1 = first try succeeded; >1
    /// means the degradation ladder climbed).
    pub attempts: usize,
    /// Every ladder rung climbed before the level succeeded, in order.
    /// Empty for a clean level.
    pub downgrades: Vec<Downgrade>,
}

/// What the final assembly did.
#[derive(Debug, Clone, PartialEq)]
pub struct AssembleReport {
    /// Wire from the clock root to the top cluster's driver, µm.
    pub trunk_wl_um: f64,
    /// Critical-wirelength repeaters inserted on long common wires.
    pub repeaters: usize,
    /// Input capacitance of those repeaters, fF.
    pub repeater_input_cap_ff: f64,
    /// Wall time of assembly + repeater insertion.
    pub elapsed: Duration,
}

/// One event of a run, in delivery order. Every `fraction` is in
/// `[0, 1]` and deterministic (work-budget based, never wall time).
#[derive(Debug, Clone, PartialEq)]
pub enum FlowEvent {
    /// The flow is starting.
    FlowStart {
        /// Leaf sinks the flow starts from.
        sinks: usize,
    },
    /// A level is about to run.
    LevelStart {
        /// Level index (0 = the design flip-flops).
        level: usize,
        /// Clock nodes entering the level (the work-budget base).
        nodes: usize,
        /// Completion fraction entering the level.
        fraction: f64,
    },
    /// The level's routed work crossed a decile boundary. Sent live by
    /// whichever route worker crossed it; each decile exactly once.
    ClusterDecile {
        /// Level index.
        level: usize,
        /// Which tenth of the level's work completed (1–10).
        tenths: u32,
        /// Completion fraction at the crossing.
        fraction: f64,
    },
    /// A level committed — or, with `resumed`, was restored from a
    /// checkpoint (replayed in order before any live level).
    LevelDone {
        /// What the level did.
        report: LevelReport,
        /// Completion fraction leaving the level.
        fraction: f64,
        /// Restored from the checkpoint journal, not built by this run.
        resumed: bool,
    },
    /// A checkpoint write failed at `level` and the flow degraded to
    /// in-memory-only operation. Nonfatal: the run continues and still
    /// produces its tree, but a crash after this point loses
    /// resumability. Sent before that level's `LevelDone`.
    StorageDegraded {
        /// Level whose checkpoint write failed.
        level: usize,
        /// The storage error, for the record.
        detail: String,
    },
    /// The tree is assembled and buffered; the run is complete.
    Assembled {
        /// What the assembly did.
        report: AssembleReport,
    },
}

impl FlowEvent {
    /// The event's progress-journal record (`{"t":"progress","ev":…}`,
    /// record names `flow_start`, `level_start`, `clusters`,
    /// `level_done`, `storage_degraded`, `done`). Carries no wall-clock
    /// field, so it is the form to compare across runs. `None` for a
    /// resumed level: the journal records only work this run did.
    pub fn progress_record(&self) -> Option<Value> {
        let base = Value::obj().with("t", "progress");
        Some(match self {
            FlowEvent::FlowStart { sinks } => base.with("ev", "flow_start").with("sinks", *sinks),
            FlowEvent::LevelStart {
                level,
                nodes,
                fraction,
            } => base
                .with("ev", "level_start")
                .with("level", *level)
                .with("nodes", *nodes)
                .with("fraction", *fraction),
            FlowEvent::ClusterDecile {
                level,
                tenths,
                fraction,
            } => base
                .with("ev", "clusters")
                .with("level", *level)
                .with("tenths", u64::from(*tenths))
                .with("fraction", *fraction),
            FlowEvent::LevelDone { resumed: true, .. } => return None,
            FlowEvent::LevelDone {
                report, fraction, ..
            } => base
                .with("ev", "level_done")
                .with("level", report.level)
                .with("parents", report.num_clusters)
                .with("fraction", *fraction),
            FlowEvent::StorageDegraded { level, detail } => base
                .with("ev", "storage_degraded")
                .with("level", *level)
                .with("detail", detail.as_str()),
            FlowEvent::Assembled { .. } => base.with("ev", "done").with("fraction", 1.0),
        })
    }
}

/// Receives a run's [`FlowEvent`] stream. `Send` because
/// [`FlowEvent::ClusterDecile`] arrives from route worker threads (one
/// at a time: the engine serializes delivery). Any
/// `FnMut(&FlowEvent) + Send` closure is an observer.
pub trait FlowObserver: Send {
    /// Handles one event. Must not panic.
    fn on_event(&mut self, event: &FlowEvent);
}

impl<F: FnMut(&FlowEvent) + Send> FlowObserver for F {
    fn on_event(&mut self, event: &FlowEvent) {
        self(event);
    }
}

/// Discards everything — what [`run`](crate::flow::HierarchicalCts::run)
/// uses internally.
#[derive(Debug, Clone, Copy, Default)]
pub struct NullObserver;

impl FlowObserver for NullObserver {
    fn on_event(&mut self, _: &FlowEvent) {}
}

/// Keeps every report for post-run inspection and rendering.
#[derive(Debug, Clone, Default)]
pub struct CollectingObserver {
    /// One entry per level, bottom-up.
    pub levels: Vec<LevelReport>,
    /// The assembly report, once the flow finishes.
    pub assemble: Option<AssembleReport>,
}

impl CollectingObserver {
    /// A fresh, empty collector.
    pub fn new() -> Self {
        Self::default()
    }

    /// Total routed wirelength across all levels plus the root trunk, µm.
    /// Matches the assembled tree's wirelength (see the tie-out test).
    pub fn total_wirelength_um(&self) -> f64 {
        self.levels.iter().map(|l| l.wirelength_um).sum::<f64>()
            + self.assemble.as_ref().map_or(0.0, |a| a.trunk_wl_um)
    }

    /// Input capacitance of every buffer the flow inserted (drivers,
    /// pads, repeaters), fF.
    pub fn total_buffer_input_cap_ff(&self) -> f64 {
        self.levels
            .iter()
            .map(|l| l.driver_input_cap_ff)
            .sum::<f64>()
            + self
                .assemble
                .as_ref()
                .map_or(0.0, |a| a.repeater_input_cap_ff)
    }

    /// Wall time of the route stage summed over levels.
    pub fn route_time(&self) -> Duration {
        self.levels.iter().map(|l| l.timings.route).sum()
    }

    /// [`render`](Self::render) plus a per-cluster latency footer when
    /// the run recorded telemetry: the `cts.route.cluster_us` histogram's
    /// p50/p95/p99 (log₂-bucket estimates, within 2× — see
    /// [`sllt_obs::Histogram::percentile`]).
    pub fn render_with_metrics(&self, metrics: Option<&sllt_obs::MetricsMap>) -> String {
        let mut out = self.render();
        if let Some(h) = metrics.and_then(|m| m.histograms.get("cts.route.cluster_us")) {
            if let (Some(p50), Some(p95), Some(p99)) = (h.p50(), h.p95(), h.p99()) {
                out.push_str(&format!(
                    "route cluster us: p50 {p50} p95 {p95} p99 {p99} (n={}, log2-bucket estimate)\n",
                    h.count(),
                ));
            }
        }
        out
    }

    /// A fixed-width per-level table (levels bottom-up, then a totals
    /// footer and the assembly line). Milliseconds are always rendered
    /// `{:>10.2}` so columns stay aligned at any magnitude up to ~10 s.
    pub fn render(&self) -> String {
        let ms = |d: Duration| format!("{:>10.2}", d.as_secs_f64() * 1e3);
        let mut out = String::new();
        out.push_str(&format!(
            "{:>5} {:>7} {:>9} {:>8} {:>11} {:>10} {:>6} {:>11} {:>10} {:>10} {:>10}\n",
            "level",
            "nodes",
            "clusters",
            "workers",
            "WL (um)",
            "load (fF)",
            "pads",
            "spread(ps)",
            "part (ms)",
            "route (ms)",
            "size (ms)",
        ));
        for l in &self.levels {
            out.push_str(&format!(
                "{:>5} {:>7} {:>9} {:>8} {:>11.1} {:>10.1} {:>6} {:>11.2} {} {} {}\n",
                l.level,
                l.num_nodes,
                l.num_clusters,
                l.workers,
                l.wirelength_um,
                l.load_cap_ff,
                l.pads,
                l.delay_spread_ps,
                ms(l.timings.partition),
                ms(l.timings.route),
                ms(l.timings.sizing),
            ));
            // Recovered levels annotate their rungs right under the row,
            // so a degraded run is visible in the default table.
            for d in &l.downgrades {
                let action = match d.topology {
                    Some(t) => format!("fall back to {t} (skew x{})", d.skew_factor),
                    None => format!("relax skew x{}", d.skew_factor),
                };
                out.push_str(&format!(
                    "      downgrade[{}]: {action} after: {}\n",
                    d.attempt, d.trigger
                ));
            }
        }
        // Totals footer: stage wall time, wirelength, and load summed
        // over levels (the assembly trunk is reported on its own line).
        let sum_wl: f64 = self.levels.iter().map(|l| l.wirelength_um).sum();
        let sum_load: f64 = self.levels.iter().map(|l| l.load_cap_ff).sum();
        let sum_pads: usize = self.levels.iter().map(|l| l.pads).sum();
        let stage = |f: fn(&StageTimings) -> Duration| -> Duration {
            self.levels.iter().map(|l| f(&l.timings)).sum()
        };
        out.push_str(&format!(
            "{:>5} {:>7} {:>9} {:>8} {:>11.1} {:>10.1} {:>6} {:>11} {} {} {}\n",
            "total",
            "",
            "",
            "",
            sum_wl,
            sum_load,
            sum_pads,
            "",
            ms(stage(|t| t.partition)),
            ms(stage(|t| t.route)),
            ms(stage(|t| t.sizing)),
        ));
        if let Some(a) = &self.assemble {
            out.push_str(&format!(
                "assemble: trunk {:.1} um, {} repeaters, {} ms\n",
                a.trunk_wl_um,
                a.repeaters,
                ms(a.elapsed).trim_start(),
            ));
        }
        out
    }
}

/// Resumed levels are collected too, so a resumed run reads as a
/// complete level sequence.
impl FlowObserver for CollectingObserver {
    fn on_event(&mut self, event: &FlowEvent) {
        match event {
            FlowEvent::LevelDone { report, .. } => self.levels.push(report.clone()),
            FlowEvent::Assembled { report } => self.assemble = Some(report.clone()),
            _ => {}
        }
    }
}

/// Streams every event's [progress record](FlowEvent::progress_record)
/// into a sealed JSONL journal — a `slltd` job's progress file, which
/// the daemon tails for `status`/`watch`. Each record is one unbuffered
/// `write`, so a reader sees it at once, but nothing is fsync'd: no one
/// reads a progress journal after a crash (a new attempt truncates it,
/// and job state lives in the daemon's journal and the level
/// checkpoint), and the journal reader already tolerates the torn tail
/// a crash can leave. Write errors stop the journal after the first:
/// progress must never fail a run.
#[derive(Debug)]
pub struct ProgressJournal {
    file: Option<File>,
}

impl ProgressJournal {
    /// Creates (or truncates) the progress journal at `path`.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors from creating the file.
    pub fn create(path: &Path) -> std::io::Result<ProgressJournal> {
        Ok(ProgressJournal {
            file: Some(File::create(path)?),
        })
    }
}

impl FlowObserver for ProgressJournal {
    fn on_event(&mut self, event: &FlowEvent) {
        if let (Some(file), Some(record)) = (self.file.as_mut(), event.progress_record()) {
            let mut line = seal(&record);
            line.push('\n');
            if file.write_all(line.as_bytes()).is_err() {
                // Disk went away mid-run: stop writing, keep running.
                self.file = None;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn level(l: usize, wl: f64) -> LevelReport {
        LevelReport {
            level: l,
            num_nodes: 10,
            num_clusters: 2,
            workers: 1,
            timings: StageTimings::default(),
            wirelength_um: wl,
            load_cap_ff: 5.0,
            driver_input_cap_ff: 1.5,
            driver_area_um2: 2.0,
            pads: 0,
            delay_spread_ps: 0.5,
            attempts: 1,
            downgrades: Vec::new(),
        }
    }

    fn done(report: LevelReport, resumed: bool) -> FlowEvent {
        FlowEvent::LevelDone {
            report,
            fraction: 0.5,
            resumed,
        }
    }

    fn assembled() -> FlowEvent {
        FlowEvent::Assembled {
            report: AssembleReport {
                trunk_wl_um: 10.0,
                repeaters: 3,
                repeater_input_cap_ff: 4.5,
                elapsed: Duration::ZERO,
            },
        }
    }

    #[test]
    fn collector_accumulates_in_order() {
        let mut obs = CollectingObserver::new();
        obs.on_event(&done(level(0, 100.0), true));
        obs.on_event(&done(level(1, 40.0), false));
        obs.on_event(&assembled());
        assert_eq!(obs.levels.len(), 2, "resumed levels are collected too");
        assert!((obs.total_wirelength_um() - 150.0).abs() < 1e-12);
        assert!((obs.total_buffer_input_cap_ff() - 7.5).abs() < 1e-12);
        let table = obs.render();
        assert!(table.contains("level") && table.contains("repeaters"));
    }

    #[test]
    fn render_includes_totals_footer() {
        let mut obs = CollectingObserver::new();
        obs.levels = vec![level(0, 100.0), level(1, 40.0)];
        let table = obs.render();
        let total = table
            .lines()
            .find(|l| l.trim_start().starts_with("total"))
            .expect("totals footer present");
        assert!(total.contains("140.0"), "WL sum missing: {total}");
        assert!(total.contains("10.0"), "load sum missing: {total}");
    }

    #[test]
    fn render_annotates_recovered_levels() {
        let mut obs = CollectingObserver::new();
        let mut l = level(0, 50.0);
        l.attempts = 2;
        l.downgrades.push(Downgrade {
            attempt: 1,
            skew_factor: 1.5,
            topology: None,
            trigger: "routing cluster 3 at level 0 failed".into(),
        });
        obs.levels.push(l);
        let table = obs.render();
        assert!(table.contains("downgrade[1]"), "{table}");
        assert!(table.contains("relax skew x1.5"), "{table}");
        assert!(table.contains("cluster 3"), "{table}");
    }

    #[test]
    fn progress_journal_writes_the_progress_records() {
        let path =
            std::env::temp_dir().join(format!("sllt_progress_rt_{}.jsonl", std::process::id()));
        let degraded = FlowEvent::StorageDegraded {
            level: 1,
            detail: "journal i/o error: No space left on device (os error 28)".into(),
        };
        let live = done(level(1, 1.0), false);
        let mut journal = ProgressJournal::create(&path).unwrap();
        for ev in [done(level(0, 1.0), true), degraded, live, assembled()] {
            journal.on_event(&ev);
        }
        drop(journal);
        let records = sllt_obs::read_progress(&path).unwrap();
        let encoded: Vec<String> = records.iter().map(Value::encode).collect();
        assert_eq!(encoded.len(), 3, "resumed levels are not journaled");
        assert!(encoded[0].starts_with(r#"{"t":"progress","ev":"storage_degraded","level":1,"#));
        assert!(encoded[1].starts_with(
            r#"{"t":"progress","ev":"level_done","level":1,"parents":2,"fraction":0.5"#
        ));
        assert!(encoded[2].starts_with(r#"{"t":"progress","ev":"done","fraction":1"#));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn progress_records_reach_the_file_as_their_events_do() {
        // `watch` tails a live journal: every record must be readable as
        // soon as its event is observed, not when the journal closes.
        let path =
            std::env::temp_dir().join(format!("sllt_progress_live_{}.jsonl", std::process::id()));
        let mut journal = ProgressJournal::create(&path).unwrap();
        for k in 1..=4 {
            journal.on_event(&done(level(k, 1.0), false));
            assert_eq!(sllt_obs::read_progress(&path).unwrap().len(), k);
        }
        journal.on_event(&assembled());
        assert_eq!(sllt_obs::read_progress(&path).unwrap().len(), 5);
        drop(journal);
        std::fs::remove_file(&path).ok();
    }
}
