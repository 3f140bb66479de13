//! Machine-readable run records for the hierarchical flow.
//!
//! Runs the paper's flow on the benchmark suite with a recording
//! telemetry sink, writes one validated JSONL run record per design
//! (`results/run_record_<design>.jsonl`: meta + level/assemble events +
//! span tree + merged counters/gauges/histograms), and summarizes the
//! sweep into `BENCH_cts.json` at the repo root (per-stage wall time,
//! wirelength, skew, and the deep-layer counters).
//!
//! ```text
//! cargo run --release -p sllt-bench --bin run_record [-- --design s35932]
//!     [--out BENCH_cts.json] [--force]
//! ```
//!
//! Every record is parsed back before it is written; a record that does
//! not round-trip bit-identically is a schema bug and exits nonzero.
//! The summary lands at `--out` (default `BENCH_cts.json`); when the
//! existing file carries a **newer** schema than this binary writes,
//! the overwrite is refused (exit nonzero) unless `--force` is given —
//! a stale toolchain must not silently downgrade the committed
//! baseline that `bench_diff` gates CI on.

use sllt_bench::{arg_flag, arg_value, run_main};
use sllt_cts::flow::HierarchicalCts;
use sllt_cts::{evaluate, run_record, CollectingObserver, RecordingSink};
use sllt_design::{design_by_name, Design, SUITE};
use sllt_obs::{rate_per_sec, RunRecord, Value};
use std::time::{Duration, Instant};

fn main() -> std::process::ExitCode {
    run_main(run)
}

/// A full sweep covers every placed suite design (paper Table 1) plus
/// one large synthetic grid point, so the recorded benchmark tracks the
/// sharded-partition / SoA-tree scale path as well as the paper
/// comparisons.
const SCALE_POINT: &str = "grid100000";

/// Refuses to clobber a benchmark summary written by a newer schema.
/// An unreadable or unparseable existing file does not block: the whole
/// point of regenerating is to repair it.
fn check_overwrite(path: &str) -> Result<(), String> {
    let Ok(text) = std::fs::read_to_string(path) else {
        return Ok(());
    };
    let Ok(existing) = sllt_obs::json::parse(&text) else {
        return Ok(());
    };
    let Some(schema) = existing.get("schema").and_then(Value::as_u64) else {
        return Ok(());
    };
    if schema > sllt_obs::SCHEMA_VERSION {
        return Err(format!(
            "{path} carries schema {schema}, newer than this binary's {}: refusing to \
             overwrite a baseline from a newer toolchain. Rebuild from the branch that \
             wrote it (or migrate the file), or pass --force to discard it.",
            sllt_obs::SCHEMA_VERSION
        ));
    }
    Ok(())
}

fn run() -> Result<(), String> {
    let out = arg_value("--out").unwrap_or_else(|| "BENCH_cts.json".into());
    if !arg_flag("--force") {
        check_overwrite(&out)?;
    }
    let designs: Vec<Design> = match arg_value("--design") {
        Some(name) => vec![design_by_name(&name)?],
        None => SUITE
            .iter()
            .map(|s| s.instantiate())
            .chain([design_by_name(SCALE_POINT)?])
            .collect(),
    };
    std::fs::create_dir_all("results").map_err(|e| format!("create results directory: {e}"))?;

    let mut summaries: Vec<Value> = Vec::new();
    for design in designs {
        let cts = HierarchicalCts::default();
        let sink = RecordingSink::new();
        let mut obs = CollectingObserver::new();
        let t0 = Instant::now();
        let tree = cts
            .run_with_telemetry(&design, &mut obs, &sink)
            .map_err(|e| format!("{}: flow failed: {e}", design.name))?;
        let wall = t0.elapsed();
        let report = evaluate(&tree, &cts.tech, &cts.lib);

        let meta = Value::obj()
            .with("design", design.name.as_str())
            .with("sinks", design.num_ffs())
            .with("seed", cts.seed)
            .with("levels", obs.levels.len());
        let rec = run_record(meta, &obs, sink.registry());
        let text = rec.to_jsonl();
        // Self-validation: what lands on disk must parse back into the
        // same byte stream, or the schema has drifted.
        match RunRecord::parse_jsonl(&text) {
            Ok(back) if back.to_jsonl() == text => {}
            Ok(_) => {
                return Err(format!("{}: run record did not round-trip", design.name));
            }
            Err(e) => {
                return Err(format!("{}: invalid run record: {e}", design.name));
            }
        }
        let path = format!("results/run_record_{}.jsonl", design.name);
        std::fs::write(&path, &text).map_err(|e| format!("write {path}: {e}"))?;
        println!(
            "{}: {} sinks, {} spans, {} counters -> {path}",
            design.name,
            design.num_ffs(),
            rec.spans.len(),
            rec.metrics.counters.len()
        );

        let stage = |f: fn(&sllt_cts::StageTimings) -> Duration| -> f64 {
            obs.levels
                .iter()
                .map(|l| f(&l.timings))
                .sum::<Duration>()
                .as_secs_f64()
                * 1e3
        };
        let mut counters = Value::obj();
        for (name, v) in &rec.metrics.counters {
            counters.set(name, Value::from(*v));
        }
        summaries.push(
            Value::obj()
                .with("design", design.name.as_str())
                .with("sinks", design.num_ffs())
                .with("levels", obs.levels.len())
                .with("wall_ms", wall.as_secs_f64() * 1e3)
                .with("partition_ms", stage(|t| t.partition))
                .with("route_ms", stage(|t| t.route))
                .with("sizing_ms", stage(|t| t.sizing))
                .with(
                    "assemble_ms",
                    obs.assemble.as_ref().map(|a| a.elapsed.as_secs_f64() * 1e3),
                )
                .with("clock_wl_um", report.clock_wl_um)
                .with("skew_ps", report.skew_ps)
                .with("max_latency_ps", report.max_latency_ps)
                .with("num_buffers", report.num_buffers)
                .with("clock_cap_ff", report.clock_cap_ff)
                // Rates are None (JSON null) on a sub-resolution window
                // rather than +inf.
                .with(
                    "merge_segments_per_sec",
                    rate_per_sec(rec.metrics.counter("route.dme.merge_segments"), wall),
                )
                .with(
                    "clusters_per_sec",
                    rate_per_sec(rec.metrics.counter("cts.route.clusters"), wall),
                )
                .with("counters", counters),
        );
    }

    let bench = Value::obj()
        .with("bench", "cts")
        .with("schema", sllt_obs::SCHEMA_VERSION)
        .with("designs", summaries);
    std::fs::write(&out, bench.encode() + "\n").map_err(|e| format!("write {out}: {e}"))?;
    println!("wrote {out}");
    Ok(())
}
