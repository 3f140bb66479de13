//! Benchmark regression gate: diff a fresh flow run against the
//! committed `BENCH_cts.json` baseline.
//!
//! The hierarchical flow is bit-deterministic (same seed, any worker
//! count), so everything the engine *counts* — clusters routed, MCF
//! augmentations, Lloyd iterations, merge segments, buffers inserted —
//! must match the committed baseline exactly; any drift means the
//! algorithm changed and the baseline (plus the change log) must be
//! regenerated deliberately. Wall times are machine noise and only
//! *warn* when they move past `--noise` (ratio vs the baseline).
//!
//! ```text
//! cargo run --release -p sllt-bench --bin bench_diff [-- --design s35932]
//!     [--baseline BENCH_cts.json] [--noise 2.0] [--inject-drift <counter>]
//! ```
//!
//! Exit is nonzero on any deterministic drift. `--inject-drift <name>`
//! bumps one fresh counter by 1 before comparing — CI's self-test that
//! the gate actually trips.

use sllt_bench::{arg_parse, arg_value, run_main, Table};
use sllt_cts::flow::HierarchicalCts;
use sllt_cts::{evaluate, CollectingObserver, RecordingSink};
use sllt_design::Design;
use sllt_obs::Value;
use std::collections::BTreeMap;
use std::time::Instant;

fn main() -> std::process::ExitCode {
    run_main(run)
}

/// A fresh-run summary in the same shape as one `BENCH_cts.json`
/// designs entry (the fields the diff consumes).
struct Fresh {
    sinks: usize,
    levels: usize,
    num_buffers: usize,
    wall_ms: f64,
    exact: BTreeMap<String, f64>,
    counters: BTreeMap<String, u64>,
}

fn fresh_run(design: &Design) -> Result<Fresh, String> {
    let cts = HierarchicalCts::default();
    let sink = RecordingSink::new();
    let mut obs = CollectingObserver::new();
    let t0 = Instant::now();
    let tree = cts
        .run_with_telemetry(design, &mut obs, &sink)
        .map_err(|e| format!("{}: flow failed: {e}", design.name))?;
    let wall = t0.elapsed();
    let report = evaluate(&tree, &cts.tech, &cts.lib);
    let metrics = sink.registry().snapshot().metrics;
    let mut exact = BTreeMap::new();
    exact.insert("clock_wl_um".into(), report.clock_wl_um);
    exact.insert("skew_ps".into(), report.skew_ps);
    exact.insert("max_latency_ps".into(), report.max_latency_ps);
    exact.insert("clock_cap_ff".into(), report.clock_cap_ff);
    Ok(Fresh {
        sinks: design.num_ffs(),
        levels: obs.levels.len(),
        num_buffers: report.num_buffers,
        wall_ms: wall.as_secs_f64() * 1e3,
        exact,
        counters: metrics.counters.into_iter().collect(),
    })
}

fn baseline_entry<'a>(bench: &'a Value, design: &str) -> Result<&'a Value, String> {
    let designs = bench
        .get("designs")
        .and_then(Value::as_arr)
        .ok_or("baseline has no designs array")?;
    designs
        .iter()
        .find(|d| d.get("design").and_then(Value::as_str) == Some(design))
        .ok_or_else(|| {
            format!("baseline has no entry for {design:?}; regenerate it with run_record")
        })
}

fn run() -> Result<(), String> {
    let baseline_path = arg_value("--baseline").unwrap_or_else(|| "BENCH_cts.json".into());
    let design_name = arg_value("--design").unwrap_or_else(|| "s35932".into());
    let noise: f64 = arg_parse("--noise", 2.0);
    let inject = arg_value("--inject-drift");

    let text = std::fs::read_to_string(&baseline_path)
        .map_err(|e| format!("read {baseline_path}: {e}"))?;
    let bench =
        sllt_obs::json::parse(&text).map_err(|e| format!("{baseline_path}: invalid JSON: {e}"))?;
    if bench.get("bench").and_then(Value::as_str) != Some("cts") {
        return Err(format!("{baseline_path}: not a cts benchmark summary"));
    }
    let schema = bench.get("schema").and_then(Value::as_u64).unwrap_or(0);
    if schema > sllt_obs::SCHEMA_VERSION {
        return Err(format!(
            "{baseline_path}: schema {schema} is newer than this binary's {} — \
             rebuild from the branch that wrote it",
            sllt_obs::SCHEMA_VERSION
        ));
    }
    let base = baseline_entry(&bench, &design_name)?;

    let design = sllt_design::design_by_name(&design_name)?;
    let mut fresh = fresh_run(&design)?;
    if let Some(name) = inject {
        *fresh.counters.entry(name.clone()).or_insert(0) += 1;
        eprintln!("self-test: injected +1 drift into counter {name:?}");
    }

    let mut drift = Table::new(vec!["field", "baseline", "fresh"]);
    let mut drifts = 0usize;
    let mut check_int = |field: &str, base_v: Option<u64>, fresh_v: u64| {
        if base_v != Some(fresh_v) {
            drifts += 1;
            drift.row(vec![
                field.to_string(),
                base_v.map_or("(missing)".into(), |v| v.to_string()),
                fresh_v.to_string(),
            ]);
        }
    };
    check_int(
        "sinks",
        base.get("sinks").and_then(Value::as_u64),
        fresh.sinks as u64,
    );
    check_int(
        "levels",
        base.get("levels").and_then(Value::as_u64),
        fresh.levels as u64,
    );
    check_int(
        "num_buffers",
        base.get("num_buffers").and_then(Value::as_u64),
        fresh.num_buffers as u64,
    );

    // Counters: the union of both key sets must agree exactly. A counter
    // present on one side only is drift too (an instrumentation site
    // appeared or vanished).
    let base_counters: BTreeMap<String, u64> = match base.get("counters") {
        Some(Value::Obj(members)) => members
            .iter()
            .filter_map(|(k, v)| v.as_u64().map(|n| (k.clone(), n)))
            .collect(),
        _ => BTreeMap::new(),
    };
    let keys: std::collections::BTreeSet<&String> =
        base_counters.keys().chain(fresh.counters.keys()).collect();
    for key in keys {
        let b = base_counters.get(key).copied();
        let f = fresh.counters.get(key).copied();
        if b != f {
            drifts += 1;
            drift.row(vec![
                format!("counters.{key}"),
                b.map_or("(missing)".into(), |v| v.to_string()),
                f.map_or("(missing)".into(), |v| v.to_string()),
            ]);
        }
    }

    // Deterministic floats: same code + same seed => same arithmetic.
    // A tiny relative tolerance absorbs decimal-text round-tripping,
    // nothing more.
    for (field, fresh_v) in &fresh.exact {
        let base_v = base.get(field).and_then(Value::as_f64);
        let same = base_v.is_some_and(|b| {
            let scale = b.abs().max(fresh_v.abs()).max(1.0);
            (b - fresh_v).abs() <= 1e-9 * scale
        });
        if !same {
            drifts += 1;
            drift.row(vec![
                field.clone(),
                base_v.map_or("(missing)".into(), |v| format!("{v}")),
                format!("{fresh_v}"),
            ]);
        }
    }

    // Wall time: machine-dependent, warn-only. Sub-100ms baselines are
    // all scheduler noise; skip the ratio check there.
    if let Some(base_wall) = base.get("wall_ms").and_then(Value::as_f64) {
        if base_wall.max(fresh.wall_ms) >= 100.0 {
            let ratio = fresh.wall_ms / base_wall.max(1e-9);
            if !(1.0 / noise..=noise).contains(&ratio) {
                eprintln!(
                    "warning: {design_name} wall time moved {ratio:.2}x \
                     ({base_wall:.1} ms -> {:.1} ms, noise threshold {noise}x)",
                    fresh.wall_ms
                );
            }
        }
    }

    if drifts > 0 {
        eprintln!("{}", drift.render());
        return Err(format!(
            "{design_name}: {drifts} deterministic field(s) drifted from {baseline_path}; \
             if the change is intentional, regenerate the baseline with run_record"
        ));
    }
    println!(
        "{design_name}: {} counters and all deterministic metrics match {baseline_path}",
        fresh.counters.len()
    );
    Ok(())
}
