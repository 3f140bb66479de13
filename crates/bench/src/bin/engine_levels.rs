//! The staged engine, level by level: per-level cluster counts, routed
//! wirelength, and stage wall times, plus a route-stage scaling sweep
//! across worker counts (the numbers behind EXPERIMENTS.md).
//!
//! ```text
//! cargo run --release -p sllt-bench --bin engine_levels [-- <design-name>]
//! ```
//!
//! `<design-name>` is a placed suite design (`s38584`, …) or a
//! synthetic `grid<N>` (e.g. `grid100000`) for scaling looks.

use sllt_bench::{emit_json, run_main, Table};
use sllt_cts::flow::HierarchicalCts;
use sllt_cts::{level_value, CollectingObserver, RecordingSink};
use sllt_obs::Value;
use std::process::ExitCode;

fn main() -> ExitCode {
    run_main(run)
}

fn run() -> Result<(), String> {
    let name = std::env::args()
        .skip(1)
        .find(|a| !a.starts_with("--"))
        .unwrap_or_else(|| "s38584".to_string());
    let design = sllt_design::design_by_name(&name)?;
    println!("{}: {} FFs", design.name, design.num_ffs());

    let cts = HierarchicalCts::default();
    let mut obs = CollectingObserver::new();
    let sink = RecordingSink::new();
    cts.run_with_telemetry(&design, &mut obs, &sink)
        .map_err(|e| format!("flow failed: {e}"))?;
    let metrics = sink.registry().snapshot().metrics;
    println!(
        "\nper-level engine report:\n{}",
        obs.render_with_metrics(Some(&metrics))
    );
    let levels: Vec<Value> = obs.levels.iter().map(level_value).collect();

    // Route-stage scaling: identical trees, different worker counts.
    // Swept to at least 4 so the determinism/overhead picture is visible
    // even on single-core machines (where no speedup is possible).
    let max_workers = std::thread::available_parallelism()
        .map_or(4, |n| n.get())
        .max(4);
    let mut table = Table::new(vec!["workers", "route (ms)", "speedup", "total (ms)"]);
    let mut serial_route_ms = 0.0;
    let mut workers = 1usize;
    while workers <= max_workers {
        let cts = HierarchicalCts {
            workers,
            ..HierarchicalCts::default()
        };
        let mut obs = CollectingObserver::new();
        cts.run_with_observer(&design, &mut obs)
            .map_err(|e| format!("flow failed at {workers} workers: {e}"))?;
        let route_ms = obs.route_time().as_secs_f64() * 1e3;
        let total_ms = obs
            .levels
            .iter()
            .map(|l| l.timings.total().as_secs_f64() * 1e3)
            .sum::<f64>();
        if workers == 1 {
            serial_route_ms = route_ms;
        }
        // Sub-precision route stages happen on tiny designs; report no
        // speedup rather than a division-by-zero artifact.
        let speedup = if route_ms > 0.0 {
            format!("{:.2}x", serial_route_ms / route_ms)
        } else {
            "—".to_string()
        };
        table.row(vec![
            workers.to_string(),
            format!("{route_ms:.1}"),
            speedup,
            format!("{total_ms:.1}"),
        ]);
        workers *= 2;
    }
    println!(
        "route-stage scaling on {}:\n{}",
        design.name,
        table.render()
    );
    emit_json(
        "engine_levels",
        vec![
            ("design", design.name.as_str().into()),
            ("levels", levels.into()),
            ("scaling", table.to_json()),
        ],
    );
    Ok(())
}
