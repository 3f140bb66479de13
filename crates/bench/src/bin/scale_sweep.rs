//! Sink-count scaling of the full hierarchical flow (the million-sink
//! data-layout numbers): wall time, per-sink cost, and peak RSS across
//! a sweep of square `grid<N>` designs.
//!
//! ```text
//! cargo run --release -p sllt-bench --bin scale_sweep \
//!     [-- --sizes 10000,100000,1000000] [--workers 0] [--json]
//!     [--no-sa] [--levels]
//! ```
//!
//! `--levels` prints a per-level partition/route breakdown — the first
//! place to look when a size scales worse than its neighbours.
//!
//! Sizes run ascending so the monotone `VmHWM` reading after each run
//! bounds that size's true peak. The sweep prints per-sink wall time —
//! near-constant per-sink cost across decades is the near-linear
//! scaling the SoA/CSR arena, binary checkpoints, and sharded level-0
//! partitioning exist to deliver.

use sllt_bench::{arg_parse, arg_value, emit_json, run_main, Table};
use sllt_cts::flow::HierarchicalCts;
use sllt_cts::{CollectingObserver, FlowEvent, FlowObserver};
use sllt_design::GridSpec;
use sllt_obs::{peak_rss_bytes, Value};
use std::process::ExitCode;
use std::time::Instant;

fn main() -> ExitCode {
    run_main(run)
}

/// Narrates a finished level to stderr — under `--levels`, long scaling
/// points should show where they are, not go dark for minutes.
fn narrate(ev: &FlowEvent) {
    if let FlowEvent::LevelDone { report, .. } = ev {
        eprintln!(
            "  L{}: {} nodes -> {} clusters, partition {:.3}s, route {:.3}s, \
             sizing {:.3}s, {} pads ({} attempts)",
            report.level,
            report.num_nodes,
            report.num_clusters,
            report.timings.partition.as_secs_f64(),
            report.timings.route.as_secs_f64(),
            report.timings.sizing.as_secs_f64(),
            report.pads,
            report.attempts,
        );
    }
}

fn run() -> Result<(), String> {
    let sizes: Vec<usize> = arg_value("--sizes")
        .unwrap_or_else(|| "10000,100000,1000000".into())
        .split(',')
        .map(|s| {
            s.trim()
                .parse::<usize>()
                .map_err(|_| format!("bad --sizes entry {s:?}"))
        })
        .collect::<Result<_, _>>()?;
    if sizes.windows(2).any(|w| w[0] >= w[1]) {
        return Err("--sizes must be strictly ascending (RSS readings are monotone)".into());
    }
    let workers: usize = arg_parse("--workers", 0);

    let mut table = Table::new(vec![
        "sinks",
        "levels",
        "wall (s)",
        "us/sink",
        "partition (s)",
        "route (s)",
        "sizing (s)",
        "peak RSS (MB)",
    ]);
    let mut rows: Vec<Value> = Vec::new();
    for &n in &sizes {
        let design = GridSpec::square(n).instantiate();
        let cts = HierarchicalCts {
            workers,
            use_sa: !sllt_bench::arg_flag("--no-sa"),
            ..HierarchicalCts::default()
        };
        let live = sllt_bench::arg_flag("--levels");
        let mut obs = CollectingObserver::new();
        let t0 = Instant::now();
        let tree = cts
            .run_with_observer(&design, &mut |ev: &FlowEvent| {
                if live {
                    narrate(ev);
                }
                obs.on_event(ev);
            })
            .map_err(|e| format!("grid{n}: flow failed: {e}"))?;
        let wall = t0.elapsed().as_secs_f64();
        let sinks = tree.sinks().len();
        if sinks != n {
            return Err(format!("grid{n}: built tree has {sinks} sinks"));
        }
        let rss = peak_rss_bytes();
        let us_per_sink = wall * 1e6 / n as f64;
        let stage = |f: fn(&sllt_cts::StageTimings) -> std::time::Duration| -> f64 {
            obs.levels
                .iter()
                .map(|l| f(&l.timings))
                .sum::<std::time::Duration>()
                .as_secs_f64()
        };
        let (part_s, route_s, sizing_s) = (
            stage(|t| t.partition),
            stage(|t| t.route),
            stage(|t| t.sizing),
        );
        table.row(vec![
            n.to_string(),
            obs.levels.len().to_string(),
            format!("{wall:.2}"),
            format!("{us_per_sink:.2}"),
            format!("{part_s:.2}"),
            format!("{route_s:.2}"),
            format!("{sizing_s:.2}"),
            rss.map_or("n/a".into(), |b| format!("{:.0}", b as f64 / 1e6)),
        ]);
        rows.push(
            Value::obj()
                .with("sinks", n as u64)
                .with("levels", obs.levels.len() as u64)
                .with("wall_s", wall)
                .with("us_per_sink", us_per_sink)
                .with("partition_s", part_s)
                .with("route_s", route_s)
                .with("sizing_s", sizing_s)
                .with("peak_rss_bytes", rss),
        );
        println!("grid{n}: {wall:.2}s ({us_per_sink:.2} us/sink)");
    }
    println!("\n{}", table.render());
    emit_json(
        "scale_sweep",
        vec![("sizes", Value::Arr(rows)), ("table", table.to_json())],
    );
    Ok(())
}
