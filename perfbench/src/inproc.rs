//! The in-process workloads: each pass takes the workload's in-memory
//! designs through `HierarchicalCts::run_with_observer`,
//! `sllt_cts::evaluate` and `sllt_tree::io::write_tree` to tree files.

use crate::checks;
use crate::inputs;
use crate::stats::{median, percentile, supported_percentile};
use crate::{peak_rss_mb, Layers, Qor, Report};
use sllt_cts::{
    evaluate, CollectingObserver, HierarchicalCts, NullObserver, RecordingSink, TreeReport,
};
use sllt_design::Design;
use std::collections::BTreeMap;
use std::io::{BufWriter, Write};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Route workers of the in-process flow: the machine the baseline was
/// taken on has two cores. Fixed, so a run on a larger machine measures
/// the same configuration.
pub const FLOW_WORKERS: usize = 2;

/// Read + sanitize repeats at least this often and for at least
/// [`SETUP_MIN_S`]; `setup_s` is the median.
const SETUP_REPS: usize = 3;
const SETUP_MIN_S: f64 = 1.0;

/// One design taken to a tree file.
pub struct Built {
    pub report: TreeReport,
    pub flow_s: f64,
    pub eval_s: f64,
    pub write_s: f64,
    pub tree_bytes: u64,
    /// Level and assembly reports (traced builds only).
    pub obs: CollectingObserver,
    /// `RecordingSink` counters (traced builds only).
    pub counters: BTreeMap<String, u64>,
}

impl Built {
    /// In-memory design → tree file written.
    pub fn latency_s(&self) -> f64 {
        self.flow_s + self.eval_s + self.write_s
    }
}

/// Builds, evaluates and writes one tree. A traced build records the
/// flow's level reports and work counters; `check` verifies afterwards,
/// outside the timed span, that the tree reaches every sink once.
pub fn build(
    cts: &HierarchicalCts,
    design: &Design,
    out: &Path,
    traced: bool,
    check: bool,
) -> Result<Built, String> {
    let mut obs = CollectingObserver::new();
    let sink = RecordingSink::new();
    let t0 = Instant::now();
    let tree = if traced {
        cts.run_with_telemetry(design, &mut obs, &sink)
    } else {
        cts.run_with_observer(design, &mut NullObserver)
    };
    let t1 = Instant::now();
    let tree = tree.map_err(|e| format!("{}: flow failed: {e}", design.name))?;
    let report = evaluate(&tree, &cts.tech, &cts.lib);
    let t2 = Instant::now();
    let f = std::fs::File::create(out).map_err(|e| format!("{}: {e}", out.display()))?;
    let mut w = BufWriter::new(f);
    sllt_tree::io::write_tree(&tree, &mut w)
        .and_then(|()| w.flush())
        .map_err(|e| format!("{}: {e}", out.display()))?;
    let t3 = Instant::now();
    if check {
        checks::covers_each_sink_once(&tree, design)?;
    }
    let tree_bytes = std::fs::metadata(out).map_err(|e| e.to_string())?.len();
    Ok(Built {
        report,
        flow_s: (t1 - t0).as_secs_f64(),
        eval_s: (t2 - t1).as_secs_f64(),
        write_s: (t3 - t2).as_secs_f64(),
        tree_bytes,
        obs,
        counters: if traced {
            sink.registry().snapshot().metrics.counters
        } else {
            BTreeMap::new()
        },
    })
}

/// Stage times and work counts of one traced pass, summed over its
/// designs.
#[derive(Debug, Clone, Default)]
pub struct TracedPass {
    pub total_s: f64,
    pub partition_s: f64,
    pub route_s: f64,
    pub level0_route_s: f64,
    pub sizing_s: f64,
    pub assemble_s: f64,
    pub evaluate_s: f64,
    pub write_s: f64,
    pub levels: usize,
    pub clusters: usize,
    pub pads: usize,
    pub tree_bytes: u64,
    pub counters: BTreeMap<String, u64>,
}

impl TracedPass {
    pub fn add(&mut self, b: &Built) {
        let secs = |d: Duration| d.as_secs_f64();
        self.total_s += b.latency_s();
        for l in &b.obs.levels {
            self.partition_s += secs(l.timings.partition);
            self.route_s += secs(l.timings.route);
            self.sizing_s += secs(l.timings.sizing);
            self.clusters += l.num_clusters;
            self.pads += l.pads;
        }
        self.level0_route_s += b.obs.levels.first().map_or(0.0, |l| secs(l.timings.route));
        self.assemble_s += b.obs.assemble.as_ref().map_or(0.0, |a| secs(a.elapsed));
        self.levels += b.obs.levels.len();
        self.evaluate_s += b.eval_s;
        self.write_s += b.write_s;
        self.tree_bytes += b.tree_bytes;
        for (k, v) in &b.counters {
            *self.counters.entry(k.clone()).or_insert(0) += v;
        }
    }

    /// Share of the pass the timed layers account for.
    pub fn accounted_share(&self) -> f64 {
        (self.partition_s
            + self.route_s
            + self.sizing_s
            + self.assemble_s
            + self.evaluate_s
            + self.write_s)
            / self.total_s
    }
}

/// Per-layer metrics of the flow from traced passes: times are medians
/// over the passes, counts come from the first (they repeat exactly).
pub fn flow_layers(layers: &mut Layers, passes: &[TracedPass]) {
    let Some(first) = passes.first() else { return };
    let med = |f: fn(&TracedPass) -> f64| median(&passes.iter().map(f).collect::<Vec<_>>());
    let c = |k: &str| first.counters.get(k).copied().unwrap_or(0) as f64;
    let route_s = med(|p| p.route_s);
    layers.set("cts.partition_s", med(|p| p.partition_s));
    layers.set("cts.route_s", route_s);
    layers.set("cts.level0_route_s", med(|p| p.level0_route_s));
    layers.set("cts.sizing_s", med(|p| p.sizing_s));
    layers.set("cts.assemble_s", med(|p| p.assemble_s));
    layers.set("cts.levels", first.levels as f64);
    layers.set("cts.clusters", first.clusters as f64);
    layers.set("cts.pads", first.pads as f64);
    for k in [
        "route.dme.calls",
        "route.dme.merge_segments",
        "route.dme.embed_nodes",
        "partition.kmeans.lloyd_iterations",
        "partition.mcf.solves",
        "partition.mcf.augmentations",
        "partition.sa.proposals",
        "buffer.repeater.inserted",
        "cts.sizing.pads",
    ] {
        layers.set(k, c(k));
    }
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    layers.set(
        "route.dme.calls_per_cluster",
        ratio(c("route.dme.calls"), c("cts.route.clusters")),
    );
    layers.set(
        "route.merge_segments_per_s",
        ratio(c("route.dme.merge_segments"), route_s),
    );
    layers.set(
        "partition.sa.accept_ratio",
        ratio(c("partition.sa.accepts"), c("partition.sa.proposals")),
    );
    layers.set("eval.evaluate_s", med(|p| p.evaluate_s));
    layers.set("tree.write_s", med(|p| p.write_s));
    layers.set("tree.bytes", first.tree_bytes as f64);
    layers.set("trace.accounted_share", med(TracedPass::accounted_share));
}

/// Runs `suite` or `grid_1m`.
pub fn run(
    workload: &str,
    seed: u64,
    seconds: f64,
    trace: bool,
    work: &Path,
) -> Result<Report, String> {
    let designs = match workload {
        "suite" => inputs::suite(seed),
        // The million-sink tree's QoR is chaotic under any placement
        // perturbation (skew 3–19 ns over five 0.5 µm jitters), which no
        // bound could absorb, so this workload is canonical at every seed.
        "grid_1m" => vec![inputs::square_grid(1_000_000, 0)],
        _ => unreachable!("dispatched by name"),
    };
    let design_dir = work.join("designs");
    let tree_dir = work.join("trees");
    for d in [&design_dir, &tree_dir] {
        std::fs::create_dir_all(d).map_err(|e| format!("{}: {e}", d.display()))?;
    }
    let files = designs
        .iter()
        .map(|d| inputs::write_file(&design_dir, d))
        .collect::<Result<Vec<_>, _>>()?;
    drop(designs);

    // Set-up: design files → runnable designs, several times.
    let (mut setup, mut read, mut sanitize) = (Vec::new(), Vec::new(), Vec::new());
    let mut designs = Vec::new();
    let mut design_bytes = 0;
    let t_setup = Instant::now();
    while setup.len() < SETUP_REPS || t_setup.elapsed().as_secs_f64() < SETUP_MIN_S {
        let t = Instant::now();
        let loaded = files
            .iter()
            .map(|f| inputs::load(f))
            .collect::<Result<Vec<_>, _>>()?;
        setup.push(t.elapsed().as_secs_f64());
        read.push(loaded.iter().map(|l| l.read_s).sum());
        sanitize.push(loaded.iter().map(|l| l.sanitize_s).sum());
        design_bytes = loaded.iter().map(|l| l.bytes).sum::<u64>();
        designs = loaded.into_iter().map(|l| l.design).collect();
    }
    let trees: Vec<PathBuf> = designs
        .iter()
        .map(|d| tree_dir.join(format!("{}.sllt", d.name)))
        .collect();

    let cts = HierarchicalCts {
        workers: FLOW_WORKERS,
        ..HierarchicalCts::default()
    };
    let mut report = Report::default();
    let mut errors: Vec<String> = Vec::new();
    // ok[d]: design d passed every check so far; one failing check fails
    // each of its trees.
    let mut ok = vec![true; designs.len()];
    let mut builds_per_design = 0u64;

    // Warm-up pass, untimed: fills caches and lazy set-up, and its trees
    // are the reference every later pass must reproduce.
    let mut reference: Vec<Option<TreeReport>> = Vec::new();
    for (i, d) in designs.iter().enumerate() {
        match build(&cts, d, &trees[i], false, true) {
            Ok(b) => reference.push(Some(b.report)),
            Err(e) => {
                errors.push(e);
                ok[i] = false;
                reference.push(None);
            }
        }
    }
    builds_per_design += 1;
    // Peak of set-up plus one pass. Later passes only add allocator
    // fragmentation, which differs from run to run.
    let rss = peak_rss_mb(None)?;

    let mut untraced_totals = Vec::new();
    let mut traced: Vec<TracedPass> = Vec::new();
    // Counters of each design in the first traced pass.
    let mut design_counters: Vec<BTreeMap<String, u64>> = vec![BTreeMap::new(); designs.len()];
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    loop {
        // The traced run alternates traced and untraced passes, so the
        // tracing overhead is measured under the same conditions.
        let is_traced = trace && untraced_totals.len() > traced.len();
        let mut pass = TracedPass::default();
        let mut pass_s = 0.0;
        for (i, d) in designs.iter().enumerate() {
            match build(&cts, d, &trees[i], is_traced, false) {
                Ok(b) if reference[i].is_some_and(|r| checks::same_qor(&r, &b.report)) => {
                    pass_s += b.latency_s();
                    pass.add(&b);
                    if is_traced && traced.is_empty() {
                        design_counters[i] = b.counters;
                    }
                }
                Ok(_) => {
                    errors.push(format!("{}: QoR changed between passes", d.name));
                    ok[i] = false;
                }
                Err(e) => {
                    errors.push(e);
                    ok[i] = false;
                }
            }
        }
        builds_per_design += 1;
        if is_traced {
            traced.push(pass);
        } else {
            untraced_totals.push(pass_s);
        }
        if Instant::now() >= deadline && (!trace || !traced.is_empty()) {
            break;
        }
    }

    // Output checks: the last written files read back to the reference
    // QoR, and the independent delay propagation agrees with `evaluate`.
    let bench = if workload == "suite" && seed == 0 {
        Some(checks::bench_rows(Path::new("BENCH_cts.json"))?)
    } else {
        None
    };
    let mut qor = Qor::default();
    for (i, d) in designs.iter().enumerate() {
        let Some(r) = reference[i] else { continue };
        let checked = checks::reads_back(&trees[i], &r, &cts)
            .and_then(|tree| checks::skew_met_share(&tree, &cts, &r))
            .and_then(|met| match bench.as_ref().map(|b| b.get(&d.name)) {
                Some(None) => Err(format!("{}: no BENCH_cts.json row", d.name)),
                Some(Some(row)) => {
                    checks::matches_bench_qor(&r, row)?;
                    if trace {
                        checks::matches_bench_counters(&design_counters[i], row)?;
                    }
                    Ok(met)
                }
                None => Ok(met),
            });
        match checked {
            Ok(met) => qor.add(&r, met),
            Err(e) => {
                errors.push(format!("{}: {e}", d.name));
                ok[i] = false;
            }
        }
    }

    let attempted = builds_per_design * designs.len() as u64;
    let failed = ok.iter().filter(|&&g| !g).count() as u64 * builds_per_design;
    report.attempted = attempted;
    report.failed = failed;
    report.errors = errors;

    let e2e = &mut report.end_to_end;
    e2e.set("setup_s", median(&setup));
    e2e.set("peak_rss_mb", rss);
    // A user's job here is one pass: every design of the workload taken
    // to a tree file.
    let run_s = median(&untraced_totals);
    e2e.set("run_s", run_s);
    e2e.set("jobs_per_s", designs.len() as f64 / run_s);
    e2e.set("job_latency_s.p50", run_s);
    e2e.set("job_latency_s.p95", percentile(&untraced_totals, 95.0));
    e2e.set("ok_share", 1.0 - failed as f64 / attempted as f64);
    qor.fill(e2e);
    report.notes.push(format!(
        "untraced passes {} (highest percentile with ten beyond: {:?}): {:?}",
        untraced_totals.len(),
        supported_percentile(untraced_totals.len()),
        untraced_totals
    ));

    let layers = &mut report.per_layer;
    layers.set("design.read_s", median(&read));
    layers.set("design.sanitize_s", median(&sanitize));
    layers.set("design.bytes", design_bytes as f64);
    flow_layers(layers, &traced);
    if trace {
        let traced_totals: Vec<f64> = traced.iter().map(|p| p.total_s).collect();
        layers.set(
            "trace.overhead_s",
            median(&traced_totals) - median(&untraced_totals),
        );
        let share = layers.get("trace.accounted_share").unwrap_or(0.0);
        if workload == "grid_1m" && share < 0.9 {
            report.errors.push(format!(
                "stage + evaluate + write spans account for only {:.1} % of the pass",
                share * 100.0
            ));
        }
    }
    Ok(report)
}
