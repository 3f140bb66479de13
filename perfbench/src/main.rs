//! The CTS benchmark. Drives the workspace crates and the `slltd` binary
//! from outside, checks every tree they build, and prints one JSON
//! result line:
//!
//! ```text
//! perfbench --workload suite|grid_1m|slltd_mix --seed N --seconds S --trace 0|1
//!           [--slltd path/to/slltd]
//! ```
//!
//! `--trace 0` reports the end-to-end metrics ([`END_TO_END`]);
//! `--trace 1` reports the per-layer metrics ([`PER_LAYER`]). Lines
//! before the result describe the machine and the samples behind the
//! numbers. `perfbench/run.py` builds both binaries and runs this one;
//! `perfbench/README.md` says why each workload and metric exists.

mod checks;
mod daemon;
mod inproc;
mod inputs;
mod stats;

use sllt_cts::TreeReport;
use stats::Outcome;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

/// End-to-end metrics, printed for every workload. Delays are in
/// `sim_ps`: picoseconds of the modelled clock tree, not host time.
const END_TO_END: [(&str, &str); 14] = [
    ("setup_s", "s"),
    ("run_s", "s"),
    ("peak_rss_mb", "MB"),
    ("jobs_per_s", "1/s"),
    ("job_latency_s.p50", "s"),
    ("job_latency_s.p95", "s"),
    ("ok_share", "share"),
    ("skew_ps", "sim_ps"),
    ("latency_ps", "sim_ps"),
    ("max_slew_ps", "sim_ps"),
    ("clock_wl_mm", "mm"),
    ("buffers", "count"),
    ("clock_cap_pf", "pF"),
    ("skew_met", "share"),
];

/// Per-layer metrics of the traced run; a layer a workload does not
/// exercise reads 0.
const PER_LAYER: [(&str, &str); 35] = [
    ("design.read_s", "s"),
    ("design.sanitize_s", "s"),
    ("design.bytes", "bytes"),
    ("cts.partition_s", "s"),
    ("cts.route_s", "s"),
    ("cts.level0_route_s", "s"),
    ("cts.sizing_s", "s"),
    ("cts.assemble_s", "s"),
    ("cts.levels", "count"),
    ("cts.clusters", "count"),
    ("cts.pads", "count"),
    ("route.dme.calls", "count"),
    ("route.dme.merge_segments", "count"),
    ("route.dme.embed_nodes", "count"),
    ("route.dme.calls_per_cluster", "ratio"),
    ("route.merge_segments_per_s", "1/s"),
    ("partition.kmeans.lloyd_iterations", "count"),
    ("partition.mcf.solves", "count"),
    ("partition.mcf.augmentations", "count"),
    ("partition.sa.proposals", "count"),
    ("partition.sa.accept_ratio", "ratio"),
    ("buffer.repeater.inserted", "count"),
    ("cts.sizing.pads", "count"),
    ("eval.evaluate_s", "s"),
    ("tree.write_s", "s"),
    ("tree.bytes", "bytes"),
    ("slltd.submit_rtt_s.p50", "s"),
    ("slltd.child_runtime_s.p50", "s"),
    ("slltd.overhead_s.p50", "s"),
    ("slltd.checkpoint_overhead_s", "s"),
    ("slltd.rejected", "count"),
    ("slltd.retried", "count"),
    ("slltd.cache_hit_share", "share"),
    ("trace.overhead_s", "s"),
    ("trace.accounted_share", "share"),
];

const WORKLOADS: [&str; 3] = ["suite", "grid_1m", "slltd_mix"];

/// Named metric values a workload produced.
#[derive(Debug, Default)]
pub struct Layers(BTreeMap<&'static str, f64>);

impl Layers {
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.0.insert(name, value);
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.get(name).copied()
    }
}

/// What a workload run produced, before it is cut to one metric list.
#[derive(Debug, Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    /// Every failed check, by tree or job.
    pub errors: Vec<String>,
    /// Sample counts and other context for the numbers.
    pub notes: Vec<String>,
    pub end_to_end: Layers,
    pub per_layer: Layers,
}

/// Tree quality over a workload's distinct trees (paper Tables 6/7).
#[derive(Debug, Default)]
pub struct Qor {
    skew_ps: f64,
    latency_ps: f64,
    max_slew_ps: Vec<f64>,
    wl_um: f64,
    buffers: usize,
    cap_ff: f64,
    sinks_met: usize,
    sinks: usize,
}

impl Qor {
    /// Adds one tree and its (sinks within the skew bound, sinks).
    pub fn add(&mut self, r: &TreeReport, (met, sinks): (usize, usize)) {
        self.skew_ps = self.skew_ps.max(r.skew_ps);
        self.latency_ps = self.latency_ps.max(r.max_latency_ps);
        self.max_slew_ps.push(r.max_slew_ps);
        self.wl_um += r.clock_wl_um;
        self.buffers += r.num_buffers;
        self.cap_ff += r.clock_cap_ff;
        self.sinks_met += met;
        self.sinks += sinks;
    }

    pub fn fill(&self, e2e: &mut Layers) {
        e2e.set("skew_ps", self.skew_ps);
        e2e.set("latency_ps", self.latency_ps);
        // Each tree's worst slew sits on a single node and moves by a
        // fifth between perturbed placements; the median over trees is
        // steady (and is the worst slew when there is one tree).
        e2e.set("max_slew_ps", stats::median(&self.max_slew_ps));
        e2e.set("clock_wl_mm", self.wl_um / 1e3);
        e2e.set("buffers", self.buffers as f64);
        e2e.set("clock_cap_pf", self.cap_ff / 1e3);
        e2e.set("skew_met", self.sinks_met as f64 / self.sinks.max(1) as f64);
    }
}

/// Peak resident set (`VmHWM`) of this process or of `pid`, MB.
pub fn peak_rss_mb(pid: Option<u32>) -> Result<f64, String> {
    let path = match pid {
        Some(p) => format!("/proc/{p}/status"),
        None => "/proc/self/status".into(),
    };
    let status = std::fs::read_to_string(&path).map_err(|e| format!("{path}: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().strip_suffix("kB"))
        .and_then(|kb| kb.trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| format!("{path}: no VmHWM"))
}

fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let out = std::process::Command::new(program)
        .args(args)
        .output()
        .ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
}

/// FNV-1a-64 over the workspace sources and manifests, in path order:
/// identifies the code measured when no git metadata is at hand.
fn source_hash() -> u64 {
    fn walk(dir: &Path, files: &mut Vec<PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        for e in entries.flatten() {
            let p = e.path();
            if p.is_dir() {
                walk(&p, files);
            } else if p.extension().is_some_and(|x| x == "rs" || x == "toml") {
                files.push(p);
            }
        }
    }
    let mut files = vec![PathBuf::from("Cargo.toml"), PathBuf::from("Cargo.lock")];
    walk(Path::new("crates"), &mut files);
    walk(Path::new("src"), &mut files);
    files.sort();
    let mut all = Vec::new();
    for f in files {
        all.extend(f.display().to_string().into_bytes());
        all.extend(std::fs::read(&f).unwrap_or_default());
    }
    sllt_obs::journal::fnv1a64(&all)
}

/// Where and on what the numbers were taken.
fn machine() -> sllt_obs::Value {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|c| {
            c.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|m| m.trim_start_matches([' ', '\t', ':']).to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    sllt_obs::Value::obj()
        .with("nproc", nproc)
        .with("cpu", cpu)
        .with(
            "commit",
            Path::new(".git")
                .exists()
                .then(|| command_line("git", &["rev-parse", "HEAD"]))
                .flatten()
                .unwrap_or_else(|| "unknown".into()),
        )
        .with("source_fnv", format!("{:016x}", source_hash()))
        .with(
            "rustc",
            command_line("rustc", &["--version"]).unwrap_or_else(|| "unknown".into()),
        )
        .with("flow_workers", inproc::FLOW_WORKERS)
        .with("slltd_workers", daemon::DAEMON_WORKERS)
        .with("slltd_child_workers", daemon::CHILD_WORKERS)
        .with("clients", daemon::CLIENTS)
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    slltd: Option<PathBuf>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 0,
        seconds: 10.0,
        trace: false,
        slltd: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => args.seconds = value.parse().map_err(|_| bad())?,
            "--trace" => args.trace = value.parse::<u8>().map_err(|_| bad())? != 0,
            "--slltd" => args.slltd = Some(PathBuf::from(&value)),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!("--workload must be one of {WORKLOADS:?}"));
    }
    if !(args.seconds > 0.0 && args.seconds.is_finite()) {
        return Err("--seconds must be positive".into());
    }
    Ok(args)
}

fn run(args: &Args) -> Result<Outcome, String> {
    let work = Path::new(".bench_work").join(&args.workload);
    std::fs::remove_dir_all(&work).ok();
    std::fs::create_dir_all(&work).map_err(|e| format!("{}: {e}", work.display()))?;
    println!("machine {}", machine().encode());

    let report = match args.workload.as_str() {
        "slltd_mix" => {
            let slltd = args.slltd.as_deref().ok_or("slltd_mix needs --slltd")?;
            daemon::run(slltd, args.seed, args.seconds, args.trace, &work)?
        }
        w => inproc::run(w, args.seed, args.seconds, args.trace, &work)?,
    };
    for n in &report.notes {
        println!("note {n}");
    }
    for e in &report.errors {
        eprintln!("check failed: {e}");
    }

    let mut out = Outcome {
        attempted: report.attempted,
        failed: report.failed,
        correct: report.errors.is_empty(),
        metrics: Vec::new(),
    };
    if args.trace {
        for (name, unit) in PER_LAYER {
            out.push(name, report.per_layer.get(name).unwrap_or(0.0), unit);
        }
    } else {
        for (name, unit) in END_TO_END {
            let v = report.end_to_end.get(name);
            out.push(
                name,
                v.ok_or(format!("workload did not measure {name}"))?,
                unit,
            );
        }
    }
    if out.correct {
        std::fs::remove_dir_all(&work).ok();
    }
    Ok(out)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    match run(&args).and_then(|o| o.to_json()) {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sllt_obs::Value;

    /// The metric lists here and in `BENCHMARK.json` must agree name for
    /// name and unit for unit, in order.
    #[test]
    fn metric_lists_match_benchmark_json() {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let text = std::fs::read_to_string(path).unwrap();
        let bench = sllt_obs::json::parse(&text).unwrap();
        let listed = |key: &str| -> Vec<(String, String)> {
            bench
                .get(key)
                .and_then(Value::as_arr)
                .unwrap()
                .iter()
                .map(|m| {
                    let s = |k| m.get(k).and_then(Value::as_str).unwrap().to_string();
                    (s("name"), s("unit"))
                })
                .collect()
        };
        let ours = |list: &[(&str, &str)]| -> Vec<(String, String)> {
            list.iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(listed("end_to_end"), ours(&END_TO_END));
        assert_eq!(listed("per_layer"), ours(&PER_LAYER));
        for (name, _) in END_TO_END.iter().chain(&PER_LAYER) {
            assert!(stats::valid_metric_name(name), "{name}");
        }
        let workloads: Vec<&str> = bench
            .get("workloads")
            .and_then(Value::as_arr)
            .unwrap()
            .iter()
            .map(|w| w.get("name").and_then(Value::as_str).unwrap())
            .collect();
        assert_eq!(workloads, WORKLOADS);
    }
}
