//! The `slltd_mix` workload: a closed loop of [`CLIENTS`] clients, each
//! submitting its next job only after `result --wait` returned the
//! previous one, against a `slltd` the benchmark spawns. The jobs follow
//! a seeded sequence of small suite designs by name plus by-file square
//! grids; half of the by-file jobs name a file submitted before (a
//! design-cache hit), the other half a fresh copy (a miss).

use crate::checks::{self, Reference};
use crate::inproc::{self, TracedPass};
use crate::inputs;
use crate::stats::{median, percentile, supported_percentile};
use crate::{peak_rss_mb, Qor, Report};
use sllt_obs::Value;
use sllt_server::client::{req, Client};
use sllt_server::net::Endpoint;
use std::collections::{BTreeMap, BTreeSet};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// Daemon worker pool (= cores of the baseline machine).
pub const DAEMON_WORKERS: usize = 2;
/// Route workers inside each job child.
pub const CHILD_WORKERS: usize = 1;
/// Closed-loop clients, one connection each.
pub const CLIENTS: usize = 2;
/// Daemon start-ups timed per run; `setup_s` is their median.
const SPAWN_REPS: usize = 3;
/// Config every job requests.
const CONFIG: &str = "base";

/// Named designs and their weights in the mix; by-file grids take the
/// remaining [`FILE_WEIGHT`] of 100, a third per pool size. Ordered by
/// job time, the weights put the median inside the s35932 block
/// (35–65 % of jobs) and the p95 inside the ethernet block (top 10 %),
/// so neither percentile sits on the edge between two job types.
const NAMED: [(&str, u64); 5] = [
    ("s38584", 15),
    ("s38417", 7),
    ("s35932", 30),
    ("salsa20", 18),
    ("ethernet", 10),
];
const FILE_WEIGHT: u64 = 20;
/// Square-grid sizes behind the by-file jobs.
const POOL: [usize; 3] = [600, 1500, 3000];

/// What a job asks the daemon to build.
#[derive(Debug, Clone, PartialEq)]
enum Job {
    Named(&'static str),
    /// A by-file design: the file path and the pool design it copies.
    File(PathBuf, usize),
}

impl Job {
    /// Key of the in-process reference tree this job must reproduce.
    fn key(&self) -> String {
        match self {
            Job::Named(n) => (*n).to_string(),
            Job::File(_, k) => format!("pool{k}"),
        }
    }

    fn request(&self) -> Value {
        match self {
            Job::Named(n) => req::submit(n, CONFIG),
            Job::File(p, _) => Value::obj()
                .with("op", "submit")
                .with("design_file", p.display().to_string())
                .with("config", CONFIG),
        }
    }
}

/// The seeded job sequence, writing each fresh by-file copy as it goes.
fn sequence(seed: u64, len: usize, pool: &[PathBuf], dir: &Path) -> Result<Vec<Job>, String> {
    let mut rng = inputs::stream(seed, "slltd_mix");
    let mut files: Vec<(PathBuf, usize)> = Vec::new();
    let mut jobs = Vec::with_capacity(len);
    for _ in 0..len {
        let mut pick = rng.next_u64() % 100;
        let named = NAMED.iter().find(|(_, w)| {
            let hit = pick < *w;
            pick = pick.saturating_sub(*w);
            hit
        });
        let job = match named {
            Some((n, _)) => Job::Named(n),
            None if !files.is_empty() && inputs::unit(&mut rng) < 0.5 => {
                let (p, k) = &files[(rng.next_u64() % files.len() as u64) as usize];
                Job::File(p.clone(), *k)
            }
            None => {
                let k = (rng.next_u64() % pool.len() as u64) as usize;
                let path = dir.join(format!("file{}.sllt", files.len()));
                std::fs::copy(&pool[k], &path).map_err(|e| format!("{}: {e}", path.display()))?;
                files.push((path.clone(), k));
                Job::File(path, k)
            }
        };
        jobs.push(job);
    }
    debug_assert_eq!(NAMED.iter().map(|(_, w)| w).sum::<u64>() + FILE_WEIGHT, 100);
    Ok(jobs)
}

/// A spawned daemon.
struct Daemon {
    child: Child,
    ep: Endpoint,
}

impl Daemon {
    /// Starts `slltd` with its state under `dir`; returns it once it
    /// answers `ping`, with the time that took.
    fn spawn(slltd: &Path, dir: &Path) -> Result<(Daemon, f64), String> {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        let log = std::fs::File::create(dir.join("slltd.log")).map_err(|e| e.to_string())?;
        let sock = dir.join("slltd.sock");
        let t0 = Instant::now();
        let child = Command::new(slltd)
            .arg("--state-dir")
            .arg(dir)
            .arg("--listen")
            .arg(&sock)
            .args(["--workers", &DAEMON_WORKERS.to_string()])
            .args(["--child-workers", &CHILD_WORKERS.to_string()])
            .stdin(Stdio::null())
            .stdout(log.try_clone().map_err(|e| e.to_string())?)
            .stderr(log)
            .spawn()
            .map_err(|e| format!("spawn {}: {e}", slltd.display()))?;
        let mut d = Daemon {
            child,
            ep: Endpoint::Unix(sock),
        };
        loop {
            let pong = Client::connect(&d.ep).ok().and_then(|mut c| {
                c.set_io_timeout(Some(Duration::from_secs(10))).ok()?;
                c.request(&req::ping()).ok()
            });
            if pong.is_some_and(|v| v.get("pong") == Some(&Value::Bool(true))) {
                return Ok((d, t0.elapsed().as_secs_f64()));
            }
            if t0.elapsed() > Duration::from_secs(30) || d.child.try_wait().ok().flatten().is_some()
            {
                d.kill();
                return Err(format!(
                    "slltd did not answer ping; see {}",
                    dir.join("slltd.log").display()
                ));
            }
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    /// Drains the daemon and waits for it to exit.
    fn stop(mut self) -> Result<(), String> {
        let drained = Client::connect(&self.ep)
            .map_err(|e| e.to_string())
            .and_then(|mut c| {
                c.set_io_timeout(Some(Duration::from_secs(10)))
                    .map_err(|e| e.to_string())?;
                c.request(&req::drain())
            });
        let deadline = Instant::now() + Duration::from_secs(60);
        while drained.is_ok() && Instant::now() < deadline {
            match self.child.try_wait() {
                Ok(Some(status)) if status.success() => return Ok(()),
                Ok(Some(status)) => return Err(format!("slltd exited with {status}")),
                Ok(None) => std::thread::sleep(Duration::from_millis(10)),
                Err(e) => return Err(e.to_string()),
            }
        }
        self.kill();
        Err(format!("slltd did not drain cleanly ({drained:?})"))
    }

    fn kill(&mut self) {
        self.child.kill().ok();
        self.child.wait().ok();
    }
}

impl Drop for Daemon {
    /// Never leaves a daemon behind, whatever path the run took.
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            self.kill();
        }
    }
}

/// One job as a client saw it.
struct Attempt {
    job: usize,
    submit_rtt_s: f64,
    latency_s: f64,
    /// The `result` reply; `None` when the submit was refused (and
    /// `latency_s` is the time to the refusal).
    reply: Option<Value>,
    cached: Option<bool>,
}

/// One closed-loop client: submit, wait for the result, repeat until the
/// deadline or the end of the sequence.
fn client(
    ep: &Endpoint,
    jobs: &[Job],
    next: &AtomicUsize,
    deadline: Instant,
) -> Result<Vec<Attempt>, String> {
    let mut c = Client::connect(ep).map_err(|e| format!("connect: {e}"))?;
    c.set_io_timeout(Some(Duration::from_secs(150)))
        .map_err(|e| e.to_string())?;
    let mut out = Vec::new();
    while Instant::now() < deadline {
        let job = next.fetch_add(1, Ordering::Relaxed);
        let Some(j) = jobs.get(job) else { break };
        let t0 = Instant::now();
        let ack = c.request(&j.request())?;
        let submit_rtt_s = t0.elapsed().as_secs_f64();
        let Some(id) = ack.get("job").and_then(Value::as_str) else {
            out.push(Attempt {
                job,
                submit_rtt_s,
                latency_s: submit_rtt_s,
                reply: None,
                cached: None,
            });
            std::thread::sleep(Duration::from_millis(10));
            continue;
        };
        let cached = ack.get("cached").map(|v| v == &Value::Bool(true));
        let reply = c.request(&req::result(id, true))?;
        out.push(Attempt {
            job,
            submit_rtt_s,
            latency_s: t0.elapsed().as_secs_f64(),
            reply: Some(reply),
            cached,
        });
    }
    Ok(out)
}

/// In-process reference for each distinct design of the mix: the tree
/// the daemon must reproduce, and the 1-worker in-process time of the
/// same build (median of three).
struct Refs {
    /// Reference tree, its in-process time, and its (sinks within the
    /// skew bound, sinks).
    by_key: BTreeMap<String, (Reference, f64, (usize, usize))>,
    traced: TracedPass,
    untraced_s: f64,
}

fn references(pool: &[PathBuf], dir: &Path, trace: bool) -> Result<Refs, String> {
    let mut cts = sllt_server::jobs::config_by_name(CONFIG)?;
    cts.workers = CHILD_WORKERS;
    let mut designs = Vec::new();
    for (n, _) in NAMED {
        designs.push((n.to_string(), sllt_server::jobs::design_by_name(n)?));
    }
    for (k, p) in pool.iter().enumerate() {
        designs.push((format!("pool{k}"), inputs::load(p)?.design));
    }
    let mut refs = Refs {
        by_key: BTreeMap::new(),
        traced: TracedPass::default(),
        untraced_s: 0.0,
    };
    for (key, design) in &designs {
        let out = dir.join(format!("{key}.sllt"));
        let mut times = Vec::new();
        let mut report = None;
        for rep in 0..3 {
            let b = inproc::build(&cts, design, &out, false, rep == 0)?;
            times.push(b.latency_s());
            report = Some(b.report);
        }
        let report = report.expect("three builds");
        let tree = checks::reads_back(&out, &report, &cts)?;
        let met = checks::skew_met_share(&tree, &cts, &report)?;
        let bytes = std::fs::read(&out).map_err(|e| e.to_string())?;
        let tree_hash = sllt_obs::journal::fnv1a64(&bytes);
        refs.untraced_s += median(&times);
        refs.by_key.insert(
            key.clone(),
            (Reference { report, tree_hash }, median(&times), met),
        );
        if trace {
            refs.traced
                .add(&inproc::build(&cts, design, &out, true, false)?);
        }
    }
    Ok(refs)
}

/// Runs `slltd_mix`.
pub fn run(
    slltd: &Path,
    seed: u64,
    seconds: f64,
    trace: bool,
    work: &Path,
) -> Result<Report, String> {
    let design_dir = work.join("designs");
    let ref_dir = work.join("reference");
    for d in [&design_dir, &ref_dir] {
        std::fs::create_dir_all(d).map_err(|e| format!("{}: {e}", d.display()))?;
    }
    let pool = POOL
        .iter()
        .map(|&n| inputs::write_file(&design_dir, &inputs::square_grid(n, seed)))
        .collect::<Result<Vec<_>, _>>()?;
    // Several times more jobs than the loop runs (≈20/s on two cores):
    // the sequence must not end first.
    let jobs = sequence(seed, (seconds * 60.0) as usize + 100, &pool, &design_dir)?;
    let refs = references(&pool, &ref_dir, trace)?;

    let mut spawn_s = Vec::new();
    let mut daemon = None;
    for rep in 0..SPAWN_REPS {
        let (d, s) = Daemon::spawn(slltd, &work.join(format!("daemon{rep}")))?;
        spawn_s.push(s);
        if rep + 1 < SPAWN_REPS {
            d.stop()?;
        } else {
            daemon = Some(d);
        }
    }
    let daemon = daemon.expect("at least one spawn");

    let next = AtomicUsize::new(0);
    let t0 = Instant::now();
    let deadline = t0 + Duration::from_secs_f64(seconds);
    let ran: Vec<Result<Vec<Attempt>, String>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|_| s.spawn(|| client(&daemon.ep, &jobs, &next, deadline)))
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|_| Err("client thread panicked".into()))
            })
            .collect()
    });
    let window_s = t0.elapsed().as_secs_f64();
    let rss = peak_rss_mb(Some(daemon.child.id()));
    let stopped = daemon.stop();
    let mut outcomes = Vec::new();
    for r in ran {
        outcomes.extend(r?);
    }
    let rss = rss?;
    stopped?;

    // Verify every job against its reference.
    let mut report = Report::default();
    let (mut latency, mut rtt, mut runtime, mut overhead, mut ckpt) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let (mut ok_jobs, mut rejected, mut retried) = (0u64, 0u64, 0u64);
    let (mut hits, mut by_file) = (0u64, 0u64);
    let mut seen = BTreeSet::new();
    for o in &outcomes {
        let key = jobs[o.job].key();
        let (reference, ref_s, _) = &refs.by_key[&key];
        let Some(reply) = &o.reply else {
            rejected += 1;
            latency.push(window_s);
            continue;
        };
        if let Some(hit) = o.cached {
            by_file += 1;
            hits += u64::from(hit);
        }
        retried += reply
            .get("attempts")
            .and_then(Value::as_u64)
            .unwrap_or(1)
            .saturating_sub(1);
        match checks::daemon_result_matches(reply, reference) {
            Ok(()) => {
                let run_s = reply
                    .get("result")
                    .and_then(|r| r.get("runtime_s"))
                    .and_then(Value::as_f64)
                    .unwrap_or(0.0);
                ok_jobs += 1;
                latency.push(o.latency_s);
                rtt.push(o.submit_rtt_s);
                runtime.push(run_s);
                overhead.push(o.latency_s - run_s - o.submit_rtt_s);
                ckpt.push(run_s - ref_s);
                seen.insert(key);
            }
            Err(e) => {
                // A failed job counts as missing every latency limit.
                latency.push(window_s);
                report.errors.push(format!("job {} ({key}): {e}", o.job));
            }
        }
    }
    report.attempted = outcomes.len() as u64;
    report.failed = report.attempted - ok_jobs;

    // QoR of the distinct designs the mix ran (each verified identical
    // to the daemon's trees above).
    let mut qor = Qor::default();
    for key in &seen {
        let (reference, _, met) = &refs.by_key[key];
        qor.add(&reference.report, *met);
    }
    let e2e = &mut report.end_to_end;
    e2e.set("setup_s", median(&spawn_s));
    e2e.set("run_s", median(&runtime));
    e2e.set("peak_rss_mb", rss);
    e2e.set("jobs_per_s", ok_jobs as f64 / window_s);
    e2e.set("job_latency_s.p50", percentile(&latency, 50.0));
    e2e.set("job_latency_s.p95", percentile(&latency, 95.0));
    e2e.set("ok_share", ok_jobs as f64 / report.attempted.max(1) as f64);
    qor.fill(e2e);
    report.notes.push(format!(
        "jobs {} (ok {ok_jobs}, by file {by_file}, cache hits {hits}); latency samples {} (highest percentile with ten beyond: {:?})",
        outcomes.len(),
        latency.len(),
        supported_percentile(latency.len())
    ));

    let layers = &mut report.per_layer;
    layers.set("slltd.submit_rtt_s.p50", median(&rtt));
    layers.set("slltd.child_runtime_s.p50", median(&runtime));
    layers.set("slltd.overhead_s.p50", median(&overhead));
    layers.set("slltd.checkpoint_overhead_s", median(&ckpt));
    layers.set("slltd.rejected", rejected as f64);
    layers.set("slltd.retried", retried as f64);
    layers.set(
        "slltd.cache_hit_share",
        if by_file > 0 {
            hits as f64 / by_file as f64
        } else {
            0.0
        },
    );
    if trace {
        inproc::flow_layers(layers, std::slice::from_ref(&refs.traced));
        layers.set("trace.overhead_s", refs.traced.total_s - refs.untraced_s);
    }
    Ok(report)
}
