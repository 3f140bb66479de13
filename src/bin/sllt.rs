//! `sllt` — command-line front end for the clock tree synthesis library.
//!
//! ```text
//! sllt suite                                      list benchmark designs
//! sllt run --design s38584 [--flow ours|commercial|openroad]
//!          [--tree out.sllt] [--svg out.svg]      run a full CTS flow
//! sllt net --pins 24 --seed 3 --algo cbs [--skew 10]
//!          [--svg net.svg]                        route one random net
//! sllt eval --tree tree.sllt                      re-evaluate a saved tree
//! sllt ocv  --tree tree.sllt [--derate 0.08]      variation analysis
//! sllt jobs submit --design s38584 [...]          talk to a running slltd
//! ```

use sllt::cts::{baseline, constraints::CtsConstraints, eval, flow::HierarchicalCts, ocv};
use sllt::cts::{CheckpointMode, CtsError, FlowEvent, NullSink, RunContext};
use sllt::design::{NetGenerator, SUITE};
use sllt::obs::{rss_bytes, RecordingSink, TelemetrySink, TraceWriter};
use sllt::route::{DelayModel, DmeOptions, TopologyScheme};
use sllt::timing::{BufferLibrary, Technology};
use sllt::tree::{io as tree_io, svg, ClockTree, NodeKind};
use std::process::ExitCode;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = args.first() else {
        eprintln!("{USAGE}");
        return ExitCode::FAILURE;
    };
    let result = match cmd.as_str() {
        "suite" => cmd_suite(),
        "run" => cmd_run(&args),
        "net" => cmd_net(&args),
        "eval" => cmd_eval(&args),
        "ocv" => cmd_ocv(&args),
        "jobs" => cmd_jobs(&args),
        "--help" | "-h" | "help" => {
            println!("{USAGE}");
            Ok(())
        }
        other => Err(format!("unknown command {other:?}\n{USAGE}")),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

const USAGE: &str = "usage:
  sllt suite
  sllt run  (--design <name> | --design-file <file>) [--flow ours|commercial|openroad]
            [--checkpoint <journal> [--resume]] [--workers N] [--progress]
            [--trace] [--tree <file>] [--svg <file>]
  sllt net  [--pins N] [--seed N] [--algo cbs|salt|rsmt|zst|bst|htree|ghtree] [--skew PS] [--svg <file>]
  sllt eval --tree <file>
  sllt ocv  --tree <file> [--derate F] [--trials N]
  sllt jobs <submit|status|cancel|result|watch|drain|ping>
            [--connect <socket|host:port>] [--job <id>]
            [--design <name> | --design-file <file>] [--config base|tight|nosa]
            [--timeout <s>] [--retries N] [--tenant <id>] [--wait]
            [--fault panic|hang|oom|sleep:<ms>] [--io-timeout <s>]

`sllt run --trace` streams span/counter/gauge events into
results/trace_<design>.jsonl and exports a Chrome/Perfetto trace to
results/trace_<design>.json (open at ui.perfetto.dev). `--progress`
prints deterministic work-budget completion fractions to stderr.

`sllt jobs` is the client for a running `slltd` daemon (default socket
results/slltd/slltd.sock); responses are printed as JSON lines.
Socket reads/writes are bounded (default 10s, `--io-timeout` adjusts;
`result --wait` is unbounded unless --io-timeout is given). `--tenant`
tags a submit for per-tenant admission quotas. `--fault` attaches a
test fault to a submitted job (see DESIGN.md §7).";

fn has_flag(args: &[String], name: &str) -> bool {
    args.iter().any(|a| a == name)
}

fn flag(args: &[String], name: &str) -> Option<String> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .cloned()
}

fn flag_parse<T: std::str::FromStr>(args: &[String], name: &str, default: T) -> Result<T, String> {
    match flag(args, name) {
        None => Ok(default),
        Some(v) => v
            .parse()
            .map_err(|_| format!("{name} expects a number, got {v:?}")),
    }
}

fn cmd_suite() -> Result<(), String> {
    println!(
        "{:>10} {:>9} {:>7} {:>6} {:>9}",
        "design", "#insts", "#FFs", "util", "die (µm)"
    );
    for s in &SUITE {
        println!(
            "{:>10} {:>9} {:>7} {:>6.3} {:>9.0}",
            s.name,
            s.num_instances,
            s.num_ffs,
            s.utilization,
            s.die_side_um()
        );
    }
    Ok(())
}

fn print_report(r: &eval::TreeReport) {
    println!(
        "latency    {:>9.1} ps (min {:.1})",
        r.max_latency_ps, r.min_latency_ps
    );
    println!("skew       {:>9.1} ps", r.skew_ps);
    println!(
        "buffers    {:>9}   (area {:.0} µm²)",
        r.num_buffers, r.buffer_area_um2
    );
    println!("clock cap  {:>9.0} fF", r.clock_cap_ff);
    println!("clock WL   {:>9.0} µm", r.clock_wl_um);
    println!("max slew   {:>9.1} ps", r.max_slew_ps);
    println!("sinks      {:>9}", r.num_sinks);
}

fn save_outputs(args: &[String], tree: &ClockTree, title: &str) -> Result<(), String> {
    if let Some(path) = flag(args, "--tree") {
        let mut f = std::fs::File::create(&path).map_err(|e| format!("create {path}: {e}"))?;
        tree_io::write_tree(tree, &mut f).map_err(|e| format!("write {path}: {e}"))?;
        println!("wrote {path}");
    }
    if let Some(path) = flag(args, "--svg") {
        std::fs::write(&path, svg::render(tree, title))
            .map_err(|e| format!("write {path}: {e}"))?;
        println!("wrote {path}");
    }
    Ok(())
}

/// Prints the event stream to stderr as it arrives. Fractions are the
/// engine's deterministic work-budget values, so the printed percentages
/// are identical at any worker count. Levels restored from a checkpoint
/// are not reprinted.
fn print_progress(ev: &FlowEvent) {
    let pct = |f: &f64| f * 100.0;
    match ev {
        FlowEvent::FlowStart { sinks } => eprintln!("[  0.0%] flow start: {sinks} sinks"),
        FlowEvent::LevelStart {
            level,
            nodes,
            fraction,
        } => eprintln!("[{:5.1}%] level {level}: {nodes} nodes", pct(fraction)),
        FlowEvent::ClusterDecile {
            level,
            tenths,
            fraction,
        } => eprintln!(
            "[{:5.1}%] level {level}: {}% routed",
            pct(fraction),
            tenths * 10
        ),
        FlowEvent::LevelDone { resumed: true, .. } => {}
        FlowEvent::LevelDone {
            report, fraction, ..
        } => eprintln!(
            "[{:5.1}%] level {} done -> {} parents",
            pct(fraction),
            report.level,
            report.num_clusters
        ),
        FlowEvent::StorageDegraded { level, detail } => {
            eprintln!("warning: checkpoint write failed at level {level} ({detail}); continuing without checkpoints");
        }
        FlowEvent::Assembled { .. } => eprintln!("[100.0%] tree assembled"),
    }
}

/// Runs the flow (`run`, given the telemetry sink to record into) with
/// live tracing: a background drainer empties the per-thread trace
/// rings into `results/trace_<design>.jsonl` every ~50 ms (also
/// sampling process RSS as a gauge), and after the run the sealed
/// journal is exported as a Chrome trace-event file
/// (`results/trace_<design>.json`) and validated by parsing it back.
fn run_traced(
    design: &str,
    run: impl FnOnce(&dyn TelemetrySink) -> Result<ClockTree, CtsError>,
) -> Result<ClockTree, String> {
    std::fs::create_dir_all("results").map_err(|e| format!("create results directory: {e}"))?;
    let jsonl = std::path::PathBuf::from(format!("results/trace_{design}.jsonl"));
    let sink = RecordingSink::new();
    let hub = sink
        .registry()
        .enable_tracing(sllt::obs::DEFAULT_TRACE_CAPACITY);
    let mut writer =
        TraceWriter::create(&jsonl, design).map_err(|e| format!("create trace: {e}"))?;
    let stop = Arc::new(AtomicBool::new(false));
    let drainer = std::thread::spawn({
        let hub = hub.clone();
        let stop = Arc::clone(&stop);
        move || -> std::io::Result<usize> {
            let sampler = hub.register("sampler");
            loop {
                if let Some(rss) = rss_bytes() {
                    sampler.gauge("process.rss_bytes", rss as f64);
                }
                writer.drain_from(&hub)?;
                if stop.load(Ordering::Acquire) {
                    break;
                }
                std::thread::sleep(std::time::Duration::from_millis(50));
            }
            // The run is over and every shard has merged: one final
            // drain picks up whatever landed since the last tick.
            writer.drain_from(&hub)?;
            Ok(writer.chunks_written())
        }
    });
    let result = run(&sink);
    stop.store(true, Ordering::Release);
    let drained = drainer.join().expect("trace drainer panicked");
    let tree = result.map_err(|e| format!("CTS flow failed: {e}"))?;
    let chunks = drained.map_err(|e| format!("write {}: {e}", jsonl.display()))?;

    // Export + self-validate: the Chrome JSON must parse back.
    let tf = sllt::obs::read_trace(&jsonl)?;
    let chrome = std::path::PathBuf::from(format!("results/trace_{design}.json"));
    sllt::obs::write_chrome(&chrome, &tf)
        .map_err(|e| format!("write {}: {e}", chrome.display()))?;
    let text =
        std::fs::read_to_string(&chrome).map_err(|e| format!("read {}: {e}", chrome.display()))?;
    sllt::obs::json::parse(&text)
        .map_err(|e| format!("{}: invalid Chrome trace: {e}", chrome.display()))?;
    println!(
        "traced {} events in {chunks} chunks ({} dropped) -> {} + {}",
        tf.num_events(),
        tf.total_dropped(),
        jsonl.display(),
        chrome.display()
    );
    Ok(tree)
}

/// Runs an engine-based flow with Ctrl-C wired to cooperative
/// cancellation, optionally traced (`--trace`), printing progress
/// (`--progress`), and journaled to `--checkpoint <file>`. With
/// `--resume` and an existing journal, the run continues from the last
/// committed level instead of starting over; an interrupted run exits
/// nonzero but leaves the journal resumable.
fn run_engine(
    cts: HierarchicalCts,
    design: &sllt::design::Design,
    args: &[String],
) -> Result<ClockTree, String> {
    let token = sllt::cts::CancelToken::new();
    #[cfg(unix)]
    sllt::cts::cancel::install_signals(&token);
    let cts = HierarchicalCts {
        workers: flag_parse(args, "--workers", cts.workers)?,
        ..cts
    };
    let progress = has_flag(args, "--progress");
    let mut observer = |ev: &FlowEvent| {
        if progress {
            print_progress(ev);
        }
    };
    let journal = flag(args, "--checkpoint").map(std::path::PathBuf::from);
    let checkpoint = match &journal {
        Some(path) if has_flag(args, "--resume") && path.exists() => CheckpointMode::Resume(path),
        Some(path) => CheckpointMode::Fresh(path),
        None => CheckpointMode::Off,
    };
    let run = |telemetry: &dyn TelemetrySink| {
        let ctx = RunContext {
            cancel: token,
            checkpoint,
            ..RunContext::new(&mut observer, telemetry)
        };
        cts.run_in(design, ctx)
    };
    if has_flag(args, "--trace") {
        return run_traced(&design.name, run);
    }
    run(&NullSink).map_err(|e| format!("CTS flow failed: {e}"))
}

fn cmd_run(args: &[String]) -> Result<(), String> {
    let design = if let Some(path) = flag(args, "--design-file") {
        let f = std::fs::File::open(&path).map_err(|e| format!("open {path}: {e}"))?;
        sllt::design::read_design(&mut std::io::BufReader::new(f))
            .map_err(|e| format!("{path}: {e}"))?
    } else {
        let name =
            flag(args, "--design").ok_or("run needs --design <name> or --design-file <file>")?;
        sllt::design::design_by_name(&name)?
    };
    let name = design.name.clone();
    let flow = flag(args, "--flow").unwrap_or_else(|| "ours".into());
    let ours = HierarchicalCts::default();
    let tree = match flow.as_str() {
        "ours" => run_engine(HierarchicalCts::default(), &design, args)?,
        "commercial" => run_engine(baseline::commercial_like(), &design, args)?,
        "openroad" => {
            if has_flag(args, "--trace") || has_flag(args, "--progress") {
                return Err("--trace/--progress need an engine flow (ours|commercial)".into());
            }
            baseline::open_road_like(&design, &CtsConstraints::paper(), &ours.tech, &ours.lib)
        }
        other => return Err(format!("unknown flow {other:?}")),
    };
    println!("{} / {flow}:", design.name);
    print_report(&eval::evaluate(&tree, &ours.tech, &ours.lib));
    save_outputs(args, &tree, &format!("{name} {flow}"))
}

fn cmd_net(args: &[String]) -> Result<(), String> {
    let pins: usize = flag_parse(args, "--pins", 24)?;
    let seed: u64 = flag_parse(args, "--seed", 1)?;
    let skew: f64 = flag_parse(args, "--skew", 10.0)?;
    let algo = flag(args, "--algo").unwrap_or_else(|| "cbs".into());
    // The net generator asserts on an empty net, and DME on a negative or
    // NaN bound; turn bad flags into clean errors instead of panics.
    if pins == 0 {
        return Err("--pins must be at least 1".into());
    }
    if skew.is_nan() || skew < 0.0 {
        return Err(format!("--skew must be a non-negative number, got {skew}"));
    }
    let gen = NetGenerator {
        min_pins: pins,
        max_pins: pins,
        seed,
        ..NetGenerator::paper()
    };
    let net = gen.net(0);
    let tech = Technology::n28();
    let model = DelayModel::Elmore(tech);
    let topo = TopologyScheme::GreedyDist.build(&net);
    let tree = match algo.as_str() {
        "cbs" => sllt::core::cbs::cbs(
            &net,
            &sllt::core::cbs::CbsConfig {
                skew_bound: skew,
                model,
                ..Default::default()
            },
        ),
        "salt" => sllt::route::salt(&net, 0.2),
        "rsmt" => sllt::route::rsmt(&net),
        "zst" => sllt::route::zst_dme(&net, &topo),
        "bst" => sllt::route::dme(
            &net,
            &topo,
            &DmeOptions {
                skew_bound: skew,
                model,
            },
        ),
        "htree" => sllt::route::htree(&net, 2),
        "ghtree" => sllt::route::ghtree(&net, 2),
        other => return Err(format!("unknown algo {other:?}")),
    };
    let report = sllt::core::analyze(&net, &tree);
    println!("{algo} over {pins} pins (seed {seed}):");
    println!(
        "wirelength {:>9.1} µm (RSMT ref {:.1})",
        report.metrics.wirelength, report.ref_wl_um
    );
    println!("alpha      {:>9.3}", report.metrics.shallowness);
    println!("beta       {:>9.3}", report.metrics.lightness);
    println!("gamma      {:>9.3}", report.metrics.skewness);
    println!("Elmore skew{:>9.2} ps", sllt::route::skew_of(&tree, &model));
    save_outputs(args, &tree, &format!("{algo} net"))
}

/// Reads `--tree` and refuses what the timing walk cannot evaluate: a
/// tree without sinks, or a buffer cell outside `lib`.
fn load_tree(args: &[String], lib: &BufferLibrary) -> Result<ClockTree, String> {
    let path = flag(args, "--tree").ok_or("needs --tree <file>")?;
    let f = std::fs::File::open(&path).map_err(|e| format!("open {path}: {e}"))?;
    let tree =
        tree_io::read_tree(&mut std::io::BufReader::new(f)).map_err(|e| format!("{path}: {e}"))?;
    if tree.sinks().is_empty() {
        return Err(format!("{path}: the tree has no sinks"));
    }
    let n = lib.cells().len();
    for id in tree.node_ids() {
        if let NodeKind::Buffer { cell } = tree.node(id).kind {
            if cell >= n {
                return Err(format!(
                    "{path}: buffer cell {cell} outside the {n}-cell library"
                ));
            }
        }
    }
    Ok(tree)
}

fn cmd_eval(args: &[String]) -> Result<(), String> {
    let tech = Technology::n28();
    let lib = BufferLibrary::n28();
    let tree = load_tree(args, &lib)?;
    print_report(&eval::evaluate(&tree, &tech, &lib));
    Ok(())
}

/// `sllt jobs <verb>` — thin client over the `slltd` JSONL protocol.
/// Every response (including protocol errors) is printed as one JSON
/// line; a `{"ok":false,...}` reply exits nonzero so scripts can branch
/// on backpressure and drain refusals.
fn cmd_jobs(args: &[String]) -> Result<(), String> {
    use sllt::server::client::{req, Client};
    use sllt::server::Endpoint;

    let verb = args
        .get(1)
        .ok_or("jobs needs a verb: submit|status|cancel|result|watch|drain|ping")?;
    let connect = flag(args, "--connect").unwrap_or_else(|| "results/slltd/slltd.sock".into());
    let ep = Endpoint::parse(&connect);
    let mut client =
        Client::connect(&ep).map_err(|e| format!("connect {connect}: {e} (is slltd running?)"))?;

    // Socket-level read/write bound so a wedged daemon cannot hang the
    // CLI. `result --wait` blocks server-side for the whole job, so it
    // gets no default bound; `watch` is safe because the server emits
    // keep-alive frames through quiet stretches.
    let io_timeout = match flag(args, "--io-timeout") {
        Some(t) => {
            let s: f64 = t.parse().map_err(|_| "--io-timeout expects seconds")?;
            if s <= 0.0 || !s.is_finite() {
                return Err("--io-timeout must be a positive number of seconds".into());
            }
            Some(std::time::Duration::from_secs_f64(s))
        }
        None if verb == "result" && has_flag(args, "--wait") => None,
        None => Some(std::time::Duration::from_secs(10)),
    };
    client
        .set_io_timeout(io_timeout)
        .map_err(|e| format!("set io timeout: {e}"))?;

    let need_job = || flag(args, "--job").ok_or(format!("jobs {verb} needs --job <id>"));
    let request = match verb.as_str() {
        "ping" => req::ping(),
        "submit" => {
            let mut r = match (flag(args, "--design"), flag(args, "--design-file")) {
                (Some(d), _) => req::submit(&d, &flag(args, "--config").unwrap_or("base".into())),
                (None, Some(f)) => {
                    req::submit("", &flag(args, "--config").unwrap_or("base".into()))
                        .with("design_file", f)
                }
                (None, None) => {
                    return Err("jobs submit needs --design <name> or --design-file <file>".into())
                }
            };
            if let Some(t) = flag(args, "--timeout") {
                let t: f64 = t.parse().map_err(|_| "--timeout expects seconds")?;
                r = r.with("timeout_s", t);
            }
            if let Some(n) = flag(args, "--retries") {
                let n: u64 = n.parse().map_err(|_| "--retries expects an integer")?;
                r = r.with("retries", n);
            }
            if let Some(f) = flag(args, "--fault") {
                r = r.with("fault", f);
            }
            if let Some(t) = flag(args, "--tenant") {
                r = r.with("tenant", t);
            }
            r
        }
        "status" => req::status(flag(args, "--job").as_deref()),
        "cancel" => req::cancel(&need_job()?),
        "result" => req::result(&need_job()?, has_flag(args, "--wait")),
        "watch" => req::watch(&need_job()?),
        "drain" => req::drain(),
        other => return Err(format!("unknown jobs verb {other:?}")),
    };

    if verb == "watch" {
        // Streaming verb: print every line until the server closes or
        // sends the final (non-event) object.
        client.send(&request).map_err(|e| format!("send: {e}"))?;
        loop {
            match client.recv()? {
                None => return Ok(()),
                Some(v) => {
                    if v.get("alive").is_some() {
                        continue; // keep-alive frame, not part of the stream
                    }
                    println!("{}", v.encode());
                    if v.get("event").is_none() {
                        let ok = v.get("ok") == Some(&sllt::obs::Value::Bool(true));
                        return if ok {
                            Ok(())
                        } else {
                            Err("server reported failure".into())
                        };
                    }
                }
            }
        }
    }

    let reply = client.request(&request)?;
    println!("{}", reply.encode());
    if reply.get("ok") == Some(&sllt::obs::Value::Bool(true)) {
        Ok(())
    } else {
        let code = reply
            .get("code")
            .and_then(sllt::obs::Value::as_u64)
            .unwrap_or(0);
        let msg = reply
            .get("error")
            .and_then(sllt::obs::Value::as_str)
            .unwrap_or("request refused");
        Err(format!("server error {code}: {msg}"))
    }
}

fn cmd_ocv(args: &[String]) -> Result<(), String> {
    let tech = Technology::n28();
    let lib = BufferLibrary::n28();
    let tree = load_tree(args, &lib)?;
    let derate: f64 = flag_parse(args, "--derate", 0.08)?;
    let trials: usize = flag_parse(args, "--trials", 200)?;
    // derate_skew and ocv_analysis assert on these; turn bad flags into
    // clean errors instead of panics.
    if !(derate.is_finite() && derate >= 0.0) {
        return Err(format!(
            "--derate must be a finite, non-negative fraction, got {derate}"
        ));
    }
    if trials == 0 {
        return Err("--trials must be at least 1".into());
    }
    let nominal = ocv::derate_skew(&tree, &tech, &lib, 0.0);
    let derated = ocv::derate_skew(&tree, &tech, &lib, derate);
    let mc = ocv::ocv_analysis(&tree, &tech, &lib, &ocv::OcvModel::default(), trials);
    println!("nominal skew      {nominal:>8.1} ps");
    println!("derated ±{:>4.1}%    {derated:>8.1} ps", derate * 100.0);
    println!(
        "MC mean/p95/max   {:>8.1} / {:.1} / {:.1} ps ({} trials)",
        mc.mean_skew_ps, mc.p95_skew_ps, mc.max_skew_ps, mc.trials
    );
    Ok(())
}
