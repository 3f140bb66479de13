//! `slltd` — the SLLT CTS job daemon.
//!
//! Two personalities in one binary:
//!
//! * **daemon** (default): bind the socket, serve the JSONL protocol,
//!   schedule jobs on the worker pool, drain cleanly on SIGTERM/SIGINT
//!   or the `drain` verb.
//! * **job child** (`--job <id> …`): run one CTS job attempt in this
//!   process and exit. The daemon re-execs itself into this mode so
//!   each attempt lives and dies alone.

use sllt_cts::CancelToken;
use sllt_obs::vfs::{FaultConfig, FaultFs};
use sllt_server::jobs::{run_child, ChildArgs};
use sllt_server::net::Endpoint;
use sllt_server::server::{serve, ServerConfig};
use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Duration;

const USAGE: &str = "\
slltd — SLLT CTS job daemon (JSONL over unix/tcp socket)

USAGE:
  slltd [--listen <path|host:port>] [--state-dir <dir>] [--workers N]
        [--queue-cap N] [--timeout <s>] [--retries N] [--child-workers N]
        [--drain-grace <s>] [--cancel-grace <s>] [--seed N] [--resume]
        [--mem-limit <MB>] [--disk-budget <MB>] [--tenant-quota N]
        [--tenant-refill <per_s>] [--fault-fs <spec>]
  slltd --job <id> --design <name> [--design-file <path>] --config <name>
        --out <dir> [--workers N] [--fault panic|hang|oom|sleep:<ms>]

Defaults: --state-dir results/slltd, --listen <state-dir>/slltd.sock,
--workers 2, --queue-cap 8, --retries 1, no default timeout.
Resource governance: --mem-limit caps each job child's address space
(jobs killed by it finish as status \"oom\", never retried);
--disk-budget bounds completed-job artifacts in the state dir (oldest
deleted first); --tenant-quota/--tenant-refill token-bucket submits
per client-supplied tenant id (over-quota submits get a 429).
Fault injection: --fault-fs seed=N[,after=N][,rate=F][,kinds=...]
routes the daemon's own journal/cache writes through a deterministic
fault-injecting filesystem (testing only).
Drain: send SIGTERM (or the drain verb); unfinished jobs checkpoint and
a later `slltd --resume` completes them (and compacts the journal).";

fn arg_value(name: &str) -> Option<String> {
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        if a == name {
            return args.next();
        }
    }
    None
}

fn arg_flag(name: &str) -> bool {
    std::env::args().skip(1).any(|a| a == name)
}

fn arg_parse<T: std::str::FromStr>(name: &str, default: T) -> T {
    match arg_value(name) {
        None => default,
        Some(raw) => match raw.parse() {
            Ok(v) => v,
            Err(_) => {
                eprintln!("error: bad value {raw:?} for {name}");
                std::process::exit(2);
            }
        },
    }
}

fn main() -> ExitCode {
    if arg_flag("--help") || arg_flag("-h") {
        println!("{USAGE}");
        return ExitCode::SUCCESS;
    }

    if let Some(job_id) = arg_value("--job") {
        return child_main(job_id);
    }

    let state_dir = PathBuf::from(arg_value("--state-dir").unwrap_or("results/slltd".into()));
    let listen_raw =
        arg_value("--listen").unwrap_or_else(|| state_dir.join("slltd.sock").display().to_string());
    let listen = Endpoint::parse(&listen_raw);

    let mut cfg = ServerConfig::new(listen, state_dir);
    cfg.workers = arg_parse("--workers", cfg.workers);
    cfg.queue_cap = arg_parse("--queue-cap", cfg.queue_cap);
    cfg.default_retries = arg_parse("--retries", cfg.default_retries);
    cfg.child_workers = arg_parse("--child-workers", cfg.child_workers);
    cfg.seed = arg_parse("--seed", cfg.seed);
    cfg.resume = arg_flag("--resume");
    if let Some(t) = arg_value("--timeout") {
        match t.parse::<f64>() {
            Ok(s) if s > 0.0 && s.is_finite() => {
                cfg.default_timeout = Some(Duration::from_secs_f64(s));
            }
            _ => {
                eprintln!("error: --timeout must be a positive number of seconds");
                return ExitCode::from(2);
            }
        }
    }
    cfg.drain_grace = Duration::from_secs_f64(arg_parse("--drain-grace", 2.0_f64).max(0.0));
    cfg.cancel_grace = Duration::from_secs_f64(arg_parse("--cancel-grace", 5.0_f64).max(0.0));
    if let Some(mb) = arg_value("--mem-limit") {
        match mb.parse::<f64>() {
            Ok(m) if m > 0.0 && m.is_finite() => {
                cfg.mem_limit = Some((m * 1024.0 * 1024.0) as u64);
            }
            _ => {
                eprintln!("error: --mem-limit must be a positive number of MB");
                return ExitCode::from(2);
            }
        }
    }
    if let Some(mb) = arg_value("--disk-budget") {
        match mb.parse::<f64>() {
            Ok(m) if m > 0.0 && m.is_finite() => {
                cfg.disk_budget = Some((m * 1024.0 * 1024.0) as u64);
            }
            _ => {
                eprintln!("error: --disk-budget must be a positive number of MB");
                return ExitCode::from(2);
            }
        }
    }
    if let Some(q) = arg_value("--tenant-quota") {
        match q.parse::<f64>() {
            Ok(c) if c >= 1.0 && c.is_finite() => cfg.tenant_quota = Some(c),
            _ => {
                eprintln!("error: --tenant-quota must be a number >= 1");
                return ExitCode::from(2);
            }
        }
    }
    cfg.tenant_refill = arg_parse("--tenant-refill", cfg.tenant_refill);
    if let Some(spec) = arg_value("--fault-fs") {
        match FaultConfig::parse(&spec) {
            Ok(fc) => cfg.vfs = Arc::new(FaultFs::over_real(fc)),
            Err(e) => {
                eprintln!("error: --fault-fs: {e}");
                return ExitCode::from(2);
            }
        }
    }

    // SIGTERM and SIGINT both mean "drain": stop admitting, let
    // in-flight jobs finish or checkpoint, seal the journal, exit 0.
    let drain = CancelToken::new();
    #[cfg(unix)]
    sllt_cts::cancel::install_signals(&drain);

    match serve(cfg, drain) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(2)
        }
    }
}

fn child_main(job_id: String) -> ExitCode {
    let need = |name: &str| {
        arg_value(name).unwrap_or_else(|| {
            eprintln!("error: --job mode requires {name}");
            std::process::exit(2);
        })
    };
    let args = ChildArgs {
        job_id,
        design: arg_value("--design").unwrap_or_default(),
        design_file: arg_value("--design-file").map(PathBuf::from),
        config: arg_value("--config").unwrap_or("base".into()),
        workers: arg_parse("--workers", 1),
        out_dir: PathBuf::from(need("--out")),
        fault: arg_value("--fault"),
    };
    match run_child(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(code) => ExitCode::from(code),
    }
}
