//! The `slltd` daemon: accept loop, worker pool, drain choreography.
//!
//! One thread per client connection (requests are line-delimited and
//! answered in order), a fixed pool of worker threads that pop the
//! admission queue, and one child process per job attempt — the worker
//! supervises the child ([`run_supervised`]) and classifies its exit.
//! All shared state hangs off `Shared`: the journaled [`JobTable`]
//! under one mutex, the durable appender under another, and the two
//! condvars that connect them (`cv_queue` wakes workers on admission,
//! `cv_done` wakes `result --wait` clients on completion).
//!
//! Drain is cooperative and total-ordered: the drain token fires (via
//! SIGTERM or the `drain` verb), admission flips to 503, idle workers
//! exit, in-flight children get [`drain_grace`](ServerConfig) to finish
//! on their own and are then SIGINTed so they checkpoint and exit; the
//! journal gets a `drained` seal record and the process exits 0. A
//! SIGKILLed daemon skips all of that — which is fine, because the
//! journal is written ahead of every acknowledged transition and
//! `--resume` replays it.

use crate::backoff::default_backoff_ms;
use crate::cache::DesignCache;
use crate::jobs::{self, ChildArgs, EXIT_JOB_CANCELLED, EXIT_JOB_ERROR};
use crate::net::{Endpoint, Listener, Stream};
use crate::proto::{
    parse_request, read_frame, Frame, ProtoError, Request, SubmitSpec, E_BUSY, E_DRAINING,
    E_INTERNAL, E_NOT_FOUND, E_PARSE, E_TOO_LARGE,
};
use crate::state::{
    CancelOutcome, JobState, JobTable, STATUS_CANCELLED, STATUS_DRAINED, STATUS_ERROR, STATUS_OK,
    STATUS_OOM, STATUS_PANIC, STATUS_TIMEOUT,
};
use crate::supervise::{run_supervised, SuperviseOpts};
use sllt_cts::CancelToken;
use sllt_obs::journal::{fnv1a64, read_journal, DurableAppender};
use sllt_obs::progress::{latest_fraction, read_progress};
use sllt_obs::vfs::{real_fs, Vfs};
use sllt_obs::Value;
use std::collections::{HashMap, HashSet};
use std::io::{BufReader, Write};
use std::path::{Path, PathBuf};
use std::process::Command;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// Everything that shapes one daemon instance.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Where to listen (unix socket path or `host:port`).
    pub listen: Endpoint,
    /// Worker pool size = max concurrently running children.
    pub workers: usize,
    /// Admission queue capacity; submits beyond it get [`E_BUSY`].
    pub queue_cap: usize,
    /// Default per-attempt deadline when a submit names none.
    pub default_timeout: Option<Duration>,
    /// Default retry budget when a submit names none.
    pub default_retries: u32,
    /// State directory: `jobs.jsonl`, checkpoints, progress journals,
    /// result trees, and the design cache all live here.
    pub state_dir: PathBuf,
    /// Replay `jobs.jsonl` and re-enqueue unfinished jobs.
    pub resume: bool,
    /// SIGINT → SIGKILL escalation window for cancelled children.
    pub cancel_grace: Duration,
    /// How long in-flight jobs may run on after drain starts before
    /// they are asked (SIGINT) to checkpoint and exit.
    pub drain_grace: Duration,
    /// Threads for every fan-out of each child's flow (partition cells,
    /// restarts, SA chains, the median split and routing).
    pub child_workers: usize,
    /// Seed for the deterministic retry-backoff jitter.
    pub seed: u64,
    /// Filesystem seam for the journal, the design cache, and resume
    /// compaction; swap in a [`FaultFs`](sllt_obs::vfs::FaultFs) (via
    /// `--fault-fs`) to torture the storage paths deterministically.
    pub vfs: Arc<dyn Vfs>,
    /// Per-job address-space ceiling (bytes) installed in each child
    /// before exec; a child killed by it is classified
    /// [`STATUS_OOM`], final, never retried. `None` = unlimited.
    pub mem_limit: Option<u64>,
    /// Byte budget for completed-job artifacts in the state dir
    /// (result trees, progress journals, checkpoints); when exceeded,
    /// oldest unprotected artifacts are deleted. `None` = unbounded.
    pub disk_budget: Option<u64>,
    /// Per-tenant admission token-bucket capacity; `None` disables
    /// tenant quotas entirely.
    pub tenant_quota: Option<f64>,
    /// Token-bucket refill rate, tokens (admitted submits) per second.
    pub tenant_refill: f64,
}

impl ServerConfig {
    /// Sensible defaults for `listen`/`state_dir`; everything else
    /// tunable by flag.
    pub fn new(listen: Endpoint, state_dir: PathBuf) -> ServerConfig {
        ServerConfig {
            listen,
            workers: 2,
            queue_cap: 8,
            default_timeout: None,
            default_retries: 1,
            state_dir,
            resume: false,
            cancel_grace: Duration::from_secs(5),
            drain_grace: Duration::from_secs(2),
            child_workers: 1,
            seed: 0x511d,
            vfs: real_fs(),
            mem_limit: None,
            disk_budget: None,
            tenant_quota: None,
            tenant_refill: 1.0,
        }
    }
}

/// One tenant's admission token bucket: `tokens` refills continuously
/// at the configured rate, capped at the configured capacity; each
/// admitted submit spends one token.
#[derive(Debug)]
struct Bucket {
    tokens: f64,
    last: Instant,
}

struct Shared {
    cfg: ServerConfig,
    table: Mutex<JobTable>,
    cv_queue: Condvar,
    cv_done: Condvar,
    journal: Mutex<DurableAppender>,
    cache: DesignCache,
    draining: AtomicBool,
    drain: CancelToken,
    /// Set on the first journal-append failure: admission flips to 503
    /// and a drain is triggered, because an unwritable journal means
    /// acknowledged transitions would be lost on restart.
    journal_failed: AtomicBool,
    /// Admission token buckets, keyed by tenant id.
    tenants: Mutex<HashMap<String, Bucket>>,
    /// Interrupt token of each currently running attempt, by job id.
    interrupts: Mutex<HashMap<String, CancelToken>>,
}

impl Shared {
    fn append(&self, rec: &Value) -> Result<(), String> {
        let r = self
            .journal
            .lock()
            .expect("journal lock")
            .append(rec)
            .map_err(|e| format!("journal append: {e}"));
        // The journal is the daemon's own durability story; once it is
        // unwritable, every further acknowledgement would be a lie on
        // restart. Degrade the whole daemon: stop admitting, finish
        // what's running, exit so the operator can fix the disk.
        if r.is_err() && !self.journal_failed.swap(true, Ordering::SeqCst) {
            eprintln!("slltd: journal unwritable; refusing new work and draining");
            self.drain.cancel();
        }
        r
    }

    /// Charges one admission token to `tenant`; `Err` is the 429 the
    /// client sees. No-op when quotas are disabled.
    fn admit_tenant(&self, tenant: &str) -> Result<(), ProtoError> {
        let Some(cap) = self.cfg.tenant_quota else {
            return Ok(());
        };
        let mut tenants = self.tenants.lock().expect("tenants lock");
        let now = Instant::now();
        let b = tenants.entry(tenant.to_string()).or_insert(Bucket {
            tokens: cap,
            last: now,
        });
        let dt = now.duration_since(b.last).as_secs_f64();
        b.tokens = (b.tokens + dt * self.cfg.tenant_refill).min(cap);
        b.last = now;
        if b.tokens < 1.0 {
            return Err(ProtoError::new(
                E_BUSY,
                format!("tenant {tenant:?} over admission quota; retry later"),
            ));
        }
        b.tokens -= 1.0;
        Ok(())
    }

    /// Enforces the artifact disk budget, protecting unfinished jobs
    /// (their checkpoints are what `--resume` resumes from).
    fn gc_disk(&self) {
        let Some(budget) = self.cfg.disk_budget else {
            return;
        };
        let protect: HashSet<String> = {
            let t = self.table.lock().expect("table lock");
            t.iter()
                .filter(|r| !matches!(r.state, JobState::Done(_)))
                .map(|r| r.id.clone())
                .collect()
        };
        match jobs::gc_artifacts(&self.cfg.state_dir, budget, &protect) {
            Ok(rep) if rep.freed > 0 => eprintln!(
                "slltd: disk budget: freed {} bytes ({} artifact(s)), {} bytes remain",
                rep.freed, rep.deleted, rep.remaining
            ),
            Ok(_) => {}
            Err(e) => eprintln!("slltd: disk budget sweep failed: {e}"),
        }
    }

    fn running(&self) -> usize {
        let t = self.table.lock().expect("table lock");
        t.iter().filter(|r| r.state == JobState::Running).count()
    }

    fn progress_of(&self, id: &str) -> Option<f64> {
        latest_fraction(&read_progress(&jobs::progress_path(&self.cfg.state_dir, id)).ok()?)
    }
}

/// Runs the daemon to completion (returns after a clean drain).
///
/// # Errors
///
/// Setup failures: state dir, journal open/replay, socket bind.
pub fn serve(cfg: ServerConfig, drain: CancelToken) -> Result<(), String> {
    std::fs::create_dir_all(&cfg.state_dir)
        .map_err(|e| format!("state dir {}: {e}", cfg.state_dir.display()))?;
    let journal_path = cfg.state_dir.join("jobs.jsonl");
    let (table, appender, requeued) = if cfg.resume && journal_path.exists() {
        let j =
            read_journal(&journal_path).map_err(|e| format!("{}: {e}", journal_path.display()))?;
        let (t, requeued) = JobTable::replay(&j)?;
        // Resume is the natural compaction point: the replayed table is
        // the journal's whole meaning, so rewrite it as one snapshot
        // instead of re-appending to an unbounded history.
        let app = match compact_journal(cfg.vfs.as_ref(), &journal_path, &t) {
            Ok(app) => app,
            Err(e) => {
                // A full disk must not block resume; keep appending to
                // the (possibly torn-tailed) original.
                eprintln!("slltd: journal compaction skipped ({e})");
                DurableAppender::reopen_with(cfg.vfs.as_ref(), &journal_path, j.valid_len)
                    .map_err(|e| format!("{}: {e}", journal_path.display()))?
            }
        };
        (t, app, requeued)
    } else {
        let mut app = DurableAppender::create_with(cfg.vfs.as_ref(), &journal_path)
            .map_err(|e| format!("{}: {e}", journal_path.display()))?;
        app.append(&JobTable::meta())
            .map_err(|e| format!("{}: {e}", journal_path.display()))?;
        (JobTable::new(), app, Vec::new())
    };
    if !requeued.is_empty() {
        eprintln!(
            "slltd: resume re-enqueued {} job(s): {}",
            requeued.len(),
            requeued.join(", ")
        );
    }
    let cache = DesignCache::open_with(Arc::clone(&cfg.vfs), &cfg.state_dir.join("designs"))
        .map_err(|e| format!("design cache: {e}"))?;
    let listener = Listener::bind(&cfg.listen).map_err(|e| format!("bind {}: {e}", cfg.listen))?;

    let shared = Arc::new(Shared {
        table: Mutex::new(table),
        cv_queue: Condvar::new(),
        cv_done: Condvar::new(),
        journal: Mutex::new(appender),
        cache,
        draining: AtomicBool::new(false),
        drain,
        journal_failed: AtomicBool::new(false),
        tenants: Mutex::new(HashMap::new()),
        interrupts: Mutex::new(HashMap::new()),
        cfg,
    });
    shared.gc_disk();

    let workers: Vec<_> = (0..shared.cfg.workers.max(1))
        .map(|i| {
            let s = Arc::clone(&shared);
            std::thread::Builder::new()
                .name(format!("slltd-worker-{i}"))
                .spawn(move || worker_loop(&s))
                .expect("spawn worker")
        })
        .collect();

    println!("slltd: listening on {}", shared.cfg.listen);
    std::io::stdout().flush().ok();

    // Accept until drain fires; each connection gets a detached thread.
    while !shared.drain.is_cancelled() {
        match listener.accept() {
            Ok(Some(stream)) => {
                let s = Arc::clone(&shared);
                std::thread::spawn(move || {
                    if let Err(e) = serve_connection(&s, stream) {
                        // Client hangups are routine; log and move on.
                        eprintln!("slltd: connection: {e}");
                    }
                });
            }
            Ok(None) => {
                listener.wait_readable(Duration::from_millis(20));
            }
            Err(e) => return Err(format!("accept: {e}")),
        }
    }

    // --- drain choreography ---
    shared.draining.store(true, Ordering::SeqCst);
    shared.cv_queue.notify_all();
    eprintln!("slltd: draining ({} running)", shared.running());
    let grace_until = Instant::now() + shared.cfg.drain_grace;
    while shared.running() > 0 && Instant::now() < grace_until {
        std::thread::sleep(Duration::from_millis(20));
    }
    // Stragglers: ask them to checkpoint and exit.
    for token in shared.interrupts.lock().expect("interrupts lock").values() {
        token.cancel();
    }
    for w in workers {
        w.join().map_err(|_| "worker panicked".to_string())?;
    }
    // The seal is best-effort: a drain forced by a dead disk must still
    // exit cleanly, and an unsealed journal only costs a replay.
    if let Err(e) = shared.append(&JobTable::drained_record()) {
        eprintln!("slltd: journal seal failed ({e}); resume will replay the unsealed tail");
    }
    shared.cv_done.notify_all();
    let left = shared.table.lock().expect("table lock").unfinished();
    eprintln!("slltd: drained; {left} job(s) left for --resume");
    Ok(())
}

/// Rewrites `jobs.jsonl` as a compacted snapshot of `table` — temp file
/// alongside, one write and one fsync, then atomic rename — and returns
/// an appender positioned at its end.
fn compact_journal(
    vfs: &dyn Vfs,
    path: &Path,
    table: &JobTable,
) -> Result<DurableAppender, String> {
    let tmp = path.with_extension("jsonl.tmp");
    let mut app = DurableAppender::create_with(vfs, &tmp)
        .map_err(|e| format!("create {}: {e}", tmp.display()))?;
    app.append_all(&table.compact_records())
        .map_err(|e| format!("write {}: {e}", tmp.display()))?;
    drop(app);
    let len = std::fs::metadata(&tmp)
        .map_err(|e| format!("stat {}: {e}", tmp.display()))?
        .len();
    vfs.rename(&tmp, path)
        .map_err(|e| format!("rename {}: {e}", path.display()))?;
    DurableAppender::reopen_with(vfs, path, len).map_err(|e| format!("{}: {e}", path.display()))
}

// ---------------------------------------------------------------- workers

fn worker_loop(s: &Shared) {
    loop {
        let id = {
            let mut t = s.table.lock().expect("table lock");
            loop {
                if s.draining.load(Ordering::SeqCst) {
                    return; // queued jobs stay queued, for --resume
                }
                if let Some(id) = t.pop_ready() {
                    break id;
                }
                let (guard, _) = s
                    .cv_queue
                    .wait_timeout(t, Duration::from_millis(100))
                    .expect("queue wait");
                t = guard;
            }
        };
        run_job(s, &id);
        s.cv_done.notify_all();
    }
}

/// One job, start to final status: attempts, backoff, classification.
fn run_job(s: &Shared, id: &str) {
    let (design, design_file, config, timeout_s, retries, fault, mut attempt) = {
        let t = s.table.lock().expect("table lock");
        let r = t.get(id).expect("popped job exists");
        (
            r.design.clone(),
            r.design_file.clone(),
            r.config.clone(),
            r.timeout_s,
            r.retries,
            r.fault.clone(),
            r.attempt,
        )
    };
    let max_attempts = retries + 1;
    let backoff_seed = s.cfg.seed ^ fnv1a64(id.as_bytes());
    let timeout = timeout_s
        .map(Duration::from_secs_f64)
        .or(s.cfg.default_timeout);

    loop {
        attempt += 1;
        let backoff = default_backoff_ms(backoff_seed, attempt);
        if backoff > 0 && !sleep_unless_drain(s, Duration::from_millis(backoff)) {
            finish(
                s,
                id,
                STATUS_DRAINED,
                false,
                Some("drained during backoff"),
                None,
            );
            return;
        }
        let start_rec = s.table.lock().expect("table lock").mark_start(id, backoff);
        if let Err(e) = s.append(&start_rec) {
            eprintln!("slltd: {id}: {e}");
        }

        let token = CancelToken::new();
        s.interrupts
            .lock()
            .expect("interrupts lock")
            .insert(id.to_string(), token.clone());
        let child_args = ChildArgs {
            job_id: id.to_string(),
            design: design.clone(),
            design_file: design_file.clone(),
            config: config.clone(),
            workers: s.cfg.child_workers,
            out_dir: s.cfg.state_dir.clone(),
            fault: fault.clone(),
        };
        let outcome = run_attempt(
            &child_args,
            timeout,
            &token,
            s.cfg.cancel_grace,
            s.cfg.mem_limit,
        );
        s.interrupts.lock().expect("interrupts lock").remove(id);

        let cancel_requested = s
            .table
            .lock()
            .expect("table lock")
            .get(id)
            .is_some_and(|r| r.cancel_requested);
        let draining = s.draining.load(Ordering::SeqCst);

        let (status, is_final, detail, result) = match outcome {
            Ok(a) => classify(a, cancel_requested, draining),
            Err(e) => (STATUS_ERROR, false, Some(format!("spawn: {e}")), None),
        };
        let retryable = !is_final && status != STATUS_DRAINED;
        if retryable && attempt < max_attempts && !draining {
            eprintln!("slltd: {id}: attempt {attempt} {status}; retrying");
            finish(s, id, status, false, detail.as_deref(), result);
            continue;
        }
        // Out of budget (or final by nature): drained stays non-final so
        // --resume picks the job back up; everything else is terminal.
        let final_now = status != STATUS_DRAINED;
        finish(s, id, status, final_now, detail.as_deref(), result);
        eprintln!("slltd: {id}: {status} (attempt {attempt})");
        if final_now {
            s.gc_disk();
        }
        return;
    }
}

struct Attempt {
    exit_code: Option<i32>,
    success: bool,
    timed_out: bool,
    interrupted: bool,
    /// libstd's allocation-failure line, when the child aborted on
    /// allocation failure under a configured memory ceiling.
    oom: Option<String>,
    wall: Duration,
    result: Option<Value>,
    stderr_tail: String,
}

fn run_attempt(
    args: &ChildArgs,
    timeout: Option<Duration>,
    interrupt: &CancelToken,
    grace: Duration,
    mem_limit: Option<u64>,
) -> std::io::Result<Attempt> {
    let exe = std::env::current_exe()?;
    let mut cmd = Command::new(exe);
    cmd.arg("--job")
        .arg(&args.job_id)
        .arg("--design")
        .arg(&args.design)
        .arg("--config")
        .arg(&args.config)
        .arg("--out")
        .arg(&args.out_dir)
        .arg("--workers")
        .arg(args.workers.to_string());
    if let Some(f) = &args.design_file {
        cmd.arg("--design-file").arg(f);
    }
    if let Some(f) = &args.fault {
        cmd.arg("--fault").arg(f);
    }
    let opts = SuperviseOpts {
        timeout,
        interrupt: Some(interrupt.clone()),
        grace,
        mem_limit,
    };
    let sup = run_supervised(&mut cmd, &opts)?;
    let result = sup
        .stdout
        .lines()
        .rev()
        .find_map(|l| l.strip_prefix("RESULT "))
        .and_then(|json| sllt_obs::json::parse(json).ok());
    // libstd's fixed abort message on allocation failure — the only
    // child-side signature of an RLIMIT_AS kill (the exit is a plain
    // SIGABRT, indistinguishable from other aborts by status alone). A
    // backtrace note may follow it, so the line is found, not assumed
    // last.
    let oom = mem_limit
        .and(
            sup.stderr
                .lines()
                .find(|l| l.contains("memory allocation of")),
        )
        .map(str::to_owned);
    let stderr_tail = sup
        .stderr
        .lines()
        .next_back()
        .unwrap_or_default()
        .to_string();
    Ok(Attempt {
        exit_code: sup.status.code(),
        success: sup.status.success(),
        timed_out: sup.timed_out,
        interrupted: sup.interrupted,
        oom,
        wall: sup.wall,
        result,
        stderr_tail,
    })
}

/// Maps a finished attempt to `(status, is_final, detail, result)`.
/// `is_final` here means "final regardless of retry budget" — retryable
/// outcomes return `false` and the caller applies the budget.
fn classify(
    a: Attempt,
    cancel_requested: bool,
    draining: bool,
) -> (&'static str, bool, Option<String>, Option<Value>) {
    let wall = a.wall.as_secs_f64();
    if a.success && a.result.is_some() {
        return (STATUS_OK, true, None, a.result);
    }
    if a.interrupted || a.exit_code == Some(EXIT_JOB_CANCELLED) {
        // The child stopped on a SIGINT we (or it) initiated: a user
        // cancel is terminal, a drain leaves the job resumable.
        return if cancel_requested {
            (
                STATUS_CANCELLED,
                true,
                Some(format!("cancelled after {wall:.2}s")),
                None,
            )
        } else if draining {
            (
                STATUS_DRAINED,
                false,
                Some("checkpointed by drain".into()),
                None,
            )
        } else {
            (
                STATUS_CANCELLED,
                true,
                Some("stopped by external signal".into()),
                None,
            )
        };
    }
    if a.timed_out {
        return (
            STATUS_TIMEOUT,
            false,
            Some(format!("deadline after {wall:.2}s")),
            None,
        );
    }
    if let Some(line) = a.oom {
        // Deterministic against a fixed ceiling: the same job would hit
        // the same wall on every retry, so the status is final.
        return (
            STATUS_OOM,
            true,
            Some(format!("killed by memory ceiling after {wall:.2}s: {line}")),
            None,
        );
    }
    if a.exit_code == Some(EXIT_JOB_ERROR) {
        return (STATUS_ERROR, false, Some(a.stderr_tail), None);
    }
    if a.success {
        // Exit 0 but no RESULT line — a child bug; don't retry blindly.
        return (
            STATUS_ERROR,
            true,
            Some("child exited 0 without RESULT".into()),
            None,
        );
    }
    let detail = if a.stderr_tail.is_empty() {
        format!("child died ({:?})", a.exit_code)
    } else {
        a.stderr_tail
    };
    (STATUS_PANIC, false, Some(detail), None)
}

fn finish(
    s: &Shared,
    id: &str,
    status: &str,
    is_final: bool,
    detail: Option<&str>,
    result: Option<Value>,
) {
    let rec = s
        .table
        .lock()
        .expect("table lock")
        .mark_done(id, status, is_final, detail, result);
    if let Err(e) = s.append(&rec) {
        eprintln!("slltd: {id}: {e}");
    }
}

/// Sleeps in drain-aware slices; `false` when drain cut the sleep short.
fn sleep_unless_drain(s: &Shared, total: Duration) -> bool {
    let until = Instant::now() + total;
    while Instant::now() < until {
        if s.draining.load(Ordering::SeqCst) {
            return false;
        }
        std::thread::sleep(Duration::from_millis(10).min(until - Instant::now()));
    }
    true
}

// ------------------------------------------------------------ connections

fn write_line(w: &mut impl Write, v: &Value) -> std::io::Result<()> {
    writeln!(w, "{}", v.encode())?;
    w.flush()
}

fn ok() -> Value {
    Value::obj().with("ok", true)
}

fn serve_connection(s: &Shared, stream: Stream) -> std::io::Result<()> {
    let mut reader = BufReader::new(stream.try_clone()?);
    let mut writer = stream;
    loop {
        match read_frame(&mut reader)? {
            Frame::Eof => return Ok(()),
            Frame::Oversized { dropped } => {
                let e = ProtoError::new(
                    E_TOO_LARGE,
                    format!(
                        "request line of {dropped} bytes exceeds {} limit",
                        crate::proto::MAX_LINE
                    ),
                );
                write_line(&mut writer, &e.to_value())?;
            }
            Frame::Line(line) => {
                if line.iter().all(u8::is_ascii_whitespace) {
                    continue; // blank keep-alive lines are not requests
                }
                match parse_request(&line) {
                    Err(e) => write_line(&mut writer, &e.to_value())?,
                    Ok(Request::Watch { job }) => handle_watch(s, &mut writer, &job)?,
                    Ok(req) => {
                        let reply = handle(s, req).unwrap_or_else(|e| e.to_value());
                        write_line(&mut writer, &reply)?;
                    }
                }
            }
        }
    }
}

fn handle(s: &Shared, req: Request) -> Result<Value, ProtoError> {
    match req {
        Request::Ping => Ok(ok().with("pong", true)),
        Request::Submit(spec) => handle_submit(s, &spec),
        Request::Status { job } => handle_status(s, job.as_deref()),
        Request::Cancel { job } => handle_cancel(s, &job),
        Request::Result { job, wait } => handle_result(s, &job, wait),
        Request::Drain => {
            s.drain.cancel();
            Ok(ok().with("draining", true))
        }
        Request::Watch { .. } => unreachable!("watch is streamed by the caller"),
    }
}

fn handle_submit(s: &Shared, spec: &SubmitSpec) -> Result<Value, ProtoError> {
    if s.journal_failed.load(Ordering::SeqCst) {
        return Err(ProtoError::new(
            E_DRAINING,
            "journal unwritable; daemon is draining (storage degraded)",
        ));
    }
    if s.draining.load(Ordering::SeqCst) || s.drain.is_cancelled() {
        return Err(ProtoError::new(
            E_DRAINING,
            "daemon is draining; not admitting",
        ));
    }
    // Validate before admitting: a submit that can never run should be
    // a 400 now, not an `error` job later.
    jobs::config_by_name(&spec.config).map_err(|e| ProtoError::new(E_PARSE, e))?;
    // Quota after validation (a rejected submit should not spend the
    // tenant's token) but before the design-cache work it gates.
    let tenant = spec.tenant.as_deref().unwrap_or("anonymous");
    s.admit_tenant(tenant)?;
    let (design_name, design_file, cache_hit) = match &spec.design_file {
        Some(path) => {
            let cached = s
                .cache
                .sanitized(std::path::Path::new(path))
                .map_err(|e| ProtoError::new(E_PARSE, e))?;
            (cached.name, Some(cached.path), Some(cached.hit))
        }
        None => {
            jobs::design_by_name(&spec.design).map_err(|e| ProtoError::new(E_PARSE, e))?;
            (spec.design.clone(), None, None)
        }
    };

    let mut t = s.table.lock().expect("table lock");
    if t.queued_len() >= s.cfg.queue_cap {
        return Err(ProtoError::new(
            E_BUSY,
            format!("queue at capacity ({}); retry later", s.cfg.queue_cap),
        ));
    }
    let (id, rec) = t.submit(
        &design_name,
        design_file,
        &spec.config,
        spec.timeout_s,
        spec.retries.unwrap_or(s.cfg.default_retries),
        spec.fault.clone(),
        spec.tenant.clone(),
    );
    drop(t);
    if let Err(e) = s.append(&rec) {
        // Not durable → not admitted: pull the job back out before a
        // worker can grab it, and tell the client the truth (append
        // already flipped the daemon into drain).
        s.table.lock().expect("table lock").cancel(&id);
        return Err(ProtoError::new(
            E_DRAINING,
            format!("storage degraded; submit not durable ({e})"),
        ));
    }
    s.cv_queue.notify_one();
    let mut reply = ok().with("job", id.as_str());
    if let Some(hit) = cache_hit {
        reply = reply.with("cached", hit);
    }
    Ok(reply)
}

fn handle_status(s: &Shared, job: Option<&str>) -> Result<Value, ProtoError> {
    let t = s.table.lock().expect("table lock");
    let rows: Vec<&crate::state::JobRecord> = match job {
        Some(id) => vec![t
            .get(id)
            .ok_or_else(|| ProtoError::new(E_NOT_FOUND, format!("no job {id:?}")))?],
        None => t.iter().collect(),
    };
    let snapshot: Vec<(Value, bool, String)> = rows
        .iter()
        .map(|r| {
            (
                r.status_value(None),
                r.state == JobState::Running,
                r.id.clone(),
            )
        })
        .collect();
    drop(t);
    // The progress journal is tailed outside the table lock: it reads
    // files.
    let jobs: Vec<Value> = snapshot
        .into_iter()
        .map(|(v, running, id)| {
            if running {
                match s.progress_of(&id) {
                    Some(p) => v.with("progress", p),
                    None => v,
                }
            } else {
                v
            }
        })
        .collect();
    Ok(ok()
        .with(
            "draining",
            s.draining.load(Ordering::SeqCst) || s.drain.is_cancelled(),
        )
        .with("jobs", Value::Arr(jobs)))
}

fn handle_cancel(s: &Shared, job: &str) -> Result<Value, ProtoError> {
    let outcome = s.table.lock().expect("table lock").cancel(job);
    match outcome {
        CancelOutcome::NotFound => Err(ProtoError::new(E_NOT_FOUND, format!("no job {job:?}"))),
        CancelOutcome::AlreadyDone(status) => {
            Ok(ok().with("already_done", true).with("status", status))
        }
        CancelOutcome::Dequeued(rec) => {
            s.append(&rec).map_err(|e| ProtoError::new(E_INTERNAL, e))?;
            s.cv_done.notify_all();
            Ok(ok().with("cancelled", "queued"))
        }
        CancelOutcome::Interrupt => {
            if let Some(token) = s.interrupts.lock().expect("interrupts lock").get(job) {
                token.cancel();
            }
            Ok(ok().with("cancelled", "running"))
        }
    }
}

fn result_value(r: &crate::state::JobRecord) -> Option<Value> {
    if let JobState::Done(status) = &r.state {
        let mut v = ok()
            .with("done", true)
            .with("job", r.id.as_str())
            .with("status", status.as_str())
            .with("attempts", u64::from(r.attempt));
        if let Some(res) = &r.result {
            v = v.with("result", res.clone());
        }
        if let Some(d) = &r.detail {
            v = v.with("detail", d.as_str());
        }
        Some(v)
    } else {
        None
    }
}

fn handle_result(s: &Shared, job: &str, wait: bool) -> Result<Value, ProtoError> {
    let mut t = s.table.lock().expect("table lock");
    loop {
        let r = t
            .get(job)
            .ok_or_else(|| ProtoError::new(E_NOT_FOUND, format!("no job {job:?}")))?;
        if let Some(v) = result_value(r) {
            return Ok(v);
        }
        let draining = s.draining.load(Ordering::SeqCst);
        if !wait || draining {
            return Ok(ok()
                .with("done", false)
                .with("job", job)
                .with("draining", draining));
        }
        let (guard, _) = s
            .cv_done
            .wait_timeout(t, Duration::from_millis(200))
            .expect("done wait");
        t = guard;
    }
}

/// Streams a job's progress events as they land, then the final result.
/// Quiet stretches are bridged with `alive` keep-alive frames so a
/// client read timeout can distinguish "slow job" from "dead daemon".
fn handle_watch(s: &Shared, w: &mut impl Write, job: &str) -> std::io::Result<()> {
    let mut sent = 0usize;
    let mut last_write = Instant::now();
    loop {
        {
            let t = s.table.lock().expect("table lock");
            let Some(r) = t.get(job) else {
                return write_line(
                    w,
                    &ProtoError::new(E_NOT_FOUND, format!("no job {job:?}")).to_value(),
                );
            };
            if let Some(v) = result_value(r) {
                // Flush any trailing events before the final object.
                drop(t);
                emit_events(s, w, job, sent)?;
                return write_line(w, &v);
            }
        }
        let n = emit_events(s, w, job, sent)?;
        if n > sent {
            last_write = Instant::now();
        }
        sent = n;
        if s.draining.load(Ordering::SeqCst) {
            return write_line(w, &ok().with("done", false).with("draining", true));
        }
        if last_write.elapsed() >= Duration::from_secs(1) {
            write_line(w, &ok().with("alive", true))?;
            last_write = Instant::now();
        }
        std::thread::sleep(Duration::from_millis(50));
    }
}

fn emit_events(s: &Shared, w: &mut impl Write, job: &str, sent: usize) -> std::io::Result<usize> {
    let records = read_progress(&jobs::progress_path(&s.cfg.state_dir, job)).unwrap_or_default();
    for record in records.iter().skip(sent) {
        write_line(w, &ok().with("event", record.clone()))?;
    }
    Ok(records.len().max(sent))
}

#[cfg(test)]
mod tests {
    use super::*;
    use sllt_obs::vfs::{FaultConfig, FaultFs};

    #[test]
    fn compaction_syncs_the_snapshot_once() {
        let dir = std::env::temp_dir().join(format!("sllt_compact_{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        let mut table = JobTable::new();
        for design in ["grid36", "grid48", "grid36"] {
            table.submit(design, None, "base", None, 0, None, None);
        }
        let id = table.pop_ready().expect("queued job");
        table.mark_start(&id, 0);
        table.mark_done(&id, STATUS_OK, true, None, Some(Value::obj()));
        let snapshot = table.compact_records();
        assert!(snapshot.len() >= 5, "several records: {}", snapshot.len());

        // A schedule that never faults: it only counts operations.
        let vfs = FaultFs::over_real(FaultConfig {
            fail_after: u64::MAX,
            ..FaultConfig::default()
        });
        let path = dir.join("jobs.jsonl");
        drop(compact_journal(&vfs, &path, &table).unwrap());
        assert_eq!(
            vfs.ops(),
            5,
            "create, one write, one fsync, rename, reopen for a {}-record snapshot",
            snapshot.len()
        );
        let journal = read_journal(&path).unwrap();
        assert!(journal.torn_tail.is_none());
        assert_eq!(journal.records, snapshot);
        std::fs::remove_dir_all(&dir).ok();
    }
}
