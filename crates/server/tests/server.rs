//! End-to-end robustness contract of the `slltd` daemon, driven through
//! the real binary over a real Unix socket: backpressure rejection at
//! queue capacity, fault isolation (a panicking or hung child is retried
//! with backoff and then failed without touching its siblings), a
//! SIGTERM drain that checkpoints and seals, and a SIGKILLed daemon that
//! restarts with `--resume` and reproduces bit-identical results.

#![cfg(unix)]

use sllt_obs::journal::read_journal;
use sllt_obs::Value;
use sllt_server::client::{req, Client};
use sllt_server::jobs::tree_path;
use sllt_server::net::Endpoint;
use std::os::unix::process::CommandExt;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

const BIN: &str = env!("CARGO_BIN_EXE_slltd");
const SIGKILL: i32 = 9;
const SIGTERM: i32 = 15;

extern "C" {
    fn kill(pid: i32, sig: i32) -> i32;
}

/// One daemon under test: its own state dir, socket, and process group
/// (so SIGKILLing it takes its job children down too, like a crashed
/// host would).
struct Daemon {
    child: Child,
    ep: Endpoint,
    dir: PathBuf,
}

impl Daemon {
    fn start(tag: &str, extra: &[&str]) -> Daemon {
        let dir = std::env::temp_dir().join(format!("sllt_srv_{tag}_{}", std::process::id()));
        if !extra.contains(&"--resume") {
            std::fs::remove_dir_all(&dir).ok();
        }
        std::fs::create_dir_all(&dir).unwrap();
        let sock = dir.join("slltd.sock");
        let mut cmd = Command::new(BIN);
        cmd.arg("--state-dir")
            .arg(&dir)
            .arg("--listen")
            .arg(&sock)
            .args(extra)
            .stdout(Stdio::null())
            .stderr(Stdio::null())
            .process_group(0);
        let child = cmd.spawn().expect("spawn slltd");
        let d = Daemon {
            child,
            ep: Endpoint::Unix(sock),
            dir,
        };
        // Ready when the socket answers a ping.
        let deadline = Instant::now() + Duration::from_secs(30);
        loop {
            if let Ok(mut c) = Client::connect(&d.ep) {
                if c.request(&req::ping()).is_ok() {
                    return d;
                }
            }
            assert!(Instant::now() < deadline, "slltd never came up");
            std::thread::sleep(Duration::from_millis(50));
        }
    }

    /// One request over a fresh connection.
    fn rpc(&self, v: &Value) -> Value {
        Client::connect(&self.ep)
            .expect("connect")
            .request(v)
            .expect("request")
    }

    fn submit_ok(&self, v: &Value) -> String {
        let reply = self.rpc(v);
        assert_eq!(
            reply.get("ok"),
            Some(&Value::Bool(true)),
            "{}",
            reply.encode()
        );
        reply
            .get("job")
            .and_then(Value::as_str)
            .unwrap()
            .to_string()
    }

    /// Polls `status` until the job reports `state` (running/done/…).
    fn wait_state(&self, job: &str, state: &str) {
        let deadline = Instant::now() + Duration::from_secs(60);
        loop {
            let reply = self.rpc(&req::status(Some(job)));
            let got = reply
                .get("jobs")
                .and_then(|j| match j {
                    Value::Arr(a) => a.first(),
                    _ => None,
                })
                .and_then(|r| r.get("state"))
                .and_then(Value::as_str)
                .unwrap_or("?")
                .to_string();
            if got == state {
                return;
            }
            assert!(
                Instant::now() < deadline,
                "{job} stuck in {got:?}, wanted {state:?}"
            );
            std::thread::sleep(Duration::from_millis(25));
        }
    }

    /// Blocks until the job is finally done; returns the result reply.
    fn result(&self, job: &str) -> Value {
        // `result --wait` parks server-side; one connection is enough,
        // but re-ask on the 60 s client deadline below.
        let deadline = Instant::now() + Duration::from_secs(120);
        loop {
            let reply = self.rpc(&req::result(job, true));
            if reply.get("done") == Some(&Value::Bool(true)) {
                return reply;
            }
            assert!(
                Instant::now() < deadline,
                "{job} never finished: {}",
                reply.encode()
            );
            std::thread::sleep(Duration::from_millis(100));
        }
    }

    fn pid(&self) -> i32 {
        self.child.id() as i32
    }

    /// SIGKILL the whole process group — daemon and any job children.
    fn kill_group(&mut self) {
        unsafe { kill(-self.pid(), SIGKILL) };
        self.child.wait().ok();
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if self.child.try_wait().ok().flatten().is_none() {
            self.kill_group();
        }
    }
}

fn journal_records(dir: &Path, kind: &str) -> Vec<Value> {
    read_journal(&dir.join("jobs.jsonl"))
        .expect("jobs journal parses")
        .records
        .into_iter()
        .filter(|r| r.get("kind").and_then(Value::as_str) == Some(kind))
        .collect()
}

fn status_of(reply: &Value) -> &str {
    reply.get("status").and_then(Value::as_str).unwrap_or("?")
}

#[test]
fn backpressure_rejects_at_capacity_and_cancel_frees_the_queue() {
    let mut d = Daemon::start(
        "backpressure",
        &["--workers", "1", "--queue-cap", "1", "--retries", "0"],
    );
    let slow = || req::submit("grid36", "base").with("fault", "sleep:20000");

    // Fill the single worker, then the single queue slot.
    let j1 = d.submit_ok(&slow());
    d.wait_state(&j1, "running");
    let j2 = d.submit_ok(&slow());

    // The queue is full: admission control must reject, not bury.
    let reply = d.rpc(&slow());
    assert_eq!(reply.get("ok"), Some(&Value::Bool(false)));
    assert_eq!(
        reply.get("code").and_then(Value::as_u64),
        Some(429),
        "full queue must answer busy: {}",
        reply.encode()
    );

    // Cancelling the queued job frees the slot immediately...
    let reply = d.rpc(&req::cancel(&j2));
    assert_eq!(
        reply.get("cancelled").and_then(Value::as_str),
        Some("queued")
    );
    let j4 = d.submit_ok(&slow());

    // ...and cancelling the running job interrupts its child mid-run.
    let reply = d.rpc(&req::cancel(&j1));
    assert_eq!(
        reply.get("cancelled").and_then(Value::as_str),
        Some("running")
    );
    let done = d.result(&j1);
    assert_eq!(status_of(&done), "cancelled");

    // The freed worker moves on to the admitted job.
    d.wait_state(&j4, "running");
    d.kill_group();
    std::fs::remove_dir_all(&d.dir).ok();
}

#[test]
fn faulty_children_are_retried_with_backoff_and_never_touch_their_siblings() {
    let mut d = Daemon::start("isolation", &["--workers", "2"]);

    let healthy = d.submit_ok(&req::submit("grid36", "base"));
    let panicky = d.submit_ok(
        &req::submit("grid36", "base")
            .with("fault", "panic")
            .with("retries", 1u64),
    );
    let hung = d.submit_ok(
        &req::submit("grid36", "base")
            .with("fault", "hang")
            .with("timeout_s", 1.0)
            .with("retries", 1u64),
    );

    // The healthy job completes with a real result and a real tree,
    // regardless of the chaos on the other worker.
    let done = d.result(&healthy);
    assert_eq!(status_of(&done), "ok", "{}", done.encode());
    let result = done.get("result").expect("ok jobs carry a result");
    assert!(result.get("skew_ps").and_then(Value::as_f64).is_some());
    // Child VmHWM rides next to runtime_s (JSON null off Linux).
    assert!(
        result.get("peak_rss_bytes").is_some(),
        "{}",
        result.encode()
    );
    #[cfg(target_os = "linux")]
    assert!(result
        .get("peak_rss_bytes")
        .and_then(Value::as_u64)
        .is_some_and(|b| b > 0));
    assert!(tree_path(&d.dir, &healthy).exists());

    // The rigged jobs burn their retry budget and land on their own
    // distinct failure statuses.
    let done = d.result(&panicky);
    assert_eq!(status_of(&done), "panic", "{}", done.encode());
    assert_eq!(done.get("attempts").and_then(Value::as_u64), Some(2));
    let done = d.result(&hung);
    assert_eq!(status_of(&done), "timeout", "{}", done.encode());
    assert_eq!(done.get("attempts").and_then(Value::as_u64), Some(2));

    // Retries are journaled with the deterministic backoff: attempt 1
    // starts cold, attempt 2 waits a seeded jittered delay.
    let backoffs: Vec<u64> = journal_records(&d.dir, "job_start")
        .iter()
        .filter(|r| r.get("job").and_then(Value::as_str) == Some(panicky.as_str()))
        .map(|r| r.get("backoff_ms").and_then(Value::as_u64).unwrap())
        .collect();
    assert_eq!(backoffs.len(), 2, "{backoffs:?}");
    assert_eq!(backoffs[0], 0);
    assert!(backoffs[1] > 0, "{backoffs:?}");

    d.kill_group();
    std::fs::remove_dir_all(&d.dir).ok();
}

#[test]
fn sigterm_drains_cleanly_seals_the_journal_and_resume_finishes_the_work() {
    let mut d = Daemon::start(
        "drain",
        &[
            "--workers",
            "1",
            "--drain-grace",
            "0.2",
            "--cancel-grace",
            "0.5",
        ],
    );
    // j1 runs (parked in its sleep fault), j2 waits in the queue.
    let j1 = d.submit_ok(&req::submit("grid36", "base").with("fault", "sleep:3000"));
    d.wait_state(&j1, "running");
    let j2 = d.submit_ok(&req::submit("grid36", "base"));

    // SIGTERM = drain: the daemon must exit 0 on its own.
    unsafe { kill(d.pid(), SIGTERM) };
    let status = d.child.wait().expect("daemon reaped");
    assert!(status.success(), "drain must exit 0, got {status:?}");

    // The journal is sealed with a drained record and neither job is
    // finally done — both are still owed to --resume.
    assert_eq!(journal_records(&d.dir, "drained").len(), 1);
    let finals = journal_records(&d.dir, "job_done")
        .iter()
        .filter(|r| r.get("final") == Some(&Value::Bool(true)))
        .count();
    assert_eq!(finals, 0, "drain must not finalize unfinished jobs");

    // A fresh daemon on the same state dir picks both jobs back up.
    let mut d2 = Daemon::start("drain", &["--workers", "1", "--resume"]);
    assert_eq!(status_of(&d2.result(&j1)), "ok");
    assert_eq!(status_of(&d2.result(&j2)), "ok");
    d2.kill_group();
    std::fs::remove_dir_all(&d2.dir).ok();
}

#[test]
fn sigkilled_daemon_resumes_and_reproduces_bit_identical_trees() {
    // Run A: the daemon (and its job child) die to SIGKILL mid-attempt.
    let mut d = Daemon::start("killresume", &["--workers", "1"]);
    let j1 = d.submit_ok(&req::submit("grid36", "base").with("fault", "sleep:2000"));
    d.wait_state(&j1, "running");
    d.kill_group();

    // Restart over the journal: the interrupted job is re-enqueued and
    // completes.
    let mut d2 = Daemon::start("killresume", &["--workers", "1", "--resume"]);
    assert_eq!(status_of(&d2.result(&j1)), "ok", "resumed job finishes");
    let resumed = std::fs::read(tree_path(&d2.dir, &j1)).expect("resumed tree");
    d2.kill_group();

    // Run B: the same job on an undisturbed daemon. Same design, same
    // config, same id (fresh table ⇒ j1) — the trees must match byte
    // for byte.
    let mut clean = Daemon::start("killclean", &["--workers", "1"]);
    let jc = clean.submit_ok(&req::submit("grid36", "base"));
    assert_eq!(jc, j1, "a fresh table restarts the id sequence");
    assert_eq!(status_of(&clean.result(&jc)), "ok");
    let undisturbed = std::fs::read(tree_path(&clean.dir, &jc)).expect("clean tree");
    assert_eq!(
        resumed, undisturbed,
        "a killed-and-resumed job must reproduce the uninterrupted tree exactly"
    );
    clean.kill_group();
    std::fs::remove_dir_all(&d2.dir).ok();
    std::fs::remove_dir_all(&clean.dir).ok();
}

#[test]
fn unwritable_journal_degrades_to_503_and_the_daemon_drains_cleanly() {
    // The fault schedule lets the journal be created and sealed with
    // its meta record (vfs ops 1..=3), then every further operation —
    // starting with the first submit's append — fails with EIO. An
    // acknowledgement the daemon cannot make durable must be refused,
    // and an unwritable journal must turn into a clean self-drain, not
    // a crash or a silent lie.
    let mut d = Daemon::start(
        "journalfault",
        &[
            "--workers",
            "1",
            "--drain-grace",
            "0.2",
            "--fault-fs",
            "seed=1,after=3,kinds=eio",
        ],
    );
    let reply = d.rpc(&req::submit("grid36", "base"));
    assert_eq!(reply.get("ok"), Some(&Value::Bool(false)));
    assert_eq!(
        reply.get("code").and_then(Value::as_u64),
        Some(503),
        "non-durable submit must be refused as draining: {}",
        reply.encode()
    );
    let err = reply.get("error").and_then(Value::as_str).unwrap_or("");
    assert!(
        err.contains("storage degraded"),
        "error names the degradation: {err}"
    );

    // The refused submit flipped the daemon into a self-drain; it must
    // exit 0 on its own, and the on-disk journal (written before the
    // faults began) must still parse.
    let status = d.child.wait().expect("daemon reaped");
    assert!(
        status.success(),
        "storage drain must exit 0, got {status:?}"
    );
    let j = read_journal(&d.dir.join("jobs.jsonl")).expect("journal readable");
    assert!(!j.records.is_empty(), "meta record survived");
    std::fs::remove_dir_all(&d.dir).ok();
}

#[test]
fn oom_children_are_classified_distinctly_and_never_retried() {
    let mut d = Daemon::start("oom", &["--workers", "1", "--mem-limit", "512"]);

    // The rigged child balloons its address space into the ceiling; a
    // generous retry budget must go unused because the same job would
    // hit the same wall every time.
    let j1 = d.submit_ok(
        &req::submit("grid36", "base")
            .with("fault", "oom")
            .with("retries", 2u64),
    );
    let done = d.result(&j1);
    assert_eq!(status_of(&done), "oom", "{}", done.encode());
    assert_eq!(
        done.get("attempts").and_then(Value::as_u64),
        Some(1),
        "oom is deterministic against a fixed ceiling; no retries: {}",
        done.encode()
    );
    let detail = done.get("detail").and_then(Value::as_str).unwrap_or("");
    assert!(
        detail.contains("memory ceiling"),
        "detail names the ceiling: {detail}"
    );
    assert!(
        detail.contains("memory allocation of"),
        "detail carries the allocation-failure line: {detail}"
    );

    // The ceiling is per-job, not a daemon wound: a healthy job on the
    // same worker completes under the same limit.
    let j2 = d.submit_ok(&req::submit("grid36", "base"));
    assert_eq!(status_of(&d.result(&j2)), "ok");

    d.kill_group();
    std::fs::remove_dir_all(&d.dir).ok();
}

#[test]
fn tenant_quotas_throttle_admission_per_tenant() {
    let mut d = Daemon::start(
        "tenants",
        &[
            "--workers",
            "1",
            "--tenant-quota",
            "2",
            "--tenant-refill",
            "0.05",
        ],
    );
    let submit = |tenant: &str| {
        req::submit("grid36", "base")
            .with("fault", "sleep:15000")
            .with("tenant", tenant)
    };

    // alice's bucket holds two tokens; the refill is slow enough that
    // the third submit inside the same test run must bounce.
    d.submit_ok(&submit("alice"));
    d.submit_ok(&submit("alice"));
    let reply = d.rpc(&submit("alice"));
    assert_eq!(reply.get("ok"), Some(&Value::Bool(false)));
    assert_eq!(
        reply.get("code").and_then(Value::as_u64),
        Some(429),
        "over-quota tenant must get busy: {}",
        reply.encode()
    );
    let err = reply.get("error").and_then(Value::as_str).unwrap_or("");
    assert!(err.contains("quota"), "error names the quota: {err}");

    // Quotas are per tenant: bob is unaffected by alice's burn rate.
    let jb = d.submit_ok(&submit("bob"));
    let reply = d.rpc(&req::status(Some(&jb)));
    let row = reply
        .get("jobs")
        .and_then(|j| match j {
            Value::Arr(a) => a.first(),
            _ => None,
        })
        .expect("status row");
    assert_eq!(
        row.get("tenant").and_then(Value::as_str),
        Some("bob"),
        "tenant id is recorded on the job: {}",
        row.encode()
    );

    d.kill_group();
    std::fs::remove_dir_all(&d.dir).ok();
}

#[test]
fn resume_compacts_the_journal_and_preserves_final_statuses() {
    let mut d = Daemon::start("compact", &["--workers", "1", "--drain-grace", "0.2"]);
    // A panicky job with retries writes a long attempt history; the
    // healthy job finishes ok. Both histories end final.
    let jp = d.submit_ok(
        &req::submit("grid36", "base")
            .with("fault", "panic")
            .with("retries", 2u64),
    );
    let jh = d.submit_ok(&req::submit("grid36", "base"));
    assert_eq!(status_of(&d.result(&jp)), "panic");
    assert_eq!(status_of(&d.result(&jh)), "ok");
    d.rpc(&req::drain());
    assert!(d.child.wait().expect("reaped").success());
    let starts_before = journal_records(&d.dir, "job_start").len();
    assert!(
        starts_before >= 4,
        "retry history is on disk before compaction: {starts_before}"
    );

    // Resume rewrites the journal as a snapshot: one start per job, one
    // final done, statuses preserved; the temp file is gone (the swap
    // is atomic rename).
    let mut d2 = Daemon::start("compact", &["--workers", "1", "--resume"]);
    assert_eq!(status_of(&d2.result(&jp)), "panic", "status survives");
    assert_eq!(status_of(&d2.result(&jh)), "ok", "status survives");
    assert!(
        !d2.dir.join("jobs.jsonl.tmp").exists(),
        "compaction temp file must not survive the rename"
    );
    let starts_after = journal_records(&d2.dir, "job_start").len();
    assert!(
        starts_after < starts_before,
        "compaction must shrink the attempt history: {starts_after} !< {starts_before}"
    );
    let finals: Vec<String> = journal_records(&d2.dir, "job_done")
        .iter()
        .filter(|r| r.get("final") == Some(&Value::Bool(true)))
        .map(|r| {
            r.get("status")
                .and_then(Value::as_str)
                .unwrap_or("?")
                .to_string()
        })
        .collect();
    assert_eq!(finals.len(), 2, "{finals:?}");
    assert!(finals.contains(&"panic".to_string()) && finals.contains(&"ok".to_string()));
    d2.kill_group();
    std::fs::remove_dir_all(&d2.dir).ok();
}

#[test]
fn disk_budget_garbage_collects_finished_job_artifacts() {
    // ~1 KiB budget: far below what even one grid job's artifacts take,
    // so the sweep after each finished job must delete aggressively.
    let mut d = Daemon::start("diskgc", &["--workers", "1", "--disk-budget", "0.001"]);
    let j1 = d.submit_ok(&req::submit("grid36", "base"));
    assert_eq!(status_of(&d.result(&j1)), "ok");
    let j2 = d.submit_ok(&req::submit("grid36", "base"));
    assert_eq!(status_of(&d.result(&j2)), "ok");

    // The GC pass runs right after the final status lands; poll briefly
    // for the artifact total to fall under budget.
    let budget = 1048u64; // 0.001 MB in bytes, floor
    let artifact_bytes = || -> u64 {
        std::fs::read_dir(&d.dir)
            .unwrap()
            .filter_map(Result::ok)
            .filter(|e| {
                let n = e.file_name().to_string_lossy().into_owned();
                n.starts_with("tree_") || n.starts_with("progress_") || n.starts_with("ckpt_")
            })
            .filter_map(|e| e.metadata().ok())
            .map(|m| m.len())
            .sum()
    };
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        if artifact_bytes() <= budget {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "artifacts never fell under budget: {} bytes",
            artifact_bytes()
        );
        std::thread::sleep(Duration::from_millis(50));
    }
    // The journal and design cache are never GC fodder.
    assert!(d.dir.join("jobs.jsonl").exists());

    d.kill_group();
    std::fs::remove_dir_all(&d.dir).ok();
}

#[test]
fn watch_streams_every_level_from_flow_start_to_the_result() {
    let mut d = Daemon::start("watch", &["--workers", "1"]);
    let job = d.submit_ok(&req::submit("grid48", "base"));
    let mut c = Client::connect(&d.ep).expect("connect");
    c.send(&req::watch(&job)).expect("send watch");

    // Collect the event stream up to the final (non-event) object;
    // keep-alive frames are not part of it.
    let mut events = Vec::new();
    let last = loop {
        let v = c
            .recv()
            .expect("recv")
            .expect("stream closed before the result");
        if v.get("alive").is_some() {
            continue;
        }
        match v.get("event") {
            Some(ev) => events.push(ev.clone()),
            None => break v,
        }
    };
    assert_eq!(
        last.get("done"),
        Some(&Value::Bool(true)),
        "{}",
        last.encode()
    );
    assert_eq!(status_of(&last), "ok", "{}", last.encode());

    let ev = |r: &Value| {
        r.get("ev")
            .and_then(Value::as_str)
            .unwrap_or("?")
            .to_string()
    };
    let num = |r: &Value, k: &str| r.get(k).and_then(Value::as_u64);
    assert_eq!(
        events.first().map(ev).as_deref(),
        Some("flow_start"),
        "{events:?}"
    );
    let done = events.last().expect("events before the result");
    assert_eq!(ev(done), "done", "done precedes the final result object");
    assert_eq!(done.get("fraction").and_then(Value::as_f64), Some(1.0));

    // Every started level crosses deciles 1..=10 and finishes.
    let levels: Vec<u64> = events
        .iter()
        .filter(|r| ev(r) == "level_start")
        .filter_map(|r| num(r, "level"))
        .collect();
    assert!(!levels.is_empty(), "{events:?}");
    for level in levels {
        let mut tenths: Vec<u64> = events
            .iter()
            .filter(|r| ev(r) == "clusters" && num(r, "level") == Some(level))
            .filter_map(|r| num(r, "tenths"))
            .collect();
        tenths.sort_unstable();
        assert_eq!(tenths, (1..=10).collect::<Vec<u64>>(), "level {level}");
        assert!(
            events
                .iter()
                .any(|r| ev(r) == "level_done" && num(r, "level") == Some(level)),
            "level {level} never finished"
        );
    }

    // Completion fractions never go backwards.
    let fractions: Vec<f64> = events
        .iter()
        .filter_map(|r| r.get("fraction").and_then(Value::as_f64))
        .collect();
    assert!(
        fractions.windows(2).all(|w| w[0] <= w[1]),
        "fractions regressed: {fractions:?}"
    );

    d.kill_group();
    std::fs::remove_dir_all(&d.dir).ok();
}

#[test]
fn malformed_frames_get_structured_errors_and_the_connection_survives() {
    use sllt_server::proto::{read_frame, Frame, MAX_LINE};
    use std::io::{BufReader, Write};

    let mut d = Daemon::start("proto", &[]);
    let stream = sllt_server::net::Stream::connect(&d.ep).unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let mut writer = stream;

    let mut roundtrip = |bytes: &[u8]| -> Value {
        writer.write_all(bytes).unwrap();
        writer.flush().unwrap();
        match read_frame(&mut reader).unwrap() {
            Frame::Line(l) => sllt_obs::json::parse(&String::from_utf8(l).unwrap()).unwrap(),
            other => panic!("expected a reply line, got {other:?}"),
        }
    };
    let code = |v: &Value| v.get("code").and_then(Value::as_u64);

    // Each abuse gets a structured refusal on the same connection...
    let r = roundtrip(b"this is not json\n");
    assert_eq!(r.get("ok"), Some(&Value::Bool(false)));
    assert_eq!(code(&r), Some(400), "{}", r.encode());
    let r = roundtrip(b"{\"op\":\"teleport\"}\n");
    assert_eq!(code(&r), Some(400));
    let r = roundtrip(b"{\"op\":\"submit\"}\n");
    assert_eq!(code(&r), Some(400), "submit without a design is a 400");
    // An unknown design or config is refused before anything is
    // journaled: a typo must never become a job.
    for bad in [
        req::submit("nonesuch", "base"),
        req::submit("grid36", "hyperdrive"),
    ] {
        let r = roundtrip(format!("{}\n", bad.encode()).as_bytes());
        assert_eq!(code(&r), Some(400), "{}", r.encode());
    }
    assert!(
        journal_records(&d.dir, "job_submitted").is_empty(),
        "a refused submit must not reach the journal"
    );
    let r = roundtrip(b"{\"op\":\"cancel\",\"job\":\"j999\"}\n");
    assert_eq!(code(&r), Some(404));
    let mut huge = vec![b'a'; MAX_LINE + 1024];
    huge.push(b'\n');
    let r = roundtrip(&huge);
    assert_eq!(code(&r), Some(413), "oversized line: {}", r.encode());

    // ...and the connection still works afterwards.
    let r = roundtrip(b"{\"op\":\"ping\"}\n");
    assert_eq!(r.get("pong"), Some(&Value::Bool(true)), "{}", r.encode());

    d.kill_group();
    std::fs::remove_dir_all(&d.dir).ok();
}
