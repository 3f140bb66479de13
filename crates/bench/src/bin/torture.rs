//! Randomized storage/crash torture harness for the durability stack.
//!
//! Two phases, both driven from one seed so a failing run replays
//! exactly:
//!
//! * **Phase A — fault schedules.** `--schedules N` randomized
//!   [`FaultFs`] schedules (ENOSPC/EIO/short/torn at varying rates and
//!   onsets) over checkpointed runs, asserting the flow degrades
//!   rather than aborts, the produced tree is bit-identical to a clean
//!   reference, and the surviving journal prefix is readable. Each
//!   schedule then gets a randomized **kill point**: the checkpoint
//!   journal is truncated at an arbitrary byte offset and the resume
//!   path must either rebuild the identical tree from the prefix or
//!   refuse the journal cleanly and rebuild from scratch — never panic,
//!   never produce a different tree.
//! * **Phase B — daemon crash cycles** (unix only). `--daemon-cycles N`
//!   rounds of: start a real `slltd` (sibling binary) with a tiny disk
//!   budget, submit jobs, SIGKILL the whole process group mid-flight,
//!   assert the journal stayed readable and no orphan process lingers,
//!   then `--resume` and assert every job still reaches a final `ok`,
//!   the artifact footprint honors the budget, and a SIGTERM drain
//!   exits 0.
//!
//! ```text
//! cargo run --release -p sllt-bench --bin torture -- --schedules 32 --json
//! ```
//!
//! Exit is nonzero when any invariant is violated; `--json` prints a
//! single machine-readable summary line.

use sllt_bench::{arg_flag, arg_parse, arg_value};
use sllt_cts::{CheckpointMode, CtsError, HierarchicalCts, RunContext};
use sllt_design::Design;
use sllt_obs::journal::read_journal;
use sllt_obs::vfs::{FaultConfig, FaultFs};
use sllt_obs::Value;
use sllt_rng::SplitMix64;
use sllt_tree::ClockTree;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Collected invariant violations; empty means a green run.
#[derive(Default)]
struct Tally {
    checks: u64,
    violations: Vec<String>,
}

impl Tally {
    fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.checks += 1;
        if !ok {
            let msg = what();
            eprintln!("torture: VIOLATION: {msg}");
            self.violations.push(msg);
        }
    }
}

fn cts() -> HierarchicalCts {
    HierarchicalCts {
        workers: 1,
        ..HierarchicalCts::default()
    }
}

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("sllt_torture_{tag}_{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

fn main() -> ExitCode {
    let schedules: u64 = arg_parse("--schedules", 16u64);
    let daemon_cycles: u64 = arg_parse("--daemon-cycles", 2u64);
    let seed: u64 = arg_parse("--seed", 0x7021_u64);
    let design_name = arg_value("--design").unwrap_or_else(|| "grid64".into());
    let json = arg_flag("--json");

    let design = match sllt_design::design_by_name(&design_name) {
        Ok(d) => d,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };

    let t0 = Instant::now();
    let mut tally = Tally::default();
    fault_schedule_phase(&mut tally, &design, schedules, seed);
    let cycles_run = daemon_phase(&mut tally, daemon_cycles, seed);

    let summary = Value::obj()
        .with("schedules", schedules)
        .with("daemon_cycles", cycles_run)
        .with("checks", tally.checks)
        .with("violations", tally.violations.len())
        .with(
            "details",
            Value::Arr(
                tally
                    .violations
                    .iter()
                    .map(|v| Value::from(v.as_str()))
                    .collect(),
            ),
        )
        .with("wall_s", t0.elapsed().as_secs_f64());
    if json {
        println!("{}", summary.encode());
    } else {
        println!(
            "torture — {} schedules, {} daemon cycle(s), {} checks, {} violation(s) in {:.1}s",
            schedules,
            cycles_run,
            tally.checks,
            tally.violations.len(),
            t0.elapsed().as_secs_f64()
        );
    }
    if tally.violations.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

// ------------------------------------------------- phase A: fault schedules

/// Random fault schedule `i`: onset, rate, and seed all derived from
/// the run seed, so `--seed`+index replays one schedule exactly.
fn schedule_spec(seed: u64, i: u64) -> String {
    let mut rng = SplitMix64::new(seed ^ i.wrapping_mul(0x9E37_79B9_7F4A_7C15));
    let fault_seed = rng.next_u64();
    let after = 2 + rng.next_u64() % 12;
    let rate = 0.25 + (rng.next_u64() % 1000) as f64 / 1000.0 * 0.75;
    format!("seed={fault_seed},after={after},rate={rate:.3}")
}

fn fault_schedule_phase(tally: &mut Tally, design: &Design, schedules: u64, seed: u64) {
    let dir = scratch("schedules");
    let clean = cts();
    let reference = clean.run(design).expect("clean reference run");

    for i in 0..schedules {
        let spec = schedule_spec(seed, i);
        let path = dir.join(format!("ckpt_{i}.jsonl"));
        let fs = FaultFs::over_real(FaultConfig::parse(&spec).expect("generated spec parses"));
        let faulty = RunContext {
            vfs: Arc::new(fs.clone()),
            checkpoint: CheckpointMode::Fresh(&path),
            ..Default::default()
        };
        match clean.run_in(design, faulty) {
            Ok(tree) => tally.check(tree == reference, || {
                format!("schedule {i} ({spec}): degraded run diverged from the clean tree")
            }),
            // Journal creation (create + meta write + meta sync) is
            // pre-flight: a fault there is a clean Err. Anything later
            // must degrade, never abort.
            Err(e) => tally.check(fs.ops() <= 3, || {
                format!("schedule {i} ({spec}): flow aborted mid-run: {e}")
            }),
        }
        if path.exists() {
            tally.check(read_journal(&path).is_ok(), || {
                format!("schedule {i} ({spec}): surviving journal unreadable")
            });
            kill_point_resume(tally, design, &reference, &path, i, seed);
        }
        std::fs::remove_file(&path).ok();
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// Truncates the journal at a random byte offset (a crash mid-write)
/// and asserts resume either rebuilds the identical tree from the
/// prefix or refuses the journal cleanly and rebuilds from scratch.
fn kill_point_resume(
    tally: &mut Tally,
    design: &Design,
    reference: &ClockTree,
    path: &Path,
    i: u64,
    seed: u64,
) {
    let bytes = match std::fs::read(path) {
        Ok(b) => b,
        Err(_) => return,
    };
    let mut rng = SplitMix64::new(seed ^ 0xDEAD ^ i);
    let cut = (rng.next_u64() % (bytes.len() as u64 + 1)) as usize;
    if std::fs::write(path, &bytes[..cut]).is_err() {
        return;
    }
    tally.check(read_journal(path).is_ok(), || {
        format!(
            "schedule {i}: truncation at {cut}/{} unreadable",
            bytes.len()
        )
    });
    let clean = cts();
    let journaled = |checkpoint| {
        clean.run_in(
            design,
            RunContext {
                checkpoint,
                ..Default::default()
            },
        )
    };
    match journaled(CheckpointMode::Resume(path)) {
        Ok(tree) => tally.check(&tree == reference, || {
            format!("schedule {i}: resume after cut at {cut} diverged from the clean tree")
        }),
        Err(CtsError::Checkpoint { .. }) => {
            // The prefix was too mangled to trust (e.g. the meta record
            // itself is gone): refusing is correct, and a fresh run on
            // the same path must still match.
            std::fs::remove_file(path).ok();
            match journaled(CheckpointMode::Fresh(path)) {
                Ok(tree) => tally.check(&tree == reference, || {
                    format!("schedule {i}: fresh rebuild after refused prefix diverged")
                }),
                Err(e) => tally.check(false, || {
                    format!("schedule {i}: fresh rebuild after refused prefix failed: {e}")
                }),
            }
        }
        Err(e) => tally.check(false, || {
            format!("schedule {i}: resume after cut at {cut} aborted: {e}")
        }),
    }
}

// --------------------------------------------- phase B: daemon crash cycles

#[cfg(unix)]
fn daemon_phase(tally: &mut Tally, cycles: u64, seed: u64) -> u64 {
    let Some(slltd) = find_slltd() else {
        eprintln!("torture: slltd binary not found next to torture; skipping daemon phase");
        return 0;
    };
    for c in 0..cycles {
        if let Err(e) = daemon_cycle(tally, &slltd, c, seed) {
            tally.check(false, || format!("daemon cycle {c}: {e}"));
        }
    }
    cycles
}

#[cfg(not(unix))]
fn daemon_phase(_tally: &mut Tally, _cycles: u64, _seed: u64) -> u64 {
    0
}

#[cfg(unix)]
fn find_slltd() -> Option<PathBuf> {
    let exe = std::env::current_exe().ok()?;
    let p = exe.parent()?.join("slltd");
    p.exists().then_some(p)
}

#[cfg(unix)]
mod unix_daemon {
    pub const SIGKILL: i32 = 9;
    pub const SIGTERM: i32 = 15;
    extern "C" {
        pub fn kill(pid: i32, sig: i32) -> i32;
    }

    /// Pids (other than ours) whose cmdline mentions `needle` — the
    /// orphan detector. Non-Linux unix has no procfs; report nothing.
    pub fn procs_referencing(needle: &str) -> Vec<i32> {
        let mut out = Vec::new();
        let Ok(rd) = std::fs::read_dir("/proc") else {
            return out;
        };
        for e in rd.flatten() {
            let Ok(pid) = e.file_name().to_string_lossy().parse::<i32>() else {
                continue;
            };
            if pid == std::process::id() as i32 {
                continue;
            }
            if let Ok(cmd) = std::fs::read(format!("/proc/{pid}/cmdline")) {
                if String::from_utf8_lossy(&cmd).contains(needle) {
                    out.push(pid);
                }
            }
        }
        out
    }
}

/// One crash cycle: start → submit → SIGKILL the group → resume →
/// verify completion, bounded disk, clean drain, no orphans.
#[cfg(unix)]
fn daemon_cycle(tally: &mut Tally, slltd: &Path, c: u64, seed: u64) -> Result<(), String> {
    use sllt_server::client::{req, Client};
    use sllt_server::net::Endpoint;
    use std::os::unix::process::CommandExt;
    use std::process::{Command, Stdio};
    use unix_daemon::*;

    const DISK_BUDGET_MB: &str = "0.001"; // ~1 KiB: forces aggressive GC
    const DISK_BUDGET_BYTES: u64 = 1048;

    let mut rng = SplitMix64::new(seed ^ 0xDAE0 ^ c);
    let dir = scratch(&format!("daemon_{c}"));
    let sock = dir.join("slltd.sock");
    let ep = Endpoint::Unix(sock.clone());
    let spawn = |resume: bool| -> Result<std::process::Child, String> {
        let mut cmd = Command::new(slltd);
        cmd.arg("--state-dir")
            .arg(&dir)
            .arg("--listen")
            .arg(&sock)
            .arg("--workers")
            .arg("2")
            .arg("--disk-budget")
            .arg(DISK_BUDGET_MB)
            .arg("--drain-grace")
            .arg("0.3")
            .arg("--cancel-grace")
            .arg("0.5")
            .stdout(Stdio::null())
            .stderr(Stdio::null())
            .process_group(0);
        if resume {
            cmd.arg("--resume");
        }
        cmd.spawn().map_err(|e| format!("spawn slltd: {e}"))
    };
    let wait_ready = || -> Result<(), String> {
        let deadline = Instant::now() + Duration::from_secs(30);
        loop {
            if let Ok(mut cl) = Client::connect(&ep) {
                if cl.request(&req::ping()).is_ok() {
                    return Ok(());
                }
            }
            if Instant::now() >= deadline {
                return Err("slltd never answered ping".into());
            }
            std::thread::sleep(Duration::from_millis(50));
        }
    };
    let rpc = |v: &Value| -> Result<Value, String> {
        Client::connect(&ep)
            .map_err(|e| format!("connect: {e}"))?
            .request(v)
    };

    // --- run 1: submit, then SIGKILL the whole group mid-flight ---
    let mut child = spawn(false)?;
    wait_ready()?;
    let mut jobs = Vec::new();
    for j in 0..3u64 {
        let sleep_ms = 500 + rng.next_u64() % 1500;
        let reply = rpc(&req::submit("grid36", "base").with("fault", format!("sleep:{sleep_ms}")))?;
        let id = reply
            .get("job")
            .and_then(Value::as_str)
            .ok_or_else(|| format!("submit {j} refused: {}", reply.encode()))?
            .to_string();
        jobs.push(id);
    }
    std::thread::sleep(Duration::from_millis(100 + rng.next_u64() % 600));
    unsafe { kill(-(child.id() as i32), SIGKILL) };
    child.wait().ok();

    let needle = dir.display().to_string();
    let deadline = Instant::now() + Duration::from_secs(5);
    while !procs_referencing(&needle).is_empty() && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(50));
    }
    tally.check(procs_referencing(&needle).is_empty(), || {
        format!("cycle {c}: orphan job children survived the group SIGKILL")
    });
    tally.check(read_journal(&dir.join("jobs.jsonl")).is_ok(), || {
        format!("cycle {c}: journal unreadable after SIGKILL")
    });

    // --- run 2: resume; every job must still reach a final ok ---
    let mut child = spawn(true)?;
    wait_ready()?;
    for id in &jobs {
        let deadline = Instant::now() + Duration::from_secs(120);
        loop {
            let reply = rpc(&req::result(id, true))?;
            if reply.get("done") == Some(&Value::Bool(true)) {
                let status = reply.get("status").and_then(Value::as_str).unwrap_or("?");
                tally.check(status == "ok", || {
                    format!("cycle {c}: resumed {id} ended {status}: {}", reply.encode())
                });
                break;
            }
            if Instant::now() >= deadline {
                return Err(format!("cycle {c}: {id} never finished after resume"));
            }
            std::thread::sleep(Duration::from_millis(100));
        }
    }

    // Bounded disk: the budget GC must pull finished-job artifacts
    // under the ceiling shortly after the last job lands.
    let artifact_bytes = || -> u64 {
        std::fs::read_dir(&dir)
            .into_iter()
            .flatten()
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
    while artifact_bytes() > DISK_BUDGET_BYTES && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(50));
    }
    tally.check(artifact_bytes() <= DISK_BUDGET_BYTES, || {
        format!(
            "cycle {c}: artifacts not bounded by the disk budget ({} bytes)",
            artifact_bytes()
        )
    });

    // --- clean drain: SIGTERM must end in exit 0 and a sealed journal ---
    unsafe { kill(child.id() as i32, SIGTERM) };
    let status = child.wait().map_err(|e| format!("reap: {e}"))?;
    tally.check(status.success(), || {
        format!("cycle {c}: drain exited {status:?}")
    });
    tally.check(read_journal(&dir.join("jobs.jsonl")).is_ok(), || {
        format!("cycle {c}: journal unreadable after drain")
    });
    tally.check(procs_referencing(&needle).is_empty(), || {
        format!("cycle {c}: processes still reference the state dir after drain")
    });
    std::fs::remove_dir_all(&dir).ok();
    Ok(())
}
