//! Child-process supervision: spawn, watch, interrupt, kill.
//!
//! The isolation primitive of the `slltd` scheduler. A job child is
//! spawned with piped output and reaped by the supervision loop's own
//! [`Child::try_wait`]. The loop sleeps on a channel that a small waiter
//! thread signals the moment the child exits: the waiter blocks in
//! `waitid(P_PID, pid, WEXITED | WNOWAIT)`, which observes the exit
//! without reaping. The loop therefore stays the only reaper, and a
//! SIGINT or SIGKILL it sends can never reach a recycled pid. Between
//! wakeups the loop checks its deadline and interrupt token on a
//! private 15 ms tick (the only wakeup on platforms without the
//! waiter). The supervisor enforces two independent stop paths:
//!
//! * **Deadline** — a wall-clock timeout after which the child is
//!   SIGKILLed (it may be wedged; SIGKILL is the only signal a wedged
//!   process cannot ignore). The outcome is marked
//!   [`timed_out`](Supervised::timed_out).
//! * **Interrupt** — a [`CancelToken`] that, once fired, sends SIGINT
//!   so the child can cancel cooperatively (checkpointing committed
//!   levels); if it has not exited after the grace period it is
//!   SIGKILLed. The outcome is marked
//!   [`interrupted`](Supervised::interrupted).
//!
//! Stdout/stderr are drained by reader threads for the child's whole
//! life, so a chatty child can never deadlock against a full pipe.

use sllt_cts::CancelToken;
use std::io::Read;
use std::process::{Child, Command, ExitStatus, Stdio};
use std::sync::mpsc::{sync_channel, Receiver, RecvTimeoutError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// How often the supervision loop re-checks the deadline and the
/// interrupt token while the child runs; its exit wakes the loop at
/// once ([`exit_signal`]).
const TICK: Duration = Duration::from_millis(15);

/// Supervision policy for one child run.
#[derive(Debug, Clone)]
pub struct SuperviseOpts {
    /// Wall-clock deadline; `None` = unlimited.
    pub timeout: Option<Duration>,
    /// Cooperative-stop request: when this token fires the child gets
    /// SIGINT, then SIGKILL after [`grace`](Self::grace).
    pub interrupt: Option<CancelToken>,
    /// How long a SIGINTed child may keep running before SIGKILL.
    pub grace: Duration,
    /// Address-space ceiling (RLIMIT_AS, bytes) installed in the child
    /// before exec, so one runaway job cannot take the host (or its
    /// sibling workers) down with it. `None` = unlimited; ignored off
    /// unix.
    pub mem_limit: Option<u64>,
}

impl Default for SuperviseOpts {
    fn default() -> Self {
        SuperviseOpts {
            timeout: None,
            interrupt: None,
            grace: Duration::from_secs(5),
            mem_limit: None,
        }
    }
}

/// What happened to a supervised child.
#[derive(Debug)]
pub struct Supervised {
    /// Final exit status (always reaped; killed children report the
    /// signal here).
    pub status: ExitStatus,
    /// Captured stdout (lossy UTF-8).
    pub stdout: String,
    /// Captured stderr (lossy UTF-8).
    pub stderr: String,
    /// The deadline fired and the child was SIGKILLed.
    pub timed_out: bool,
    /// The interrupt token fired; the child was SIGINTed (and, if it
    /// outlived the grace period, SIGKILLed — then `timed_out` is also
    /// set).
    pub interrupted: bool,
    /// Wall time from spawn to reap.
    pub wall: Duration,
}

#[cfg(unix)]
fn send_sigint(child: &Child) {
    extern "C" {
        fn kill(pid: i32, sig: i32) -> i32;
    }
    const SIGINT: i32 = 2;
    // SAFETY: plain kill(2) on a pid we own; failure (already-exited
    // child) is benign and ignored.
    unsafe {
        kill(child.id() as i32, SIGINT);
    }
}

#[cfg(not(unix))]
fn send_sigint(_child: &Child) {}

/// Restores default SIGINT/SIGTERM dispositions in the child.
///
/// A supervisor launched as a shell background job (`slltd … &`, CI
/// scripts, `nohup`) inherits `SIG_IGN` for SIGINT — POSIX requires it
/// when job control is off — and ignored dispositions survive both
/// fork *and* exec. Without this reset the interrupt path would be a
/// silent no-op for any child that does not install its own handler:
/// every cancel would wait out the full grace period and end in
/// SIGKILL, losing the cooperative checkpoint. Resetting to `SIG_DFL`
/// right before exec makes supervision behave identically no matter
/// how the supervisor itself was started.
#[cfg(unix)]
fn reset_child_signals(cmd: &mut Command) {
    use std::os::unix::process::CommandExt;
    extern "C" {
        fn signal(signum: i32, handler: usize) -> usize;
    }
    const SIG_DFL: usize = 0;
    const SIGINT: i32 = 2;
    const SIGTERM: i32 = 15;
    // SAFETY: the pre-exec hook only calls signal(2) with SIG_DFL,
    // which is async-signal-safe and touches no Rust runtime state.
    unsafe {
        cmd.pre_exec(|| {
            signal(SIGINT, SIG_DFL);
            signal(SIGTERM, SIG_DFL);
            Ok(())
        });
    }
}

#[cfg(not(unix))]
fn reset_child_signals(_cmd: &mut Command) {}

/// Installs an address-space ceiling in the child before exec.
///
/// RLIMIT_AS (not RLIMIT_DATA) so every allocation path counts — heap,
/// mmap, thread stacks. A child that hits the ceiling sees allocation
/// failure, which libstd turns into an abort with "memory allocation of
/// N bytes failed" on stderr; the supervisor's caller classifies that
/// distinctly from a panic. Both soft and hard limits are set so the
/// child cannot raise them back.
#[cfg(unix)]
fn limit_child_memory(cmd: &mut Command, bytes: u64) {
    use std::os::unix::process::CommandExt;
    #[repr(C)]
    struct RLimit {
        cur: u64,
        max: u64,
    }
    extern "C" {
        fn setrlimit(resource: i32, rlim: *const RLimit) -> i32;
    }
    #[cfg(target_os = "linux")]
    const RLIMIT_AS: i32 = 9;
    #[cfg(not(target_os = "linux"))]
    const RLIMIT_AS: i32 = 5;
    // SAFETY: the pre-exec hook only calls setrlimit(2), which is
    // async-signal-safe and touches no Rust runtime state; the rlimit
    // struct lives in the moved closure.
    unsafe {
        cmd.pre_exec(move || {
            let lim = RLimit {
                cur: bytes,
                max: bytes,
            };
            setrlimit(RLIMIT_AS, &lim);
            Ok(())
        });
    }
}

#[cfg(not(unix))]
fn limit_child_memory(_cmd: &mut Command, _bytes: u64) {}

/// Returns a channel that receives `()` once `child` has exited, and
/// the waiter thread behind it, for the caller to join after the reap.
///
/// The waiter blocks in `waitid(P_PID, pid, WEXITED | WNOWAIT)`, which
/// observes the exit but leaves the child unreaped, so the pid stays
/// ours until the supervision loop's `try_wait` reaps it; once it is
/// reaped the waiter has returned or returns at once. It makes one
/// syscall and one send into a preallocated channel: it allocates
/// nothing and runs on a small stack, so a daemon supervising several
/// children keeps its memory high-water mark. If it cannot be spawned,
/// or `waitid` fails, the sender is dropped and the loop falls back to
/// its tick.
#[cfg(any(target_os = "linux", target_os = "macos"))]
fn exit_signal(child: &Child) -> (Receiver<()>, Option<JoinHandle<()>>) {
    extern "C" {
        fn waitid(idtype: i32, id: u32, infop: *mut u64, options: i32) -> i32;
    }
    const P_PID: i32 = 1;
    const WEXITED: i32 = 4;
    #[cfg(target_os = "linux")]
    const WNOWAIT: i32 = 0x0100_0000;
    #[cfg(target_os = "macos")]
    const WNOWAIT: i32 = 0x20;
    const WAITER_STACK: usize = 32 * 1024;
    let (tx, rx) = sync_channel(1);
    let pid = child.id();
    let waiter = move || {
        // Room for a siginfo_t (128 bytes on Linux, 104 on macOS).
        let mut info = [0u64; 16];
        // SAFETY: waitid(2) on our own unreaped child, writing at most
        // sizeof(siginfo_t) bytes into `info`; WNOWAIT leaves the child
        // for the supervision loop to reap.
        while unsafe { waitid(P_PID, pid, info.as_mut_ptr(), WEXITED | WNOWAIT) } != 0 {
            if std::io::Error::last_os_error().kind() != std::io::ErrorKind::Interrupted {
                return;
            }
        }
        tx.send(()).ok();
    };
    let handle = std::thread::Builder::new()
        .stack_size(WAITER_STACK)
        .spawn(waiter)
        .ok();
    (rx, handle)
}

/// No exit waiter here: the sender is dropped at once and the
/// supervision loop wakes on its tick alone.
#[cfg(not(any(target_os = "linux", target_os = "macos")))]
fn exit_signal(_child: &Child) -> (Receiver<()>, Option<JoinHandle<()>>) {
    (sync_channel(1).1, None)
}

fn drain(pipe: Option<impl Read + Send + 'static>) -> JoinHandle<Vec<u8>> {
    std::thread::spawn(move || {
        let mut buf = Vec::new();
        if let Some(mut p) = pipe {
            p.read_to_end(&mut buf).ok();
        }
        buf
    })
}

/// Runs `cmd` to completion under the supervision policy.
///
/// # Errors
///
/// Propagates spawn/wait failures; a child that exits badly (or is
/// killed) is an `Ok` with the story in the [`Supervised`] fields.
pub fn run_supervised(cmd: &mut Command, opts: &SuperviseOpts) -> std::io::Result<Supervised> {
    cmd.stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped());
    reset_child_signals(cmd);
    if let Some(bytes) = opts.mem_limit {
        limit_child_memory(cmd, bytes);
    }
    let start = Instant::now();
    let mut child = cmd.spawn()?;
    let out = drain(child.stdout.take());
    let err = drain(child.stderr.take());
    let (exited, waiter) = exit_signal(&child);

    let mut timed_out = false;
    let mut interrupted = false;
    let mut int_at: Option<Instant> = None;
    let status = loop {
        if let Some(status) = child.try_wait()? {
            break status;
        }
        let now = Instant::now();
        if !interrupted {
            if let Some(token) = &opts.interrupt {
                if token.is_cancelled() {
                    interrupted = true;
                    int_at = Some(now);
                    send_sigint(&child);
                }
            }
        }
        let deadline_hit = opts.timeout.is_some_and(|t| now.duration_since(start) >= t);
        let grace_hit = int_at.is_some_and(|at| now.duration_since(at) >= opts.grace);
        if !timed_out && (deadline_hit || grace_hit) {
            timed_out = true;
            child.kill().ok(); // SIGKILL; reaped on the next try_wait
        }
        if exited.recv_timeout(TICK) == Err(RecvTimeoutError::Disconnected) {
            std::thread::sleep(TICK);
        }
    };
    // Wall clock stops at the reap; the pipe drains below may outlive
    // the child if it leaked its fds to an orphaned grandchild.
    let wall = start.elapsed();
    if let Some(waiter) = waiter {
        waiter.join().ok();
    }
    Ok(Supervised {
        status,
        stdout: String::from_utf8_lossy(&out.join().unwrap_or_default()).into_owned(),
        stderr: String::from_utf8_lossy(&err.join().unwrap_or_default()).into_owned(),
        timed_out,
        interrupted,
        wall,
    })
}

#[cfg(all(test, unix))]
mod tests {
    use super::*;

    fn sh(script: &str) -> Command {
        let mut c = Command::new("/bin/sh");
        c.arg("-c").arg(script);
        c
    }

    #[test]
    fn healthy_child_output_is_captured() {
        let s =
            run_supervised(&mut sh("echo out; echo err >&2"), &SuperviseOpts::default()).unwrap();
        assert!(s.status.success());
        assert_eq!(s.stdout, "out\n");
        assert_eq!(s.stderr, "err\n");
        assert!(!s.timed_out && !s.interrupted);
    }

    #[test]
    fn hung_child_is_sigkilled_at_the_deadline() {
        let opts = SuperviseOpts {
            timeout: Some(Duration::from_millis(200)),
            ..SuperviseOpts::default()
        };
        // fds redirected: if sh forks rather than execs, the orphaned
        // sleep must not hold our pipes open after the SIGKILL.
        let s = run_supervised(&mut sh("sleep 30 >/dev/null 2>&1"), &opts).unwrap();
        assert!(s.timed_out);
        assert!(!s.status.success());
        assert!(
            s.wall < Duration::from_secs(10),
            "deadline must actually bound the wait, took {:?}",
            s.wall
        );
    }

    #[test]
    fn interrupt_sends_sigint_then_escalates_after_grace() {
        // A child that ignores SIGINT: only the grace-period SIGKILL
        // can end it. The marker file is a trap-installation handshake
        // — the token cannot fire before the shell is actually immune,
        // however slowly the child gets scheduled.
        let marker = std::env::temp_dir().join(format!("sllt_sup_trap_{}", std::process::id()));
        std::fs::remove_file(&marker).ok();
        let token = CancelToken::new();
        let trigger = token.clone();
        let probe = marker.clone();
        std::thread::spawn(move || {
            let t0 = Instant::now();
            while !probe.exists() && t0.elapsed() < Duration::from_secs(20) {
                std::thread::sleep(Duration::from_millis(10));
            }
            trigger.cancel();
        });
        let opts = SuperviseOpts {
            interrupt: Some(token),
            grace: Duration::from_millis(200),
            ..SuperviseOpts::default()
        };
        // The inner sleep's fds are redirected so the orphan it becomes
        // after the SIGKILL cannot hold our pipes open.
        let script = format!(
            "trap '' INT; : > {}; sleep 30 >/dev/null 2>&1",
            marker.display()
        );
        let s = run_supervised(&mut sh(&script), &opts).unwrap();
        std::fs::remove_file(&marker).ok();
        assert!(s.interrupted && s.timed_out);
        assert!(s.wall < Duration::from_secs(25));

        // A cooperative child exits promptly on the SIGINT alone. The
        // child is spawned directly — a `sh -c` wrapper would fork the
        // sleep and absorb our SIGINT until it finished ("wait and
        // cooperative exit"), which is shell semantics, not ours.
        let token = CancelToken::new();
        token.cancel();
        let opts = SuperviseOpts {
            interrupt: Some(token),
            grace: Duration::from_secs(30),
            ..SuperviseOpts::default()
        };
        let mut cmd = Command::new("sleep");
        cmd.arg("30");
        let s = run_supervised(&mut cmd, &opts).unwrap();
        assert!(s.interrupted && !s.timed_out);
        assert!(s.wall < Duration::from_secs(10));
    }

    #[test]
    fn interrupt_reaches_children_even_when_the_supervisor_ignores_sigint() {
        // A supervisor launched as a shell background job (`slltd … &`,
        // nohup, CI) inherits SIG_IGN for SIGINT, and ignored
        // dispositions survive fork+exec. The pre-exec reset must
        // shield children from that inheritance, or cooperative cancel
        // silently degrades into grace-then-SIGKILL.
        extern "C" {
            fn signal(signum: i32, handler: usize) -> usize;
        }
        const SIGINT: i32 = 2;
        const SIG_IGN: usize = 1;
        // SAFETY: process-wide, but nothing in this test binary ever
        // signals the test process itself; restored before asserting.
        let prev = unsafe { signal(SIGINT, SIG_IGN) };
        let token = CancelToken::new();
        token.cancel();
        let opts = SuperviseOpts {
            interrupt: Some(token),
            grace: Duration::from_secs(30),
            ..SuperviseOpts::default()
        };
        let mut cmd = Command::new("sleep");
        cmd.arg("30");
        let s = run_supervised(&mut cmd, &opts);
        // SAFETY: restores the exact disposition observed above.
        unsafe { signal(SIGINT, prev) };
        let s = s.unwrap();
        assert!(
            s.interrupted && !s.timed_out,
            "SIGINT must reach the child despite the parent's SIG_IGN"
        );
        assert!(s.wall < Duration::from_secs(10));
    }
}
