//! Cooperative cancellation for the hierarchical flow.
//!
//! A [`CancelToken`] is a cheap, cloneable flag the flow polls at every
//! bounded unit of work: before each level, before each cluster in the
//! partition/route/sizing stages, between K-means restarts, and once per
//! SA sweep iteration. When the token fires, the stage that observes it
//! stops at its *next* poll and the flow returns
//! [`CtsError::Cancelled`](crate::error::CtsError::Cancelled) — so the
//! number of work units executed after `cancel()` is bounded by the
//! worker count plus a small constant, never by design size.
//!
//! The token travels in the run's
//! [`RunContext`](crate::flow::RunContext). Work committed before the
//! cancellation is untouched: with checkpointing enabled the journal
//! still holds every completed level, and a run with
//! [`CheckpointMode::Resume`](crate::flow::CheckpointMode::Resume)
//! continues from it.
//!
//! The token is also the process-interrupt hook: [`install_signals`]
//! arranges for SIGINT (Ctrl-C) *and* SIGTERM (the service-manager
//! stop signal) to fire a token from an async-signal-safe handler (a
//! single atomic store) — so an interactive ^C and a `kill <pid>` both
//! produce the same orderly, checkpointing shutdown.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

#[derive(Debug)]
struct Inner {
    /// Set once, never cleared. All pollers observe it on their next poll.
    fired: AtomicBool,
    /// Total number of `poll()` calls, across all clones. Drives the
    /// deterministic `fire_after_polls` test hook and lets tests measure
    /// cancellation latency in work units.
    polls: AtomicU64,
    /// Poll count at which the token self-fires (`u64::MAX` = never).
    /// Immutable after construction, so polling stays race-free.
    fire_at: u64,
}

/// Shared cancellation flag. `Default` yields an inert token that never
/// fires on its own; [`cancel`](CancelToken::cancel) it from any thread
/// (or signal handler) and every clone observes the stop.
#[derive(Debug, Clone)]
pub struct CancelToken {
    inner: Arc<Inner>,
}

impl Default for CancelToken {
    fn default() -> CancelToken {
        CancelToken::new()
    }
}

impl CancelToken {
    /// A fresh, unfired token.
    pub fn new() -> CancelToken {
        CancelToken {
            inner: Arc::new(Inner {
                fired: AtomicBool::new(false),
                polls: AtomicU64::new(0),
                fire_at: u64::MAX,
            }),
        }
    }

    /// A token that fires itself once `n` total polls have been counted
    /// across all clones — a deterministic stand-in for "the operator
    /// hits Ctrl-C at an arbitrary moment", used by the latency tests.
    pub fn fire_after_polls(n: u64) -> CancelToken {
        CancelToken {
            inner: Arc::new(Inner {
                fired: AtomicBool::new(false),
                polls: AtomicU64::new(0),
                fire_at: n,
            }),
        }
    }

    /// Fires the token. Idempotent; safe from any thread. Also the only
    /// operation the signal handler performs.
    pub fn cancel(&self) {
        self.inner.fired.store(true, Ordering::Release);
    }

    /// Whether the token has fired, without counting a poll.
    pub fn is_cancelled(&self) -> bool {
        self.inner.fired.load(Ordering::Acquire)
    }

    /// Counts one unit of work and reports whether the caller must stop.
    /// This is the call sites' single entry point: one `fetch_add` and
    /// one load on the fast path.
    pub fn poll(&self) -> bool {
        let n = self.inner.polls.fetch_add(1, Ordering::AcqRel) + 1;
        if n >= self.inner.fire_at {
            self.inner.fired.store(true, Ordering::Release);
        }
        self.is_cancelled()
    }

    /// Total polls counted so far (all clones). Test observability only.
    pub fn polls(&self) -> u64 {
        self.inner.polls.load(Ordering::Acquire)
    }
}

/// Routes both termination signals — SIGINT (Ctrl-C) and SIGTERM (the
/// service-manager stop) — to `token.cancel()`.
///
/// The handler performs a single atomic store through a leaked `Arc` —
/// async-signal-safe by construction (no allocation, no locks, no
/// formatting). Installing a second token replaces the first; the
/// previously leaked `Arc` is intentionally never reclaimed (one token
/// per process lifetime is the expected use from a bin's `main`).
#[cfg(unix)]
pub fn install_signals(token: &CancelToken) {
    use std::sync::atomic::AtomicPtr;

    static TARGET: AtomicPtr<Inner> = AtomicPtr::new(std::ptr::null_mut());

    extern "C" fn on_signal(_sig: i32) {
        let p = TARGET.load(Ordering::Acquire);
        if !p.is_null() {
            // SAFETY: `p` came from Arc::into_raw of an Arc we leaked, so
            // the Inner outlives the process.
            unsafe { (*p).fired.store(true, Ordering::Release) };
        }
    }

    extern "C" {
        fn signal(signum: i32, handler: extern "C" fn(i32)) -> usize;
    }
    const SIGINT: i32 = 2;
    const SIGTERM: i32 = 15;

    let raw = Arc::into_raw(Arc::clone(&token.inner)) as *mut Inner;
    // A replaced target is leaked rather than reclaimed: the handler may
    // be mid-read of it on another thread, and one Inner per install is
    // a bounded, intentional cost.
    TARGET.store(raw, Ordering::Release);
    // SAFETY: plain libc signal(2) registration with a fn pointer of the
    // correct C ABI; no Rust state is touched beyond the atomics above.
    unsafe {
        signal(SIGINT, on_signal);
        signal(SIGTERM, on_signal);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inert_token_never_fires() {
        let t = CancelToken::new();
        for _ in 0..10_000 {
            assert!(!t.poll());
        }
        assert!(!t.is_cancelled());
        assert_eq!(t.polls(), 10_000);
    }

    #[test]
    fn cancel_is_seen_by_every_clone() {
        let t = CancelToken::new();
        let c = t.clone();
        assert!(!c.poll());
        t.cancel();
        assert!(c.poll());
        assert!(t.is_cancelled() && c.is_cancelled());
    }

    #[test]
    fn fire_after_polls_fires_exactly_on_schedule() {
        let t = CancelToken::fire_after_polls(3);
        assert!(!t.poll());
        assert!(!t.poll());
        assert!(t.poll());
        assert!(t.is_cancelled());
    }

    #[test]
    fn fire_after_zero_fires_immediately() {
        let t = CancelToken::fire_after_polls(0);
        assert!(t.poll());
    }

    #[test]
    fn polls_accumulate_across_threads() {
        let t = CancelToken::fire_after_polls(64);
        std::thread::scope(|s| {
            for _ in 0..4 {
                let c = t.clone();
                s.spawn(move || {
                    let mut stopped = 0u64;
                    for _ in 0..100 {
                        if c.poll() {
                            stopped += 1;
                        }
                    }
                    stopped
                });
            }
        });
        // 400 total polls, threshold 64: the token must have fired.
        assert!(t.is_cancelled());
        assert_eq!(t.polls(), 400);
    }
}
