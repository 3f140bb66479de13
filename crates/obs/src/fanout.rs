//! One work-claiming loop, [`fan_out`]: the only place a flow run
//! starts a thread (`DESIGN.md` §4a, "Threading and determinism").

use crate::registry::{current, current_span};
use std::sync::Mutex;

/// Applies `f` to every item on up to `workers` threads and returns
/// the results by item index (`DESIGN.md` §4a):
///
/// * The calling thread is one of the `workers` (clamped to the item
///   count; 0 counts as 1), so one worker starts no thread.
/// * Workers claim items one at a time in index order; each item moves
///   into `f` exactly once, with its index.
/// * Every worker polls `stop` before each claim and quits on `true`,
///   so a `stop` that answers `false` `m` times runs exactly the first
///   `min(m, n)` items.
/// * Slot `i` holds item `i`'s result, or `None` when `stop` fired
///   before item `i` was claimed; the `None` slots are a suffix.
/// * When the caller has a [`Registry`](crate::Registry) shard
///   installed, each helper installs one labelled `{lane}-{w}` (`w`
///   from 1; the caller's share shows on the caller's lane) whose spans
///   nest under the caller's open span, so counters total the same at
///   any worker count.
/// * A refused spawn (no thread stack to give) only means fewer
///   helpers: with every spawn refused the call runs like `workers = 1`.
/// * A panic in `f` on a helper reaches the caller with its payload.
pub fn fan_out<T, R, F>(
    lane: &str,
    items: Vec<T>,
    workers: usize,
    stop: &(dyn Fn() -> bool + Sync),
    f: F,
) -> Vec<Option<R>>
where
    T: Send,
    R: Send,
    F: Fn(usize, T) -> R + Sync,
{
    let n = items.len();
    let queue = Mutex::new(items.into_iter().enumerate());
    let slots: Mutex<Vec<Option<R>>> = Mutex::new((0..n).map(|_| None).collect());
    let work = || {
        while !stop() {
            let Some((i, item)) = queue.lock().expect("claims never panic").next() else {
                break;
            };
            let result = f(i, item);
            slots.lock().expect("slot writes never panic")[i] = Some(result);
        }
    };
    let (registry, parent_span) = (current(), current_span());
    std::thread::scope(|scope| {
        let (work, registry) = (&work, &registry);
        let helpers: Vec<_> = (1..workers.min(n))
            .map_while(|w| {
                std::thread::Builder::new()
                    .spawn_scoped(scope, move || {
                        let _telemetry = registry
                            .as_ref()
                            .map(|r| r.install_worker(&format!("{lane}-{w}"), parent_span));
                        work();
                    })
                    .ok()
            })
            .collect();
        work();
        for helper in helpers {
            if let Err(panic) = helper.join() {
                std::panic::resume_unwind(panic);
            }
        }
    });
    slots.into_inner().expect("slot writes never panic")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{count, span, Registry};
    use std::collections::BTreeSet;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Barrier;

    /// An item that can only move, never be copied.
    struct Token(usize);

    #[test]
    fn results_come_back_in_item_order_and_each_item_moves_once() {
        for workers in [0, 1, 2, 3, 8] {
            for n in [0, 1, 37] {
                let calls = AtomicUsize::new(0);
                let items = (0..n).map(Token).collect();
                let out = fan_out("test", items, workers, &|| false, |i, Token(v)| {
                    calls.fetch_add(1, Ordering::Relaxed);
                    (i, v)
                });
                let want: Vec<_> = (0..n).map(|v| Some((v, v))).collect();
                assert_eq!(
                    (out, calls.into_inner()),
                    (want, n),
                    "{workers} workers, {n} items"
                );
            }
        }
    }

    #[test]
    fn a_stop_fills_exactly_the_slots_claimed_before_it() {
        for workers in [0, 1, 2, 3, 8] {
            for n in [0, 1, 37] {
                for m in [0, 1, 5, 37, 40] {
                    let polls = AtomicUsize::new(0);
                    let stop = || polls.fetch_add(1, Ordering::Relaxed) >= m;
                    let out = fan_out("test", vec![(); n], workers, &stop, |_, ()| ());
                    let want: Vec<_> = (0..n).map(|i| (i < m).then_some(())).collect();
                    assert_eq!(out, want, "{workers} workers, {n} items, {m} polls");
                }
            }
        }
    }

    #[test]
    fn telemetry_totals_match_and_helper_spans_nest_under_the_caller() {
        let mut totals = Vec::new();
        for workers in [1, 4] {
            // The first `workers` items meet at a barrier, so each worker
            // runs one of them and every helper records.
            let barrier = Barrier::new(workers);
            let reg = Registry::new();
            {
                let _scope = reg.install("caller");
                let _outer = span("outer");
                let record = |i, v| {
                    if i < workers {
                        barrier.wait();
                    }
                    let _s = span("inner");
                    count("test.items", 1);
                    count("test.sum", v);
                };
                fan_out("helper", (0..37).collect(), workers, &|| false, record);
            }
            let snap = reg.snapshot();
            let outer = snap.spans.iter().find(|s| s.name == "outer").unwrap().id;
            let inners: Vec<_> = snap.spans.iter().filter(|s| s.name == "inner").collect();
            assert_eq!(inners.len(), 37, "{workers} workers");
            assert!(inners.iter().all(|s| s.parent == Some(outer)), "{workers}");
            let lanes: BTreeSet<String> = inners.iter().map(|s| s.thread.clone()).collect();
            let want = (1..workers).map(|w| format!("helper-{w}"));
            assert_eq!(lanes, want.chain(["caller".into()]).collect());
            let counter = |name| snap.metrics.counter(name);
            totals.push((counter("test.items"), counter("test.sum")));
        }
        assert_eq!(totals, [(37, 666), (37, 666)]);
    }

    #[test]
    fn a_helper_panic_reaches_the_caller_with_its_payload() {
        let caller = std::thread::current().id();
        // Both items meet at the barrier, so the helper runs one of them.
        let barrier = Barrier::new(2);
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            fan_out("test", vec![(); 2], 2, &|| false, |_, ()| {
                barrier.wait();
                assert_eq!(std::thread::current().id(), caller, "helper payload");
            })
        }));
        let payload = caught.expect_err("the helper's panic propagates");
        let message = payload.downcast_ref::<String>().expect("formatted");
        assert!(message.contains("helper payload"));
    }
}
