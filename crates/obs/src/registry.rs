//! The metrics registry, worker shards, and hierarchical spans.
//!
//! A [`Registry`] is the per-run collection point. Threads do not write
//! to it directly: each participating thread *installs* a private shard
//! (thread-local, no locks, no atomics on the record path) and the shard
//! merges into the registry once, when its scope guard drops. The
//! instrumented algorithms call the free functions ([`count`], [`gauge`],
//! [`record`], [`span`]); with no shard installed those are no-ops gated
//! on a single relaxed atomic load, so a flow run with the `NullSink`
//! pays one branch per instrumentation site.
//!
//! Telemetry is **observation-only** by construction: nothing in this
//! module feeds values back to the caller mid-run, so instrumented code
//! cannot behave differently when a shard is installed (the equivalence
//! tests in `sllt-cts` pin this down against the real engine).

use crate::metrics::{Histogram, MetricsMap};
use crate::trace::{TraceEvent, TraceHub, TraceSlot};
use std::borrow::Cow;
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// One closed span: a named wall-time interval on a specific thread,
/// nested under `parent` (another span id, or `None` for a root).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanRecord {
    /// Unique id within the registry (allocation order).
    pub id: u64,
    /// Enclosing span, if any. Worker shards inherit the spawning
    /// thread's current span, so cluster work nests under `cts.route`.
    pub parent: Option<u64>,
    /// Span name (dotted, e.g. `cts.route`).
    pub name: String,
    /// Label of the thread the span ran on.
    pub thread: String,
    /// Start, µs since the registry epoch.
    pub start_us: u64,
    /// Duration, µs.
    pub dur_us: u64,
}

/// Everything a registry collected: merged metrics plus the span list
/// (in shard-merge order; ids give a total order when needed).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Collected {
    /// Merged counters, gauges, histograms.
    pub metrics: MetricsMap,
    /// Closed spans.
    pub spans: Vec<SpanRecord>,
}

#[derive(Debug)]
struct Inner {
    epoch: Instant,
    state: Mutex<Collected>,
    next_span: AtomicU64,
    trace: Mutex<Option<TraceHub>>,
}

/// A shareable per-run telemetry collection point.
#[derive(Debug, Clone)]
pub struct Registry {
    inner: Arc<Inner>,
}

impl Default for Registry {
    fn default() -> Self {
        Registry::new()
    }
}

impl Registry {
    /// A fresh registry; its creation instant is the span epoch.
    pub fn new() -> Registry {
        Registry {
            inner: Arc::new(Inner {
                epoch: Instant::now(),
                state: Mutex::new(Collected::default()),
                next_span: AtomicU64::new(0),
                trace: Mutex::new(None),
            }),
        }
    }

    /// Installs a shard for the current thread, making the free
    /// functions record into this registry until the guard drops. The
    /// guard merges the shard on drop.
    ///
    /// # Panics
    ///
    /// Panics when the current thread already has a shard installed
    /// (telemetry scopes do not nest within a thread).
    pub fn install(&self, thread_label: &str) -> ScopeGuard {
        self.install_worker(thread_label, None)
    }

    /// [`install`](Registry::install) for a [`fan_out`](crate::fan_out)
    /// helper thread: spans opened on this thread nest under
    /// `parent_span` (the handing thread's [`current_span`]).
    ///
    /// # Panics
    ///
    /// Panics when the current thread already has a shard installed.
    pub(crate) fn install_worker(
        &self,
        thread_label: &str,
        parent_span: Option<u64>,
    ) -> ScopeGuard {
        let tracer = self.trace_hub().map(|hub| hub.register(thread_label));
        SHARD.with(|slot| {
            let mut slot = slot.borrow_mut();
            assert!(
                slot.is_none(),
                "telemetry scope already installed on this thread"
            );
            *slot = Some(Shard {
                registry: self.clone(),
                thread: thread_label.to_string(),
                base_parent: parent_span,
                counters: BTreeMap::new(),
                gauges: BTreeMap::new(),
                histograms: BTreeMap::new(),
                open: Vec::new(),
                closed: Vec::new(),
                tracer,
            });
        });
        ACTIVE.fetch_add(1, Ordering::Relaxed);
        ScopeGuard { _private: () }
    }

    /// Turns on streaming tracing for this registry: every shard
    /// installed *after* this call additionally buffers span/counter/
    /// gauge events into a bounded per-thread [`TraceSlot`] of
    /// `capacity` events, drained through the returned [`TraceHub`].
    /// Idempotent — a second call returns the existing hub (the
    /// capacity argument is ignored then). Tracing never feeds values
    /// back to instrumented code, so the observation-only contract (and
    /// the bit-identical-tree guarantee) is unchanged.
    pub fn enable_tracing(&self, capacity: usize) -> TraceHub {
        let mut trace = self.inner.trace.lock().expect("registry trace lock");
        trace
            .get_or_insert_with(|| TraceHub::new(self.inner.epoch, capacity))
            .clone()
    }

    /// The trace hub, when [`enable_tracing`](Registry::enable_tracing)
    /// has been called.
    pub fn trace_hub(&self) -> Option<TraceHub> {
        self.inner
            .trace
            .lock()
            .expect("registry trace lock")
            .clone()
    }

    /// A snapshot of everything merged so far. Call after every scope
    /// guard (and worker thread) has finished for the complete picture.
    pub fn snapshot(&self) -> Collected {
        self.inner.state.lock().expect("registry lock").clone()
    }

    fn alloc_span(&self) -> u64 {
        self.inner.next_span.fetch_add(1, Ordering::Relaxed)
    }

    fn merge(&self, shard: &mut Shard) {
        let mut state = self.inner.state.lock().expect("registry lock");
        for (name, v) in std::mem::take(&mut shard.counters) {
            *state.metrics.counters.entry(name.to_string()).or_insert(0) += v;
        }
        for (name, v) in std::mem::take(&mut shard.gauges) {
            state.metrics.gauges.insert(name.to_string(), v);
        }
        for (name, h) in std::mem::take(&mut shard.histograms) {
            state
                .metrics
                .histograms
                .entry(name.to_string())
                .or_default()
                .merge(&h);
        }
        state.spans.append(&mut shard.closed);
    }
}

struct Shard {
    registry: Registry,
    thread: String,
    base_parent: Option<u64>,
    counters: BTreeMap<&'static str, u64>,
    gauges: BTreeMap<&'static str, f64>,
    histograms: BTreeMap<&'static str, Histogram>,
    /// Stack of open spans on this thread.
    open: Vec<(u64, &'static str, Instant)>,
    closed: Vec<SpanRecord>,
    /// This thread's trace buffer, when the registry has tracing on.
    tracer: Option<TraceSlot>,
}

impl Shard {
    fn close_span(&mut self, id: u64) {
        // Defensive: close any span above `id` too (a guard leaked by a
        // panic unwinds here), so nesting never corrupts.
        while let Some(&(top, name, start)) = self.open.last() {
            self.open.pop();
            let parent = self.open.last().map(|&(p, _, _)| p).or(self.base_parent);
            let epoch = self.registry.inner.epoch;
            let start_us = start.saturating_duration_since(epoch).as_micros() as u64;
            let dur_us = start.elapsed().as_micros() as u64;
            self.closed.push(SpanRecord {
                id: top,
                parent,
                name: name.to_string(),
                thread: self.thread.clone(),
                start_us,
                dur_us,
            });
            if let Some(t) = &self.tracer {
                t.push(TraceEvent::End {
                    id: top,
                    name: Cow::Borrowed(name),
                    t_us: start_us + dur_us,
                });
            }
            if top == id {
                break;
            }
        }
    }
}

thread_local! {
    static SHARD: RefCell<Option<Shard>> = const { RefCell::new(None) };
}

/// Count of installed shards across all threads; 0 means every
/// instrumentation site is a single relaxed load + branch.
static ACTIVE: AtomicUsize = AtomicUsize::new(0);

/// Uninstalls and merges the thread's shard on drop.
#[must_use = "dropping the guard immediately merges and disables telemetry"]
pub struct ScopeGuard {
    _private: (),
}

impl Drop for ScopeGuard {
    fn drop(&mut self) {
        ACTIVE.fetch_sub(1, Ordering::Relaxed);
        SHARD.with(|slot| {
            if let Some(mut shard) = slot.borrow_mut().take() {
                // Close anything still open (panic unwind path).
                if let Some(&(bottom, _, _)) = shard.open.first() {
                    shard.close_span(bottom);
                }
                shard.registry.clone().merge(&mut shard);
            }
        });
    }
}

/// Closes its span on drop. Inert when no shard was installed at
/// creation.
#[must_use = "dropping the guard closes the span immediately"]
pub struct SpanGuard {
    id: Option<u64>,
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if let Some(id) = self.id {
            with_shard(|s| s.close_span(id));
        }
    }
}

/// Whether any thread currently has telemetry installed (cheap gate for
/// optional instrumentation work like extra bookkeeping).
#[inline]
pub fn enabled() -> bool {
    ACTIVE.load(Ordering::Relaxed) != 0
}

#[inline]
fn with_shard(f: impl FnOnce(&mut Shard)) {
    if !enabled() {
        return;
    }
    SHARD.with(|slot| {
        if let Some(shard) = slot.borrow_mut().as_mut() {
            f(shard);
        }
    });
}

/// Adds `n` to the named counter.
#[inline]
pub fn count(name: &'static str, n: u64) {
    with_shard(|s| {
        *s.counters.entry(name).or_insert(0) += n;
        if let Some(t) = &s.tracer {
            t.counter(name, n);
        }
    });
}

/// Sets the named gauge to `v` (last write wins).
#[inline]
pub fn gauge(name: &'static str, v: f64) {
    with_shard(|s| {
        s.gauges.insert(name, v);
        if let Some(t) = &s.tracer {
            t.gauge(name, v);
        }
    });
}

/// Records one sample into the named histogram.
#[inline]
pub fn record(name: &'static str, v: u64) {
    with_shard(|s| s.histograms.entry(name).or_default().record(v));
}

/// Merges a locally accumulated histogram into the named one — the
/// batched form hot loops use so the per-event cost stays a plain
/// integer add.
#[inline]
pub fn record_hist(name: &'static str, h: &Histogram) {
    if h.count() == 0 {
        return;
    }
    with_shard(|s| s.histograms.entry(name).or_default().merge(h));
}

/// Opens a span; it closes (and records) when the guard drops.
#[inline]
pub fn span(name: &'static str) -> SpanGuard {
    if !enabled() {
        return SpanGuard { id: None };
    }
    SHARD.with(|slot| {
        let mut slot = slot.borrow_mut();
        match slot.as_mut() {
            Some(shard) => {
                let id = shard.registry.alloc_span();
                let parent = shard.open.last().map(|&(p, _, _)| p).or(shard.base_parent);
                let start = Instant::now();
                shard.open.push((id, name, start));
                if let Some(t) = &shard.tracer {
                    let epoch = shard.registry.inner.epoch;
                    t.push(TraceEvent::Begin {
                        id,
                        parent,
                        name: Cow::Borrowed(name),
                        t_us: start.saturating_duration_since(epoch).as_micros() as u64,
                    });
                }
                SpanGuard { id: Some(id) }
            }
            None => SpanGuard { id: None },
        }
    })
}

/// The registry installed on this thread, if any — what
/// [`fan_out`](crate::fan_out) hands its helper threads.
pub(crate) fn current() -> Option<Registry> {
    if !enabled() {
        return None;
    }
    SHARD.with(|slot| slot.borrow().as_ref().map(|s| s.registry.clone()))
}

/// The parent a span opened now on this thread would get — the
/// innermost open span, else a worker shard's base parent — and so the
/// parent for worker shards this thread hands work to.
pub(crate) fn current_span() -> Option<u64> {
    if !enabled() {
        return None;
    }
    SHARD.with(|slot| {
        slot.borrow()
            .as_ref()
            .and_then(|s| s.open.last().map(|&(id, _, _)| id).or(s.base_parent))
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn free_functions_are_noops_without_a_shard() {
        count("test.noop", 1);
        gauge("test.noop", 1.0);
        record("test.noop", 1);
        let _s = span("test.noop");
        assert!(current().is_none());
    }

    #[test]
    fn shard_merges_on_scope_exit() {
        let reg = Registry::new();
        {
            let _scope = reg.install("t");
            count("test.counter", 2);
            count("test.counter", 3);
            gauge("test.gauge", 1.5);
            record("test.hist", 9);
            assert!(reg.snapshot().metrics.is_empty(), "merge waits for drop");
        }
        let snap = reg.snapshot();
        assert_eq!(snap.metrics.counter("test.counter"), 5);
        assert_eq!(snap.metrics.gauges["test.gauge"], 1.5);
        assert_eq!(snap.metrics.histograms["test.hist"].count(), 1);
    }

    #[test]
    fn worker_shards_sum_counters() {
        let reg = Registry::new();
        {
            let _scope = reg.install("coordinator");
            let outer = span("outer");
            let parent = current_span();
            std::thread::scope(|scope| {
                for w in 0..4 {
                    let reg = reg.clone();
                    scope.spawn(move || {
                        let _s = reg.install_worker(&format!("w{w}"), parent);
                        count("test.work", 10);
                        let _sp = span("inner");
                    });
                }
            });
            drop(outer);
        }
        let snap = reg.snapshot();
        assert_eq!(snap.metrics.counter("test.work"), 40);
        // Worker spans nest under the coordinator's open span.
        let outer_id = snap
            .spans
            .iter()
            .find(|s| s.name == "outer")
            .map(|s| s.id)
            .expect("outer span merged after workers");
        let inners: Vec<_> = snap.spans.iter().filter(|s| s.name == "inner").collect();
        assert_eq!(inners.len(), 4);
        assert!(inners.iter().all(|s| s.parent == Some(outer_id)));
    }

    #[test]
    fn spans_nest_by_stack_order() {
        let reg = Registry::new();
        {
            let _scope = reg.install("t");
            let a = span("a");
            {
                let _b = span("b");
            }
            drop(a);
        }
        let snap = reg.snapshot();
        let a = snap.spans.iter().find(|s| s.name == "a").unwrap();
        let b = snap.spans.iter().find(|s| s.name == "b").unwrap();
        assert_eq!(b.parent, Some(a.id));
        assert_eq!(a.parent, None);
        assert!(a.dur_us >= b.dur_us);
    }
}
