//! Allocation budget of one CBS call on level-0-shaped nets.
//!
//! A counting global allocator tallies the heap allocations (`alloc`,
//! `alloc_zeroed` and `realloc`) made on the calling thread while CBS
//! routes a fixed set of nets shaped like the hierarchical flow's
//! level-0 clusters: 22 flip-flops of a 15 µm register grid, the tap at
//! their centroid, the flow's CBS configuration (Greedy-Dist, Elmore,
//! 40 ps, adaptive ε). The count is deterministic, so the bound is
//! tight; it guards the scratch-buffer reuse in the route kernels
//! against regressions. Wall time is deliberately not tested.

use sllt_core::cbs::{try_cbs_intervals, CbsConfig};
use sllt_geom::Point;
use sllt_route::{DelayModel, TopologyScheme};
use sllt_timing::Technology;
use sllt_tree::{ClockNet, Sink};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct Counting;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count() {
    // `try_with`: the thread's slot may already be gone during teardown.
    let _ = ALLOCATIONS.try_with(|c| c.set(c.get() + 1));
}

// SAFETY: every method forwards to the system allocator unchanged; the
// thread-local counter has a const initializer and no destructor, so
// touching it never allocates or recurses.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc(layout)
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc_zeroed(layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        System.realloc(ptr, layout, new_size)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations per CBS call on [`level0_nets`]: 240 today (budget 250),
/// 296 (budget 308) while the tree arena kept ten columns, 439 while
/// merge orders were boxed subtrees copied into a second hinted type,
/// 448 while trees kept an edit log and the skew check lowered them into
/// a second RC arena, 1 327 before the route kernels stopped collecting
/// node ids per pass, reused their scratch buffers and built RC child
/// lists as one array.
const MAX_ALLOCATIONS_PER_CALL: u64 = 250;

/// Level-0-shaped nets: 22 sinks from a 5 × 5 block of a 15 µm grid
/// (three cells left out, a different three per net), pin caps cycling
/// 1.0/1.4/1.8 fF like `GridSpec`, the tap at the centroid.
fn level0_nets() -> Vec<ClockNet> {
    (0..200)
        .map(|k: usize| {
            let skip = [k % 25, (k + 8) % 25, (k + 16) % 25];
            let (ox, oy) = ((k % 40) as f64 * 75.0, (k / 40) as f64 * 75.0);
            let sinks: Vec<Sink> = (0..25)
                .filter(|c| !skip.contains(c))
                .map(|c| {
                    let pos = Point::new(ox + (c % 5) as f64 * 15.0, oy + (c / 5) as f64 * 15.0);
                    Sink::new(pos, 1.0 + ((c + k) % 3) as f64 * 0.4)
                })
                .collect();
            let n = sinks.len() as f64;
            let (sx, sy) = sinks
                .iter()
                .fold((0.0, 0.0), |(x, y), s| (x + s.pos.x, y + s.pos.y));
            ClockNet::new(Point::new(sx / n, sy / n), sinks)
        })
        .collect()
}

/// The flow's CBS configuration for `net`: Greedy-Dist, Elmore, 40 ps,
/// and ε relaxed to what 6 ps of latency slack allows (as the route
/// stage does).
fn flow_config(net: &ClockNet) -> CbsConfig {
    let tech = Technology::n28();
    let slack_len = (2.0 * 6.0 / (tech.unit_res_ohm * tech.unit_cap_ff * 1e-3)).sqrt();
    let eps = 0.2f64
        .max(slack_len / net.max_source_dist() - 1.0)
        .min(10.0);
    CbsConfig {
        scheme: TopologyScheme::GreedyDist,
        skew_bound: 40.0,
        eps,
        model: DelayModel::Elmore(tech),
    }
}

#[test]
fn cbs_allocations_per_call_are_bounded() {
    let nets = level0_nets();
    let configs: Vec<CbsConfig> = nets.iter().map(flow_config).collect();
    let intervals = vec![(0.0, 0.0); 22];
    assert!(nets.iter().all(|n| n.len() == 22));
    // One untimed call first, so lazily initialized state is not billed.
    drop(try_cbs_intervals(&nets[0], &configs[0], &intervals));

    let before = ALLOCATIONS.with(Cell::get);
    for (net, cfg) in nets.iter().zip(&configs) {
        let tree = try_cbs_intervals(net, cfg, &intervals).expect("level-0 nets route");
        drop(tree);
    }
    let per_call = (ALLOCATIONS.with(Cell::get) - before) / nets.len() as u64;
    println!("allocations per CBS call: {per_call}");
    assert!(
        per_call <= MAX_ALLOCATIONS_PER_CALL,
        "{per_call} allocations per CBS call, budget {MAX_ALLOCATIONS_PER_CALL}"
    );
}
