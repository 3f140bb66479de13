//! Heap budget of the hierarchical flow at square 10⁵.
//!
//! A counting global allocator keeps the live heap bytes: every
//! allocation adds its size, every free subtracts it. The flow runs
//! square 10⁵ at one worker, so every allocation happens on the calling
//! thread in program order and the counts are deterministic; the budgets
//! are the measured values plus 2 %. Three points are pinned, relative
//! to the heap before the run (the design itself excluded):
//!
//! * level 0's `LevelStart`: nothing yet, because level 0 reads its
//!   nodes straight from the design's sinks;
//! * level 0's `LevelDone`: the routed clusters the run holds until
//!   assembly, which are also the next level's nodes;
//! * `Assembled`: the final tree next to everything streamed into it.
//!
//! The same test pins the tree arena at 56 heap bytes per slot.
//!
//! This is the machine-independent twin of the benchmark's
//! `peak_rss_mb`. It counts bytes, not allocator or page overhead, so
//! it reads below RSS. Release-only (`scripts/ci.sh`): a debug 10⁵ run
//! is slow.

use sllt_cts::{FlowEvent, HierarchicalCts};
use sllt_design::GridSpec;
use sllt_geom::Point;
use sllt_tree::ClockTree;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

struct Counting;

static LIVE: AtomicUsize = AtomicUsize::new(0);

// SAFETY: every method forwards to the system allocator unchanged and
// only adjusts an atomic counter, which never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() {
            LIVE.fetch_add(layout.size(), Ordering::Relaxed);
        }
        p
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc_zeroed(layout);
        if !p.is_null() {
            LIVE.fetch_add(layout.size(), Ordering::Relaxed);
        }
        p
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = System.realloc(ptr, layout, new_size);
        if !p.is_null() {
            LIVE.fetch_add(new_size, Ordering::Relaxed);
            LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
        }
        p
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Live heap bytes at level 0's `LevelStart`, square 10⁵, one worker:
/// 56 measured. A copy of the design's sinks as level nodes (56 bytes
/// each) read 5 600 056.
const MAX_LIVE_AT_LEVEL0_START: usize = 57;

/// Live heap bytes at level 0's `LevelDone`: 3 047 879 measured. Each
/// routed cluster is held as its codec frame, its members' sources and
/// its sizing until assembly, and the next level reads its nodes from
/// them. With a separate list of the next level's nodes it read
/// 3 506 631; held as one `ClockTree` each, with copies of the members'
/// level nodes, 31 838 050.
const MAX_LIVE_AT_LEVEL0: usize = 3_108_837;

/// Live heap bytes at `Assembled`: the final tree beside the frames
/// streamed into it, 15 581 706 measured. With a ten-column arena (73
/// bytes a slot) and 8-byte node ids it read 19 177 750 (budget
/// 19 561 305); with a `ClockTree` per cluster, 50 147 182.
const MAX_LIVE_AT_ASSEMBLED: usize = 15_893_340;

/// Heap bytes one `ClockTree` arena slot holds: seven columns.
const TREE_BYTES_PER_SLOT: usize = 56;

#[test]
#[cfg_attr(debug_assertions, ignore = "release-only: run via scripts/ci.sh")]
fn square_100k_holds_routed_clusters_compactly() {
    let design = GridSpec::square(100_000).instantiate();
    let cts = HierarchicalCts {
        workers: 1,
        ..HierarchicalCts::default()
    };
    let live = || LIVE.load(Ordering::Relaxed);
    // The arena's footprint, measured here rather than in a test of its
    // own: the counter is process-wide, so a second test running in
    // parallel would corrupt both counts.
    let before = live();
    let arena = ClockTree::with_capacity(Point::ORIGIN, 100_000);
    assert_eq!(
        live() - before,
        TREE_BYTES_PER_SLOT * 100_000,
        "heap bytes of a 100 000-slot arena"
    );
    drop(arena);

    let (mut start, mut level0, mut assembled) = (None, None, None);
    let base = live();
    let mut observer = |ev: &FlowEvent| match ev {
        FlowEvent::LevelStart { level: 0, .. } => start = Some(live() - base),
        FlowEvent::LevelDone { report, .. } if report.level == 0 => level0 = Some(live() - base),
        FlowEvent::Assembled { .. } => assembled = Some(live() - base),
        _ => {}
    };
    let tree = cts
        .run_with_observer(&design, &mut observer)
        .expect("square grids route");
    assert_eq!(tree.sinks().len(), 100_000);
    let (start, level0, assembled) = (start.unwrap(), level0.unwrap(), assembled.unwrap());
    println!(
        "live heap bytes: level 0 starts {start}, level 0 done {level0}, assembled {assembled}"
    );
    assert!(
        start <= MAX_LIVE_AT_LEVEL0_START,
        "{start} live bytes as level 0 starts, budget {MAX_LIVE_AT_LEVEL0_START}"
    );
    assert!(
        level0 <= MAX_LIVE_AT_LEVEL0,
        "{level0} live bytes after level 0, budget {MAX_LIVE_AT_LEVEL0}"
    );
    assert!(
        assembled <= MAX_LIVE_AT_ASSEMBLED,
        "{assembled} live bytes at assembly, budget {MAX_LIVE_AT_ASSEMBLED}"
    );
}
