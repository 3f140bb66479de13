//! Golden trees: the flow's output on square register grids, byte for
//! byte.
//!
//! Kernel speed-ups in the level-0 path (median split, merge-order
//! generation, DME bisection, CBS candidate checks, RC evaluation) must
//! compute every float that reaches a tree by the same operations in the
//! same order, so the written tree may not change by a single byte. The
//! digests are FNV-1a-64 of the `write_tree` text; the 10⁵ case runs in
//! release only (`scripts/ci.sh`).

use sllt_cts::flow::HierarchicalCts;
use sllt_design::GridSpec;

/// `(bytes, FNV-1a-64)` of the written tree for a square grid of
/// `sinks` flip-flops at 15 µm pitch.
fn written_tree(sinks: usize) -> (usize, String) {
    let design = GridSpec::square(sinks).instantiate();
    let cts = HierarchicalCts {
        workers: 2,
        ..HierarchicalCts::default()
    };
    let tree = cts.run(&design).expect("square grids route");
    let mut bytes = Vec::new();
    sllt_tree::io::write_tree(&tree, &mut bytes).expect("in-memory write");
    (
        bytes.len(),
        format!("{:016x}", sllt_obs::journal::fnv1a64(&bytes)),
    )
}

#[test]
fn square_10k_tree_is_golden() {
    assert_eq!(
        written_tree(10_000),
        (910_593, "fb5e4e3d116cdc35".to_string())
    );
}

#[test]
#[cfg_attr(debug_assertions, ignore = "release-only: run via scripts/ci.sh")]
fn square_100k_tree_is_golden() {
    assert_eq!(
        written_tree(100_000),
        (9_839_460, "025976b70ae35d8e".to_string())
    );
}
