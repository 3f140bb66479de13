//! Golden trees: the flow's output on square register grids, byte for
//! byte, and every timing number reported on the 10⁴ tree, bit for bit.
//!
//! Kernel speed-ups in the level-0 path (median split, merge-order
//! generation, DME bisection, CBS candidate checks, RC evaluation) must
//! compute every float that reaches a tree by the same operations in the
//! same order, so the written tree may not change by a single byte. The
//! digests are FNV-1a-64 of the `write_tree` text; the 10⁵ case runs in
//! release only (`scripts/ci.sh`). The timing goldens hold the buffered
//! delay/slew walk that `evaluate`, `max_slew` and both OCV views share
//! to the same standard.

use sllt_cts::flow::HierarchicalCts;
use sllt_cts::{derate_skew, evaluate, ocv_analysis, OcvModel};
use sllt_design::GridSpec;
use sllt_tree::ClockTree;
use std::sync::OnceLock;

/// The flow's tree for a square grid of `sinks` flip-flops at 15 µm
/// pitch.
fn flow_tree(sinks: usize) -> ClockTree {
    let design = GridSpec::square(sinks).instantiate();
    let cts = HierarchicalCts {
        workers: 2,
        ..HierarchicalCts::default()
    };
    cts.run(&design).expect("square grids route")
}

/// The square-10⁴ tree, built once for every test here.
fn square_10k() -> &'static ClockTree {
    static TREE: OnceLock<ClockTree> = OnceLock::new();
    TREE.get_or_init(|| flow_tree(10_000))
}

/// `(bytes, FNV-1a-64)` of the written tree.
fn written(tree: &ClockTree) -> (usize, String) {
    let mut bytes = Vec::new();
    sllt_tree::io::write_tree(tree, &mut bytes).expect("in-memory write");
    (
        bytes.len(),
        format!("{:016x}", sllt_obs::journal::fnv1a64(&bytes)),
    )
}

#[test]
fn square_10k_tree_is_golden() {
    assert_eq!(
        written(square_10k()),
        (910_593, "fb5e4e3d116cdc35".to_string())
    );
}

#[test]
#[cfg_attr(debug_assertions, ignore = "release-only: run via scripts/ci.sh")]
fn square_100k_tree_is_golden() {
    assert_eq!(
        written(&flow_tree(100_000)),
        (9_839_460, "025976b70ae35d8e".to_string())
    );
}

/// Every float `evaluate`, `max_slew`, `derate_skew` and `ocv_analysis`
/// report on the square-10⁴ tree, as f64 bits.
#[test]
fn square_10k_timing_is_golden() {
    let tree = square_10k();
    let HierarchicalCts { tech, lib, .. } = HierarchicalCts::default();
    let r = evaluate(tree, &tech, &lib);
    let mc = ocv_analysis(tree, &tech, &lib, &OcvModel::default(), 3);
    let got: Vec<String> = [
        ("max_latency_ps", r.max_latency_ps),
        ("min_latency_ps", r.min_latency_ps),
        ("skew_ps", r.skew_ps),
        ("buffer_area_um2", r.buffer_area_um2),
        ("clock_cap_ff", r.clock_cap_ff),
        ("clock_wl_um", r.clock_wl_um),
        ("max_slew_ps", r.max_slew_ps),
        ("max_slew", sllt_buffer::max_slew(tree, &lib, &tech)),
        ("derate_0", derate_skew(tree, &tech, &lib, 0.0)),
        ("derate_0.05", derate_skew(tree, &tech, &lib, 0.05)),
        ("derate_0.08", derate_skew(tree, &tech, &lib, 0.08)),
        ("ocv_nominal", mc.nominal_skew_ps),
        ("ocv_mean", mc.mean_skew_ps),
        ("ocv_p95", mc.p95_skew_ps),
        ("ocv_max", mc.max_skew_ps),
        ("ocv_mean_latency", mc.mean_latency_ps),
    ]
    .into_iter()
    .map(|(k, v)| format!("{k} {:016x}", v.to_bits()))
    .collect();
    // Among them: skew 78.777 ps, max slew 233.150 ps, derated (8 %) skew
    // 160.996 ps, Monte-Carlo mean skew 86.887 ps.
    let want = [
        "max_latency_ps 408f2d63fd143890",
        "min_latency_ps 408cb72c4033cf5f",
        "skew_ps 4053b1bde7034988",
        "buffer_area_um2 40a91c99999999b6",
        "clock_cap_ff 40e775170a211e6c",
        "clock_wl_um 4108943fffd3c0d8",
        "max_slew_ps 406d24cd19f6b47e",
        "max_slew 406d24cd19f6b47e",
        "derate_0 4053b1bde7034988",
        "derate_0.05 40601ffe9d58e091",
        "derate_0.08 40641fe2e8b130ba",
        "ocv_nominal 4053b1bde7034988",
        "ocv_mean 4055b8c91a7b52c3",
        "ocv_p95 405905caf9812790",
        "ocv_max 405905caf9812790",
        "ocv_mean_latency 408f38a4a9c72101",
    ];
    assert_eq!(got, want);
    assert_eq!((r.num_buffers, r.num_sinks, mc.trials), (654, 10_000, 3));
}
