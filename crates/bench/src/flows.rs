//! Shared Table 6/7 machinery: run the three flows on a design list and
//! render the paper's comparison columns.

use crate::Table;
use sllt_cts::{
    baseline, constraints::CtsConstraints, eval::evaluate, eval::TreeReport, flow::HierarchicalCts,
};
use sllt_design::DesignSpec;
use std::time::Instant;

/// One flow's result on one design.
#[derive(Debug, Clone, Copy)]
pub struct FlowResult {
    /// All tree metrics.
    pub report: TreeReport,
    /// Wall-clock runtime, seconds.
    pub runtime_s: f64,
}

/// Runs ours / commercial-like / OpenROAD-like on a design.
///
/// # Errors
///
/// Returns a message naming the design and flow when either engine-based
/// flow fails, so table binaries can exit nonzero instead of panicking.
pub fn run_three(spec: &DesignSpec) -> Result<[FlowResult; 3], String> {
    let design = spec.instantiate();
    let ours = HierarchicalCts::default();
    let com = baseline::commercial_like();

    let t0 = Instant::now();
    let tree = ours
        .run(&design)
        .map_err(|e| format!("{}: hierarchical flow failed: {e}", spec.name))?;
    let ours_res = FlowResult {
        report: evaluate(&tree, &ours.tech, &ours.lib),
        runtime_s: t0.elapsed().as_secs_f64(),
    };

    let t0 = Instant::now();
    let tree = com
        .run(&design)
        .map_err(|e| format!("{}: commercial-like flow failed: {e}", spec.name))?;
    let com_res = FlowResult {
        report: evaluate(&tree, &com.tech, &com.lib),
        runtime_s: t0.elapsed().as_secs_f64(),
    };

    let t0 = Instant::now();
    let tree = baseline::open_road_like(&design, &CtsConstraints::paper(), &ours.tech, &ours.lib);
    let or_res = FlowResult {
        report: evaluate(&tree, &ours.tech, &ours.lib),
        runtime_s: t0.elapsed().as_secs_f64(),
    };

    Ok([ours_res, com_res, or_res])
}

/// Builds the Table 6/7 comparison as a [`Table`] (one row per design
/// plus the ratio-average footer), so callers can render it or emit it
/// as JSON.
///
/// # Errors
///
/// Propagates the first flow failure from [`run_three`].
pub fn comparison(specs: &[&DesignSpec]) -> Result<Table, String> {
    let mut table = Table::new(vec![
        "Case",
        "Lat O/C/R (ps)",
        "Skew O/C/R (ps)",
        "#Buf O/C/R",
        "Area O/C/R (µm²)",
        "Cap O/C/R (fF)",
        "WL O/C/R (µm)",
        "Time O/C/R (ms)",
    ]);
    // Ratio accumulators: [metric][flow], normalized to "ours".
    let mut ratios = [[0.0f64; 3]; 7];
    for spec in specs {
        let res = run_three(spec)?;
        let cols: Vec<[f64; 3]> = vec![
            [0, 1, 2].map(|i| res[i].report.max_latency_ps),
            [0, 1, 2].map(|i| res[i].report.skew_ps),
            [0, 1, 2].map(|i| res[i].report.num_buffers as f64),
            [0, 1, 2].map(|i| res[i].report.buffer_area_um2),
            [0, 1, 2].map(|i| res[i].report.clock_cap_ff),
            [0, 1, 2].map(|i| res[i].report.clock_wl_um),
            [0, 1, 2].map(|i| res[i].runtime_s),
        ];
        for (m, col) in cols.iter().enumerate() {
            for f in 0..3 {
                ratios[m][f] += col[f] / col[0].max(1e-12);
            }
        }
        let f1 = |v: [f64; 3]| format!("{:.1}/{:.1}/{:.1}", v[0], v[1], v[2]);
        let f0 = |v: [f64; 3]| format!("{:.0}/{:.0}/{:.0}", v[0], v[1], v[2]);
        table.row(vec![
            spec.name.to_string(),
            f1(cols[0]),
            f1(cols[1]),
            f0(cols[2]),
            f0(cols[3]),
            f0(cols[4]),
            f0(cols[5]),
            f0(cols[6].map(|s| s * 1e3)),
        ]);
    }
    let n = specs.len() as f64;
    let favg = |m: usize| {
        format!(
            "{:.3}/{:.3}/{:.3}",
            ratios[m][0] / n,
            ratios[m][1] / n,
            ratios[m][2] / n
        )
    };
    table.row(vec![
        "Avg.".to_string(),
        favg(0),
        favg(1),
        favg(2),
        favg(3),
        favg(4),
        favg(5),
        favg(6),
    ]);
    Ok(table)
}
