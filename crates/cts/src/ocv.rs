//! On-chip-variation (OCV) robustness analysis.
//!
//! The paper's opening motivation: "due to the adverse effects of on-chip
//! variation, conventional CTS that focuses solely on skew is inadequate"
//! — a tree with perfect nominal skew but long, deeply-buffered paths
//! diverges under variation, because every wire segment and buffer stage
//! contributes independent delay noise. Short/shallow trees (small α,
//! fewer stages) are intrinsically more robust, which is exactly what the
//! SLLT objectives buy beyond the nominal numbers.
//!
//! This module runs Monte-Carlo timing over a buffered tree: each trial
//! draws independent multiplicative perturbations per wire segment (RC)
//! and per buffer instance (delay), re-propagates latencies, and records
//! the skew. [`ocv_analysis`] summarizes the distribution.

use sllt_buffer::timing::{propagate, Stage, Timing};
use sllt_rng::prelude::*;
use sllt_timing::{BufferLibrary, Technology};
use sllt_tree::ClockTree;

/// Variation magnitudes (1σ, relative) for the Monte-Carlo trials.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OcvModel {
    /// Per-wire-segment RC variation, e.g. 0.08 = 8 % sigma.
    pub wire_sigma: f64,
    /// Per-buffer-instance delay variation.
    pub buffer_sigma: f64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for OcvModel {
    /// 8 % wire and 5 % buffer sigma — typical derate magnitudes quoted
    /// for 28 nm OCV analysis.
    fn default() -> Self {
        OcvModel {
            wire_sigma: 0.08,
            buffer_sigma: 0.05,
            seed: 0x0C0F,
        }
    }
}

/// Distribution summary of Monte-Carlo skew.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OcvReport {
    /// Skew with no variation, ps.
    pub nominal_skew_ps: f64,
    /// Mean skew over trials, ps.
    pub mean_skew_ps: f64,
    /// 95th-percentile skew, ps.
    pub p95_skew_ps: f64,
    /// Worst skew seen, ps.
    pub max_skew_ps: f64,
    /// Mean of the max-latency distribution, ps.
    pub mean_latency_ps: f64,
    /// Number of trials run.
    pub trials: usize,
}

/// Runs `trials` Monte-Carlo timing trials over the tree.
///
/// # Panics
///
/// Panics when the tree has no sinks, `trials` is zero, or a sigma is
/// negative.
pub fn ocv_analysis(
    tree: &ClockTree,
    tech: &Technology,
    lib: &BufferLibrary,
    model: &OcvModel,
    trials: usize,
) -> OcvReport {
    assert!(trials > 0, "at least one trial");
    assert!(
        model.wire_sigma >= 0.0 && model.buffer_sigma >= 0.0,
        "negative sigma"
    );
    let mut rng = StdRng::seed_from_u64(model.seed);
    let nominal = trial_with_rng(tree, tech, lib, &mut rng, 0.0, 0.0);

    let mut skews = Vec::with_capacity(trials);
    let mut latency_sum = 0.0;
    for _ in 0..trials {
        let t = trial_with_rng(
            tree,
            tech,
            lib,
            &mut rng,
            model.wire_sigma,
            model.buffer_sigma,
        );
        skews.push(t.0 - t.1);
        latency_sum += t.0;
    }
    skews.sort_by(f64::total_cmp);
    let mean = skews.iter().sum::<f64>() / trials as f64;
    let p95 = skews[((trials as f64 * 0.95) as usize).min(trials - 1)];
    OcvReport {
        nominal_skew_ps: nominal.0 - nominal.1,
        mean_skew_ps: mean,
        p95_skew_ps: p95,
        max_skew_ps: *skews.last().expect("trials > 0"),
        mean_latency_ps: latency_sum / trials as f64,
        trials,
    }
}

/// Graph-based OCV derate skew (the CPPR view): the worst pessimistic
/// skew when every pair of paths has its *non-common* segments derated
/// `+derate` on the late path and `−derate` on the early one. The common
/// path from the source to the divergence point cancels.
///
/// For sinks `i`, `j` diverging at node `v`:
///
/// ```text
/// skew(i, j) = (D_i − D_j) + derate·(D_i + D_j − 2·D_v)
/// ```
///
/// Short paths and late divergence (long common trunks) minimize it —
/// exactly the shallowness the SLLT objectives buy. Computed in O(n) by
/// tracking, per node, the extreme derated path terms over its subtree.
///
/// # Panics
///
/// Panics when the tree has no sinks or `derate` is negative.
pub fn derate_skew(tree: &ClockTree, tech: &Technology, lib: &BufferLibrary, derate: f64) -> f64 {
    assert!(derate >= 0.0, "negative derate");
    let sinks = tree.sinks();
    assert!(!sinks.is_empty(), "OCV analysis of a sinkless tree");
    let Timing { order, delay, .. } = propagate(tree, tech, lib, |_| 1.0);

    // Per node: max of (1+derate)·D_i and min of (1−derate)·D_j over
    // sinks below.
    let n_slots = tree.arena_len();
    let mut late = vec![f64::NEG_INFINITY; n_slots];
    let mut early = vec![f64::INFINITY; n_slots];
    let mut worst = 0.0f64;
    for &v in order.iter().rev() {
        let node = tree.node(v);
        if node.kind.is_sink() {
            late[v.index()] = (1.0 + derate) * delay[v.index()];
            early[v.index()] = (1.0 - derate) * delay[v.index()];
        }
        // Combine children pairwise: any two distinct children of `v`
        // diverge exactly at `v`.
        let mut best_late = late[v.index()];
        let mut best_early = early[v.index()];
        for c in node.children() {
            if late[c.index()] > f64::NEG_INFINITY && best_early < f64::INFINITY {
                worst = worst.max(late[c.index()] - best_early - 2.0 * derate * delay[v.index()]);
            }
            if early[c.index()] < f64::INFINITY && best_late > f64::NEG_INFINITY {
                worst = worst.max(best_late - early[c.index()] - 2.0 * derate * delay[v.index()]);
            }
            best_late = best_late.max(late[c.index()]);
            best_early = best_early.min(early[c.index()]);
        }
        late[v.index()] = best_late;
        early[v.index()] = best_early;
    }
    worst
}

/// Standard normal deviate (Box–Muller).
fn gauss(rng: &mut StdRng) -> f64 {
    let u1: f64 = rng.random_range(1e-12..1.0);
    let u2: f64 = rng.random();
    (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
}

/// One perturbed timing propagation (sigma 0 = nominal). Returns
/// `(max, min)` sink latency in ps.
fn trial_with_rng(
    tree: &ClockTree,
    tech: &Technology,
    lib: &BufferLibrary,
    rng: &mut StdRng,
    wire_sigma: f64,
    buffer_sigma: f64,
) -> (f64, f64) {
    let sinks = tree.sinks();
    assert!(!sinks.is_empty(), "OCV analysis of a sinkless tree");
    let t = propagate(tree, tech, lib, |stage| {
        let sigma = match stage {
            Stage::Wire => wire_sigma,
            Stage::Buffer => buffer_sigma,
        };
        if sigma > 0.0 {
            (1.0 + sigma * gauss(rng)).max(0.2)
        } else {
            1.0
        }
    });
    let mut max_l = f64::NEG_INFINITY;
    let mut min_l = f64::INFINITY;
    for &s in &sinks {
        max_l = max_l.max(t.delay[s.index()]);
        min_l = min_l.min(t.delay[s.index()]);
    }
    (max_l, min_l)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{baseline, constraints::CtsConstraints, flow::HierarchicalCts};
    use sllt_design::DesignSpec;

    #[test]
    fn zero_sigma_matches_nominal() {
        let design = DesignSpec::by_name("s35932").unwrap().instantiate();
        let cts = HierarchicalCts::default();
        let tree = cts.run(&design).unwrap();
        let r = ocv_analysis(
            &tree,
            &cts.tech,
            &cts.lib,
            &OcvModel {
                wire_sigma: 0.0,
                buffer_sigma: 0.0,
                seed: 1,
            },
            5,
        );
        assert!((r.mean_skew_ps - r.nominal_skew_ps).abs() < 1e-9);
        assert!((r.max_skew_ps - r.nominal_skew_ps).abs() < 1e-9);
    }

    #[test]
    fn variation_widens_skew() {
        let design = DesignSpec::by_name("s35932").unwrap().instantiate();
        let cts = HierarchicalCts::default();
        let tree = cts.run(&design).unwrap();
        let r = ocv_analysis(&tree, &cts.tech, &cts.lib, &OcvModel::default(), 50);
        assert!(r.mean_skew_ps > 0.0);
        assert!(r.p95_skew_ps >= r.mean_skew_ps);
        assert!(r.max_skew_ps >= r.p95_skew_ps);
    }

    #[test]
    fn derate_skew_zero_matches_nominal_skew() {
        let design = DesignSpec::by_name("s35932").unwrap().instantiate();
        let cts = HierarchicalCts::default();
        let tree = cts.run(&design).unwrap();
        let nominal = crate::eval::evaluate(&tree, &cts.tech, &cts.lib).skew_ps;
        let d0 = derate_skew(&tree, &cts.tech, &cts.lib, 0.0);
        assert!((d0 - nominal).abs() < 1e-6, "{d0} vs {nominal}");
        // Derating can only widen it, monotonically.
        let d5 = derate_skew(&tree, &cts.tech, &cts.lib, 0.05);
        let d10 = derate_skew(&tree, &cts.tech, &cts.lib, 0.10);
        assert!(d5 >= d0 && d10 >= d5);
    }

    #[test]
    fn shallow_trees_are_more_robust_under_derates() {
        // The paper's motivation, measured with the graph-based (CPPR)
        // derate model: short paths and late divergence — what the SLLT
        // objectives buy — shrink the derate-induced skew *growth*
        // relative to the deeply structural baseline.
        let design = DesignSpec::by_name("s38584").unwrap().instantiate();
        let cts = HierarchicalCts::default();
        let ours = cts.run(&design).unwrap();
        let or_tree =
            baseline::open_road_like(&design, &CtsConstraints::paper(), &cts.tech, &cts.lib);
        let derate = 0.08;
        let growth_ours = derate_skew(&ours, &cts.tech, &cts.lib, derate)
            - derate_skew(&ours, &cts.tech, &cts.lib, 0.0);
        let growth_or = derate_skew(&or_tree, &cts.tech, &cts.lib, derate)
            - derate_skew(&or_tree, &cts.tech, &cts.lib, 0.0);
        assert!(
            growth_ours < growth_or,
            "ours +{growth_ours:.1} ps vs openroad-like +{growth_or:.1} ps"
        );
    }

    #[test]
    #[should_panic(expected = "at least one trial")]
    fn zero_trials_rejected() {
        let design = DesignSpec::by_name("s35932").unwrap().instantiate();
        let cts = HierarchicalCts::default();
        let tree = cts.run(&design).unwrap();
        let _ = ocv_analysis(&tree, &cts.tech, &cts.lib, &OcvModel::default(), 0);
    }
}
