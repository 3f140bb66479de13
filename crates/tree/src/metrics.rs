//! SLLT figures of merit.
//!
//! The paper analyses a rectilinear Steiner tree `T` through three ratios
//! (§2.1):
//!
//! * **shallowness** `α = max_i PL(s_i) / MD(s_i)` — how much longer the
//!   routed source→sink paths are than the Manhattan lower bound; a proxy
//!   for maximum latency,
//! * **lightness** `β = WL(T) / WL(T_ref)` — total wirelength against a
//!   minimum Steiner tree reference; a proxy for load capacitance,
//! * **skewness** `γ = max_i PL(s_i) / mean_i PL(s_i)` (Definition 2.1) —
//!   path-length imbalance; a proxy for skew. `γ = 1` is a zero-skew tree
//!   under the wirelength delay model.
//!
//! An `(ᾱ, β̄, γ̄)`-SLLT (Definition 2.2) is a tree with `α ≤ ᾱ`, `β ≤ β̄`,
//! `γ ≤ γ̄`.

use crate::ClockTree;
use sllt_geom::EPS;

/// Path-length statistics and the three SLLT metrics of one clock tree.
///
/// Produced by [`SlltMetrics::compute`]. The lightness denominator — the
/// wirelength of a reference minimum Steiner tree over the same pins — is
/// supplied by the caller (the paper approximates it with FLUTE; this
/// workspace uses `sllt-route`'s RSMT).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SlltMetrics {
    /// Longest routed source→sink path, µm.
    pub max_path: f64,
    /// Shortest routed source→sink path, µm.
    pub min_path: f64,
    /// Mean routed source→sink path over sinks, µm.
    pub mean_path: f64,
    /// Total routed wirelength, µm.
    pub wirelength: f64,
    /// Shallowness α ≥ 1.
    pub shallowness: f64,
    /// Lightness β (≥ 1 whenever the reference is truly minimal).
    pub lightness: f64,
    /// Skewness γ ≥ 1.
    pub skewness: f64,
}

impl SlltMetrics {
    /// Computes the metrics of `tree` against a reference wirelength
    /// `ref_wl` (the RSMT wirelength of the same pin set).
    ///
    /// Sinks co-located with the source contribute shallowness 1 (their
    /// Manhattan distance is 0 and so must their path be — enforced by
    /// tree validation).
    ///
    /// # Panics
    ///
    /// Panics when the tree has no sinks or `ref_wl` is not positive while
    /// the tree has wire.
    pub fn compute(tree: &ClockTree, ref_wl: f64) -> SlltMetrics {
        let sinks = tree.sinks();
        assert!(!sinks.is_empty(), "metrics of a sinkless tree");
        let pl = tree.path_lengths();
        let src = tree.source_pos();

        let mut max_path = f64::NEG_INFINITY;
        let mut min_path = f64::INFINITY;
        let mut sum_path = 0.0;
        let mut shallowness: f64 = 1.0;
        for &s in &sinks {
            let p = pl[s.index()];
            max_path = max_path.max(p);
            min_path = min_path.min(p);
            sum_path += p;
            let md = src.dist(tree.node(s).pos);
            if md > EPS {
                shallowness = shallowness.max(p / md);
            }
        }
        let mean_path = sum_path / sinks.len() as f64;
        let skewness = if mean_path > EPS {
            max_path / mean_path
        } else {
            1.0
        };
        let wirelength = tree.wirelength();
        let lightness = if wirelength <= EPS {
            1.0
        } else {
            assert!(ref_wl > 0.0, "non-positive reference wirelength {ref_wl}");
            wirelength / ref_wl
        };
        SlltMetrics {
            max_path,
            min_path,
            mean_path,
            wirelength,
            shallowness,
            lightness,
            skewness,
        }
    }

    /// Arithmetic mean of α, β, γ — the "Mean" column of paper Table 1.
    pub fn mean_of_three(&self) -> f64 {
        (self.shallowness + self.lightness + self.skewness) / 3.0
    }

    /// Whether the tree is an `(ᾱ, β̄, γ̄)`-SLLT (Definition 2.2).
    pub fn is_sllt(&self, alpha_bound: f64, beta_bound: f64, gamma_bound: f64) -> bool {
        self.shallowness <= alpha_bound + EPS
            && self.lightness <= beta_bound + EPS
            && self.skewness <= gamma_bound + EPS
    }
}

/// Path-length skew of the tree under the wirelength delay model:
/// `max PL − min PL` over sinks, µm.
pub fn path_length_skew(tree: &ClockTree) -> f64 {
    let sinks = tree.sinks();
    if sinks.is_empty() {
        return 0.0;
    }
    let pl = tree.path_lengths();
    let (mut lo, mut hi) = (f64::INFINITY, f64::NEG_INFINITY);
    for s in sinks {
        let p = pl[s.index()];
        lo = lo.min(p);
        hi = hi.max(p);
    }
    hi - lo
}

#[cfg(test)]
mod tests {
    use super::*;
    use sllt_geom::Point;

    /// Root at origin, two sinks wired straight: PL = MD for both.
    fn star() -> ClockTree {
        let mut t = ClockTree::new(Point::ORIGIN);
        t.add_sink(t.root(), Point::new(10.0, 0.0), 1.0);
        t.add_sink(t.root(), Point::new(0.0, 6.0), 1.0);
        t
    }

    #[test]
    fn star_metrics() {
        let t = star();
        let m = SlltMetrics::compute(&t, 16.0);
        assert!((m.shallowness - 1.0).abs() < 1e-12);
        assert!((m.lightness - 1.0).abs() < 1e-12);
        assert!((m.max_path - 10.0).abs() < 1e-12);
        assert!((m.min_path - 6.0).abs() < 1e-12);
        assert!((m.mean_path - 8.0).abs() < 1e-12);
        assert!((m.skewness - 10.0 / 8.0).abs() < 1e-12);
        assert!((path_length_skew(&t) - 4.0).abs() < 1e-12);
    }

    #[test]
    fn detour_raises_shallowness_and_lowers_skewness() {
        let mut t = star();
        let sinks = t.sinks();
        // Snake the short path out to 10: zero skew, but α grows.
        t.add_detour(sinks[1], 4.0);
        let m = SlltMetrics::compute(&t, 16.0);
        assert!((m.skewness - 1.0).abs() < 1e-12);
        assert!((m.shallowness - 10.0 / 6.0).abs() < 1e-12);
        assert_eq!(path_length_skew(&t), 0.0);
    }

    #[test]
    fn is_sllt_checks_all_three_bounds() {
        let t = star();
        let m = SlltMetrics::compute(&t, 16.0);
        assert!(m.is_sllt(1.0, 1.0, 1.3));
        assert!(!m.is_sllt(1.0, 1.0, 1.1));
        assert!(!m.is_sllt(0.9, 1.0, 1.3));
    }

    #[test]
    fn mean_of_three_matches_table1_convention() {
        let t = star();
        let m = SlltMetrics::compute(&t, 16.0);
        let expect = (m.shallowness + m.lightness + m.skewness) / 3.0;
        assert!((m.mean_of_three() - expect).abs() < 1e-12);
    }

    #[test]
    fn sink_at_source_contributes_unit_shallowness() {
        let mut t = ClockTree::new(Point::ORIGIN);
        t.add_sink(t.root(), Point::ORIGIN, 1.0);
        t.add_sink(t.root(), Point::new(5.0, 0.0), 1.0);
        let m = SlltMetrics::compute(&t, 5.0);
        assert!(m.shallowness >= 1.0);
        assert!(m.shallowness.is_finite());
    }

    #[test]
    #[should_panic(expected = "sinkless")]
    fn metrics_require_sinks() {
        let t = ClockTree::new(Point::ORIGIN);
        let _ = SlltMetrics::compute(&t, 1.0);
    }

    #[test]
    #[cfg(feature = "proptest")]
    fn proptest_metric_invariants() {
        use proptest::prelude::*;
        use sllt_rng::prelude::*;
        proptest!(|(seed in 0u64..500, n in 2usize..20)| {
            // Random star trees: the invariants α ≥ 1, γ ≥ 1 always hold.
            let mut rng = StdRng::seed_from_u64(seed);
            let mut t = ClockTree::new(Point::ORIGIN);
            for _ in 0..n {
                let p = Point::new(rng.random_range(-50.0..50.0), rng.random_range(-50.0..50.0));
                let id = t.add_sink(t.root(), p, 1.0);
                if rng.random_bool(0.5) {
                    t.add_detour(id, rng.random_range(0.0..20.0));
                }
            }
            let wl = t.wirelength();
            let m = SlltMetrics::compute(&t, wl); // self-reference: β = 1
            prop_assert!(m.shallowness >= 1.0 - 1e-9);
            prop_assert!(m.skewness >= 1.0 - 1e-9);
            prop_assert!((m.lightness - 1.0).abs() < 1e-9);
            prop_assert!(m.min_path <= m.mean_path + 1e-9);
            prop_assert!(m.mean_path <= m.max_path + 1e-9);
        });
    }
}
