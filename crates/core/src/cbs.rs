//! CBS — Concurrent BST and SALT (paper §2.3, Fig. 2).
//!
//! The five steps:
//!
//! 1. **Initial BST** — a bounded-skew DME tree over one of the four
//!    candidate merge orders gives the *initial SLLT* (iSLLT): skew-legal
//!    but heavy and deep.
//! 2. **Extract** — take its topology, eliminating redundant Steiner
//!    nodes; detour wire is dropped (only the connection structure feeds
//!    the next step).
//! 3. **SALT relaxation** — paths longer than `(1 + ε)·MD` are shortcut
//!    toward the source. This shortens the long paths (shallowness,
//!    lightness) but "breaks the skew legitimacy".
//! 4. **Normalize** — make the tree binary and push internal load pins to
//!    leaves, then extract the merge order again.
//! 5. **Re-embed** — run BST-DME over the SALT-shaped merge order: the
//!    embedding restores the skew bound while the topology keeps the tree
//!    close to the SALT result.
//!
//! Each step is exposed as a function so ablations and the CBS flow
//! diagrams can exercise them independently.

use sllt_route::dme::{DelayModel, DmeOptions};
use sllt_route::salt::salt_from_tree;
use sllt_route::topogen::TopologyScheme;
use sllt_tree::{edits, ClockNet, ClockTree, Topology};

/// Parameters of the CBS construction.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CbsConfig {
    /// Merge order used by the BST steps (1 and 5). The greedy schemes
    /// run on `sllt-route`'s nearest-pair engine (~O(n log n)), so any
    /// scheme here is usable at production sink counts.
    pub scheme: TopologyScheme,
    /// Bounded-skew target: µm of path length under
    /// [`DelayModel::PathLength`], ps under [`DelayModel::Elmore`].
    pub skew_bound: f64,
    /// SALT shallowness budget ε for step 3.
    pub eps: f64,
    /// Delay model used by the BST steps.
    pub model: DelayModel,
}

impl Default for CbsConfig {
    /// Greedy-Dist order, 20 µm path-length skew bound, ε = 0.2.
    fn default() -> Self {
        CbsConfig {
            scheme: TopologyScheme::GreedyDist,
            skew_bound: 20.0,
            eps: 0.2,
            model: DelayModel::PathLength,
        }
    }
}

impl CbsConfig {
    /// The [`DmeOptions`] for this configuration.
    pub fn dme_options(&self) -> DmeOptions {
        DmeOptions {
            skew_bound: self.skew_bound,
            model: self.model,
        }
    }
}

/// Runs the full five-step CBS pipeline.
///
/// The result is a bounded-skew tree (`path-length skew ≤
/// cfg.skew_bound_um`) whose shallowness and lightness approach the SALT
/// tree's.
///
/// # Panics
///
/// Panics when the net is sinkless, or when the config carries a negative
/// skew bound or ε.
pub fn cbs(net: &ClockNet, cfg: &CbsConfig) -> ClockTree {
    try_cbs_intervals(net, cfg, &vec![(0.0, 0.0); net.len()]).unwrap_or_else(|e| panic!("{e}"))
}

/// Fallible [`cbs`] with per-sink delay *intervals* `(fastest, slowest)`:
/// the spread already inside the subtree each sink stands for (a
/// lower-level subtree in hierarchical CTS). The skew bound applies to
/// interval + in-tree delay, and interval widths must not exceed it.
///
/// Input degeneracies (sinkless nets, non-finite geometry, intervals
/// wider than the skew bound, diverging detour searches) surface as a
/// typed [`DmeError`](sllt_route::DmeError) instead of a panic. The
/// hierarchical flow's degradation ladder relies on this to retry a
/// failed cluster with a relaxed bound or a lighter topology.
///
/// # Errors
///
/// Every error [`sllt_route::try_dme_intervals`] reports, from either
/// BST step (1 or 5).
pub fn try_cbs_intervals(
    net: &ClockNet,
    cfg: &CbsConfig,
    intervals: &[(f64, f64)],
) -> Result<ClockTree, sllt_route::DmeError> {
    if intervals.len() != net.len() {
        return Err(sllt_route::DmeError::IntervalCountMismatch {
            intervals: intervals.len(),
            sinks: net.len(),
        });
    }
    let isllt = try_step1_initial_bst_intervals(net, cfg, intervals)?;
    let relaxed = step3_salt_relax(net, isllt, cfg.eps);
    let (normalized, topo) = step4_normalize_and_extract(relaxed);
    try_step5_restore_skew_intervals(net, normalized, &topo, cfg, intervals)
}

/// Step 1: the initial bounded-skew tree (iSLLT) over the configured
/// merge order.
///
/// Scales to production nets: topology generation is nearest-pair
/// accelerated, and DME builds over the flat merge order in one forward
/// loop and embeds it with an explicit stack, so even the degenerate
/// deep-chain merge orders greedy schemes produce on collinear sinks run
/// within the default thread stack.
pub fn step1_initial_bst(net: &ClockNet, cfg: &CbsConfig) -> ClockTree {
    assert!(!net.is_empty(), "CBS over a sinkless net");
    try_step1_initial_bst_intervals(net, cfg, &vec![(0.0, 0.0); net.len()])
        .unwrap_or_else(|e| panic!("{e}"))
}

/// Fallible [`step1_initial_bst`] with per-sink delay intervals.
///
/// # Errors
///
/// Every error [`sllt_route::try_dme_intervals`] reports.
fn try_step1_initial_bst_intervals(
    net: &ClockNet,
    cfg: &CbsConfig,
    intervals: &[(f64, f64)],
) -> Result<ClockTree, sllt_route::DmeError> {
    if net.is_empty() {
        return Err(sllt_route::DmeError::SinklessNet);
    }
    let topo = cfg.scheme.build(net);
    sllt_route::try_dme_intervals(net, &topo, &cfg.dme_options(), intervals)
}

/// Steps 2 + 3: strip the iSLLT down to its connection structure
/// (redundant Steiner nodes out, detour wire dropped) and apply the SALT
/// relaxation with budget `eps`.
pub fn step3_salt_relax(net: &ClockNet, mut tree: ClockTree, eps: f64) -> ClockTree {
    edits::eliminate_redundant_steiner(&mut tree);
    strip_detours(&mut tree);
    let relaxed = salt_from_tree(net, tree, eps);
    // The BST's merging-region embedding can leave connectivity that no
    // amount of local refinement makes light (its Steiner points are
    // balance points, not wiring-optimal ones). A fresh RSMT-seeded SALT
    // over the same net has the same shallowness guarantee; take the
    // lighter of the two so the relaxation truly reaches SALT quality —
    // the property steps 4–5 rely on ("closely approximate the result by
    // SALT"). See DESIGN.md for this deviation from the literal step
    // order.
    let fresh = sllt_route::salt(net, eps);
    if fresh.wirelength() < relaxed.wirelength() {
        fresh
    } else {
        relaxed
    }
}

/// Step 4: normalize (binary tree, load pins as leaves) and extract the
/// merge order — *hinted* with the SALT Steiner positions — for the
/// re-embedding.
pub fn step4_normalize_and_extract(mut tree: ClockTree) -> (ClockTree, Topology) {
    edits::eliminate_redundant_steiner(&mut tree);
    edits::sinks_to_leaves(&mut tree);
    edits::binarize(&mut tree);
    let topo = Topology::from_tree(&tree).expect("normalized CBS tree has sinks");
    (tree, topo)
}

/// Step 5: restore the skew bound over the SALT-shaped tree, two ways,
/// and keep the lighter result ("the BST is conducted on the tree
/// topology of Step 4 ... the obtained result closely approximates the
/// result by SALT"):
///
/// * **skew legalization** — keep the SALT geometry and snake detour wire
///   onto fast subtrees' top edges (cheap when the natural skew is near
///   the bound),
/// * **hinted BST-DME re-embedding** — rebuild positions from merging
///   regions biased toward the SALT Steiner points (wins when the bound
///   is stringent and real rebalancing is needed).
pub fn step5_restore_skew(
    net: &ClockNet,
    normalized: ClockTree,
    topo: &Topology,
    cfg: &CbsConfig,
) -> ClockTree {
    try_step5_restore_skew_intervals(net, normalized, topo, cfg, &vec![(0.0, 0.0); net.len()])
        .unwrap_or_else(|e| panic!("{e}"))
}

/// Fallible [`step5_restore_skew`] with per-sink delay intervals.
///
/// # Errors
///
/// Every error [`sllt_route::try_dme_intervals`] reports for the
/// re-embedding path.
fn try_step5_restore_skew_intervals(
    net: &ClockNet,
    normalized: ClockTree,
    topo: &Topology,
    cfg: &CbsConfig,
    intervals: &[(f64, f64)],
) -> Result<ClockTree, sllt_route::DmeError> {
    let zero_offsets = intervals.iter().all(|&(l, h)| l == 0.0 && h == 0.0);
    // Path A: legalize the SALT geometry in place.
    let mut legal = normalized;
    sllt_route::skew_legalize_intervals(&mut legal, &cfg.model, cfg.skew_bound, intervals);
    edits::eliminate_redundant_steiner(&mut legal);

    // Path B: DME re-embedding with SALT hints.
    let mut reembed = sllt_route::try_dme_intervals(net, topo, &cfg.dme_options(), intervals)?;
    edits::eliminate_redundant_steiner(&mut reembed);
    // A Steinerization pass recovers overlap wire the committed-split
    // embedding left on the table; it can only shorten paths, so keep it
    // only when the skew bound survives. (skew_of knows nothing about
    // offsets, so the refinement is skipped in offset mode.)
    if zero_offsets {
        let mut refined = reembed.clone();
        sllt_route::rsmt::steinerize(&mut refined);
        edits::eliminate_redundant_steiner(&mut refined);
        let (legal_wl, refined_wl) = (legal.wirelength(), refined.wirelength());
        // legal ≤ refined ≤ reembed: the legalized tree wins whichever
        // of the two the skew check would keep, so skip the check.
        if legal_wl <= refined_wl && refined_wl <= reembed.wirelength() {
            return Ok(legal);
        }
        if sllt_route::skew_of(&refined, &cfg.model) <= cfg.skew_bound + 1e-9 {
            reembed = refined;
        }
    }

    Ok(if legal.wirelength() <= reembed.wirelength() {
        legal
    } else {
        reembed
    })
}

/// Step 5 as it was before the skew check learned to skip candidates
/// that have already lost: the oracle [`try_cbs_intervals`] must equal.
/// Also reports whether the skip applies (legal ≤ refined ≤ reembed).
#[cfg(test)]
fn restore_skew_always_checking(
    net: &ClockNet,
    mut legal: ClockTree,
    topo: &Topology,
    cfg: &CbsConfig,
) -> (ClockTree, bool) {
    let zero = vec![(0.0, 0.0); net.len()];
    sllt_route::skew_legalize_intervals(&mut legal, &cfg.model, cfg.skew_bound, &zero);
    edits::eliminate_redundant_steiner(&mut legal);
    let mut reembed = sllt_route::try_dme_intervals(net, topo, &cfg.dme_options(), &zero).unwrap();
    edits::eliminate_redundant_steiner(&mut reembed);
    let mut refined = reembed.clone();
    sllt_route::rsmt::steinerize(&mut refined);
    edits::eliminate_redundant_steiner(&mut refined);
    let skippable =
        legal.wirelength() <= refined.wirelength() && refined.wirelength() <= reembed.wirelength();
    if sllt_route::skew_of(&refined, &cfg.model) <= cfg.skew_bound + 1e-9 {
        reembed = refined;
    }
    let tree = if legal.wirelength() <= reembed.wirelength() {
        legal
    } else {
        reembed
    };
    (tree, skippable)
}

/// Resets every edge to its plain Manhattan length, discarding detour
/// (snaking) wire. Used when only the connection structure should carry
/// over to the next phase.
fn strip_detours(tree: &mut ClockTree) {
    let ids: Vec<_> = tree.node_ids().collect();
    for id in ids {
        if tree.node(id).parent().is_some() {
            let p = tree.node(id).parent().expect("checked");
            let d = tree.node(p).pos.dist(tree.node(id).pos);
            tree.set_edge_len(id, d);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::analyze;
    use sllt_geom::Point;
    use sllt_rng::prelude::*;
    use sllt_route::{rsmt::rsmt_wirelength, salt::salt};
    use sllt_tree::{metrics::path_length_skew, Sink};

    fn random_net(seed: u64, n: usize) -> ClockNet {
        let mut rng = StdRng::seed_from_u64(seed);
        ClockNet::new(
            Point::new(37.5, 37.5),
            (0..n)
                .map(|_| {
                    Sink::new(
                        Point::new(rng.random_range(0.0..75.0), rng.random_range(0.0..75.0)),
                        1.0,
                    )
                })
                .collect(),
        )
    }

    #[test]
    fn cbs_respects_the_skew_bound() {
        for seed in 0..10 {
            let net = random_net(seed, 25);
            for bound in [5.0, 20.0, 80.0] {
                for scheme in TopologyScheme::ALL {
                    let cfg = CbsConfig {
                        scheme,
                        skew_bound: bound,
                        ..CbsConfig::default()
                    };
                    let t = cbs(&net, &cfg);
                    t.validate().unwrap();
                    assert_eq!(t.sinks().len(), 25);
                    let skew = path_length_skew(&t);
                    assert!(
                        skew <= bound + 1e-6,
                        "{scheme} seed {seed} bound {bound}: skew {skew}"
                    );
                }
            }
        }
    }

    #[test]
    fn skipping_the_lost_skew_check_changes_no_tree() {
        let (mut skipped, mut checked) = (0, 0);
        for seed in 0..12 {
            let net = random_net(seed + 900, 8 + 2 * seed as usize);
            for scheme in TopologyScheme::ALL {
                for bound in [5.0, 20.0, 80.0] {
                    for model in [
                        DelayModel::PathLength,
                        DelayModel::Elmore(sllt_timing::Technology::n28()),
                    ] {
                        let cfg = CbsConfig {
                            scheme,
                            skew_bound: bound,
                            model,
                            ..CbsConfig::default()
                        };
                        let zero = vec![(0.0, 0.0); net.len()];
                        let fast = try_cbs_intervals(&net, &cfg, &zero).unwrap();
                        let isllt = step1_initial_bst(&net, &cfg);
                        let relaxed = step3_salt_relax(&net, isllt, cfg.eps);
                        let (normalized, topo) = step4_normalize_and_extract(relaxed);
                        let (want, skippable) =
                            restore_skew_always_checking(&net, normalized, &topo, &cfg);
                        assert!(fast == want, "{scheme} seed {seed} bound {bound}");
                        checked += 1;
                        skipped += usize::from(skippable);
                    }
                }
            }
        }
        // Both paths ran: the skip and the full check.
        assert!(
            0 < skipped && skipped < checked,
            "{skipped} of {checked} skipped"
        );
    }

    #[test]
    fn cbs_is_lighter_than_plain_bst() {
        // Paper Table 3: CBS reduces BST-DME wirelength by ~16 %.
        let (mut cbs_wl, mut bst_wl) = (0.0, 0.0);
        for seed in 0..25 {
            let net = random_net(seed + 100, 25);
            let cfg = CbsConfig {
                skew_bound: 30.0,
                ..CbsConfig::default()
            };
            cbs_wl += cbs(&net, &cfg).wirelength();
            bst_wl += step1_initial_bst(&net, &cfg).wirelength();
        }
        assert!(
            cbs_wl < bst_wl * 0.97,
            "CBS {cbs_wl:.1} should clearly beat BST {bst_wl:.1}"
        );
    }

    #[test]
    fn cbs_approaches_salt_at_relaxed_skew() {
        // With a relaxed bound CBS should land near the SALT wirelength
        // (paper Table 2: CBS ≤ R-SALT at 80 ps).
        let mut ratio_sum = 0.0;
        let runs = 15;
        for seed in 0..runs {
            let net = random_net(seed + 300, 25);
            let cfg = CbsConfig {
                skew_bound: 300.0, // effectively unconstrained
                ..CbsConfig::default()
            };
            let c = cbs(&net, &cfg).wirelength();
            let s = salt(&net, cfg.eps).wirelength();
            ratio_sum += c / s;
        }
        let mean_ratio = ratio_sum / runs as f64;
        assert!(
            mean_ratio < 1.15,
            "CBS/SALT wirelength ratio at relaxed skew: {mean_ratio:.3}"
        );
    }

    #[test]
    fn cbs_shallowness_beats_initial_bst() {
        let mut cbs_max_pl = 0.0;
        let mut bst_max_pl = 0.0;
        for seed in 0..40 {
            let net = random_net(seed + 700, 25);
            let cfg = CbsConfig {
                skew_bound: 40.0,
                eps: 0.05,
                ..CbsConfig::default()
            };
            let ref_wl = rsmt_wirelength(&net);
            let _ = ref_wl;
            cbs_max_pl += analyze(&net, &cbs(&net, &cfg)).metrics.max_path;
            bst_max_pl += analyze(&net, &step1_initial_bst(&net, &cfg))
                .metrics
                .max_path;
        }
        assert!(
            cbs_max_pl < bst_max_pl,
            "CBS max path {cbs_max_pl:.1} vs BST {bst_max_pl:.1}"
        );
    }

    #[test]
    fn step_functions_compose_to_cbs() {
        let net = random_net(9, 20);
        let cfg = CbsConfig::default();
        let t1 = step1_initial_bst(&net, &cfg);
        let t3 = step3_salt_relax(&net, t1, cfg.eps);
        let (norm, topo) = step4_normalize_and_extract(t3);
        let t5 = step5_restore_skew(&net, norm, &topo, &cfg);
        let direct = cbs(&net, &cfg);
        assert!((t5.wirelength() - direct.wirelength()).abs() < 1e-9);
    }

    #[test]
    fn single_sink_net() {
        let net = ClockNet::new(Point::ORIGIN, vec![Sink::new(Point::new(5.0, 5.0), 1.0)]);
        let t = cbs(&net, &CbsConfig::default());
        assert_eq!(t.sinks().len(), 1);
        assert!((t.wirelength() - 10.0).abs() < 1e-9);
    }

    #[test]
    #[cfg(feature = "proptest")]
    fn proptest_cbs_invariants() {
        use proptest::prelude::*;
        proptest!(|(seed in 0u64..100, n in 2usize..18, bound in 1f64..100.0)| {
            let net = random_net(seed + 5000, n);
            let cfg = CbsConfig { skew_bound: bound, ..CbsConfig::default() };
            let t = cbs(&net, &cfg);
            prop_assert!(t.validate().is_ok());
            prop_assert_eq!(t.sinks().len(), n);
            prop_assert!(path_length_skew(&t) <= bound + 1e-6);
        });
    }
}
