//! The degradation ladder — bounded, deterministic level-failure
//! recovery.
//!
//! When a level fails with a recoverable error (an infeasible skew
//! merge, a panicked routing worker, an injected fault — see
//! [`CtsError::is_recoverable`](crate::error::CtsError::is_recoverable))
//! and [`HierarchicalCts::recovery`](crate::flow::HierarchicalCts::recovery)
//! is set, the flow retries the level under a relaxed configuration
//! instead of aborting the whole run. The retry sequence is one fixed
//! *ladder*:
//!
//! 1. the original configuration (attempt 0),
//! 2. the per-level skew bound relaxed ×1.5, ×2, ×4 (each retry
//!    multiplies the *original* bound),
//! 3. at ×4, simpler topologies in the fixed fallback order
//!    **Cbs → Bst → Rsmt** (each rung keeps skew control where the
//!    topology still has any).
//!
//! The ladder is deterministic: it is a pure function of the configured
//! topology, and a recovered run is bit-identical at any worker count.
//! Every rung actually climbed is recorded as a [`Downgrade`] in the
//! level's [`LevelReport`](crate::report::LevelReport) and the telemetry
//! run record, so silent quality loss is impossible.

use crate::flow::TopologyKind;

/// Skew-bound multipliers of the relaxation rungs, in climbing order.
const SKEW_RELAX: [f64; 3] = [1.5, 2.0, 4.0];

/// The attempt sequence for one level under `topology`: attempt 0 is
/// always the identity step, and without `recovery` it is the only one.
pub(crate) fn ladder(recovery: bool, topology: TopologyKind) -> Vec<LadderStep> {
    let mut steps = vec![LadderStep {
        skew_factor: 1.0,
        topology: None,
    }];
    if !recovery {
        return steps;
    }
    steps.extend(SKEW_RELAX.map(|skew_factor| LadderStep {
        skew_factor,
        topology: None,
    }));
    let fallback = match topology {
        TopologyKind::Cbs { scheme } => vec![TopologyKind::Bst { scheme }, TopologyKind::Rsmt],
        TopologyKind::Bst { .. } => vec![TopologyKind::Rsmt],
        // RSMT cannot fail a skew merge: there is nothing simpler.
        TopologyKind::Rsmt => Vec::new(),
    };
    steps.extend(fallback.into_iter().map(|t| LadderStep {
        skew_factor: SKEW_RELAX[SKEW_RELAX.len() - 1],
        topology: Some(t),
    }));
    steps
}

/// One rung of the ladder: what attempt `n` changes relative to the
/// original configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct LadderStep {
    /// Multiplier applied to the configured skew bound.
    pub skew_factor: f64,
    /// Topology override, when this rung falls back.
    pub topology: Option<TopologyKind>,
}

/// One recorded rung climb: why the flow downgraded and to what. Carried
/// in [`LevelReport::downgrades`](crate::report::LevelReport::downgrades)
/// and the telemetry run record.
#[derive(Debug, Clone, PartialEq)]
pub struct Downgrade {
    /// The attempt this downgrade led into (1 = first retry).
    pub attempt: usize,
    /// Skew-bound multiplier in effect for that attempt.
    pub skew_factor: f64,
    /// Topology fallen back to, when the rung switches topology.
    pub topology: Option<&'static str>,
    /// Display form of the error that triggered the retry.
    pub trigger: String,
}

#[cfg(test)]
mod tests {
    use super::*;
    use sllt_route::TopologyScheme;

    fn cbs() -> TopologyKind {
        TopologyKind::Cbs {
            scheme: TopologyScheme::GreedyDist,
        }
    }

    #[test]
    fn without_recovery_the_ladder_is_only_the_identity_step() {
        let steps = ladder(false, cbs());
        assert_eq!(steps.len(), 1);
        assert_eq!(steps[0].skew_factor, 1.0);
        assert_eq!(steps[0].topology, None);
    }

    #[test]
    fn the_ladder_relaxes_then_falls_back() {
        let steps = ladder(true, cbs());
        // identity, 1.5, 2, 4, Bst@4, Rsmt@4
        assert_eq!(steps.len(), 6);
        assert_eq!(steps[1].skew_factor, 1.5);
        assert_eq!(steps[3].skew_factor, 4.0);
        assert!(matches!(steps[4].topology, Some(TopologyKind::Bst { .. })));
        assert_eq!(steps[4].skew_factor, 4.0);
        assert_eq!(steps[5].topology, Some(TopologyKind::Rsmt));
    }

    #[test]
    fn rsmt_has_no_fallback_rungs() {
        let steps = ladder(true, TopologyKind::Rsmt);
        assert_eq!(steps.len(), 4); // identity + three relaxations
        assert!(steps.iter().all(|s| s.topology.is_none()));
    }

    #[test]
    fn ladder_is_deterministic() {
        assert_eq!(ladder(true, cbs()), ladder(true, cbs()));
    }
}
