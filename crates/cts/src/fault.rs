//! Deterministic fault injection for exercising the recovery machinery.
//!
//! A [`FaultPlan`] attaches to a run through
//! [`RunContext::faults`](crate::flow::RunContext::faults) and makes a
//! chosen stage fail at a chosen level (and cluster) — as a typed
//! [`CtsError::InjectedFault`] or, in the route stage, as a real
//! `panic!` that the worker's containment must catch. Every stage makes
//! the same one call, [`FaultPlan::check`]. The plan is *stateless*: whether a fault
//! fires is a pure function of `(stage, level, cluster, attempt)`, so no
//! atomics are needed, parallel workers cannot race on it, and runs stay
//! bit-identical at any worker count.
//!
//! By default a fault fires only on attempt 0
//! ([`max_attempt`](StageFault::max_attempt) = 1): the degradation
//! ladder's first retry runs clean, which is exactly the "transient
//! failure, bounded recovery" scenario the fault suite asserts. Raising
//! `max_attempt` past the ladder length makes the fault permanent and
//! drives the ladder to
//! [`LadderExhausted`](crate::error::CtsError::LadderExhausted).
//!
//! An empty plan (the default) injects nothing and costs one scan of an
//! empty `Vec` per stage.

use crate::error::CtsError;

/// Which stage a fault targets.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultStage {
    /// Level partitioning (balanced K-means + SA).
    Partition,
    /// Per-cluster routing — the parallel stage; the only stage where
    /// [`FaultKind::Panic`] is contained and therefore meaningful.
    Route,
    /// Joint driver sizing.
    Sizing,
}

impl FaultStage {
    /// Stage name as carried in [`CtsError::InjectedFault`].
    pub fn name(self) -> &'static str {
        match self {
            FaultStage::Partition => "partition",
            FaultStage::Route => "route",
            FaultStage::Sizing => "sizing",
        }
    }
}

/// How an injected fault manifests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// The stage returns [`CtsError::InjectedFault`].
    Error,
    /// The stage panics (`panic!`). Only the route stage contains
    /// panics; injecting this elsewhere aborts the run, which is itself
    /// a property the fault suite checks.
    Panic,
}

/// One injected fault.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StageFault {
    /// Stage to fail.
    pub stage: FaultStage,
    /// Level to fail at.
    pub level: usize,
    /// Cluster to fail at (route stage only; `None` matches every
    /// cluster of the level).
    pub cluster: Option<usize>,
    /// How the failure manifests.
    pub kind: FaultKind,
    /// The fault fires while `attempt < max_attempt`: 1 (the default
    /// via [`StageFault::once`]) means attempt 0 only, so the first
    /// ladder retry recovers; a large value makes the fault permanent.
    pub max_attempt: usize,
}

impl StageFault {
    /// A fault that fires on attempt 0 only — the transient case.
    pub fn once(stage: FaultStage, level: usize, cluster: Option<usize>, kind: FaultKind) -> Self {
        StageFault {
            stage,
            level,
            cluster,
            kind,
            max_attempt: 1,
        }
    }

    /// A fault that fires on every attempt — drives the ladder to
    /// exhaustion.
    pub fn permanent(
        stage: FaultStage,
        level: usize,
        cluster: Option<usize>,
        kind: FaultKind,
    ) -> Self {
        StageFault {
            stage,
            level,
            cluster,
            kind,
            max_attempt: usize::MAX,
        }
    }
}

/// A set of injected faults (empty by default: no injection).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultPlan {
    /// The faults to inject.
    pub faults: Vec<StageFault>,
}

impl FaultPlan {
    /// A plan with no faults.
    pub fn none() -> Self {
        FaultPlan::default()
    }

    /// A plan injecting exactly `fault`.
    pub fn single(fault: StageFault) -> Self {
        FaultPlan {
            faults: vec![fault],
        }
    }

    /// Fires the first fault planned for this site, if any: a
    /// [`FaultKind::Error`] returns [`CtsError::InjectedFault`], a
    /// [`FaultKind::Panic`] panics. Pure: same inputs, same answer, on
    /// every worker.
    pub(crate) fn check(
        &self,
        stage: FaultStage,
        level: usize,
        cluster: Option<usize>,
        attempt: usize,
    ) -> Result<(), CtsError> {
        let fault = self.faults.iter().find(|f| {
            f.stage == stage
                && f.level == level
                && attempt < f.max_attempt
                && (f.cluster.is_none() || f.cluster == cluster)
        });
        match fault.map(|f| f.kind) {
            None => Ok(()),
            Some(FaultKind::Error) => Err(CtsError::InjectedFault {
                stage: stage.name(),
                level,
                cluster,
            }),
            Some(FaultKind::Panic) => panic!(
                "injected panic: {} level {level} cluster {cluster:?}",
                stage.name()
            ),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fires(p: &FaultPlan, stage: FaultStage, level: usize, cluster: Option<usize>) -> bool {
        p.check(stage, level, cluster, 0).is_err()
    }

    #[test]
    fn empty_plan_never_fires() {
        assert!(!fires(&FaultPlan::none(), FaultStage::Route, 0, Some(0)));
    }

    #[test]
    fn transient_fault_clears_on_retry() {
        let p = FaultPlan::single(StageFault::once(
            FaultStage::Route,
            1,
            Some(3),
            FaultKind::Error,
        ));
        assert!(fires(&p, FaultStage::Route, 1, Some(3)));
        assert_eq!(p.check(FaultStage::Route, 1, Some(3), 1), Ok(()));
        // Wrong level, cluster, or stage: no fire.
        assert!(!fires(&p, FaultStage::Route, 0, Some(3)));
        assert!(!fires(&p, FaultStage::Route, 1, Some(2)));
        assert!(!fires(&p, FaultStage::Sizing, 1, Some(3)));
    }

    #[test]
    fn wildcard_cluster_matches_everything_at_the_level() {
        let p = FaultPlan::single(StageFault::once(
            FaultStage::Route,
            0,
            None,
            FaultKind::Error,
        ));
        assert!(fires(&p, FaultStage::Route, 0, Some(0)));
        assert!(fires(&p, FaultStage::Route, 0, Some(17)));
        assert!(fires(&p, FaultStage::Route, 0, None));
    }

    #[test]
    fn permanent_fault_never_clears() {
        let p = FaultPlan::single(StageFault::permanent(
            FaultStage::Partition,
            2,
            None,
            FaultKind::Error,
        ));
        for attempt in 0..64 {
            assert!(p.check(FaultStage::Partition, 2, None, attempt).is_err());
        }
    }
}
