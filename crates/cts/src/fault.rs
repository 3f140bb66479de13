//! Deterministic fault injection for exercising the recovery machinery.
//!
//! A [`FaultPlan`] attaches to a run through
//! [`RunContext::faults`](crate::flow::RunContext::faults) and makes a
//! chosen stage fail at a chosen level (and cluster) — as a typed
//! [`CtsError::InjectedFault`], as a real `panic!` (which only the
//! route stage's worker containment catches), or as a process-level
//! misbehaviour: a wedge, a slow stage, or an address-space balloon.
//! Every stage makes the same one call, `FaultPlan::check`. The plan
//! is *stateless*: whether a fault fires is a pure function of
//! `(stage, level, cluster, attempt)`, so no atomics are needed,
//! parallel workers cannot race on it, and runs stay bit-identical at
//! any worker count.
//!
//! By default a fault fires only on attempt 0
//! ([`max_attempt`](StageFault::max_attempt) = 1): the degradation
//! ladder's first retry runs clean, which is exactly the "transient
//! failure, bounded recovery" scenario the fault suite asserts. Raising
//! `max_attempt` past the ladder length makes the fault permanent and
//! drives the ladder to
//! [`LadderExhausted`](crate::error::CtsError::LadderExhausted).
//!
//! The same plan is the `slltd` job lever: a submit's `fault` word
//! (`panic`, `hang`, `oom`, `sleep:<ms>`) parses into a plan through
//! [`FaultPlan`]'s `FromStr`, the one grammar for the socket, the job
//! journal, and `slltd --job --fault`.
//!
//! An empty plan (the default) injects nothing and costs one scan of an
//! empty `Vec` per stage.

use crate::cancel::CancelToken;
use crate::error::CtsError;
use std::time::{Duration, Instant};

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
    /// The stage wedges forever, ignoring cancellation: only SIGKILL
    /// (a job deadline) ends it.
    Hang,
    /// The stage stalls this many milliseconds before running — a
    /// deterministic slow job. A fired [`CancelToken`] cuts the stall
    /// short with [`CtsError::Cancelled`].
    Sleep(u64),
    /// The stage balloons its address space in untouched reservations.
    /// Under an `RLIMIT_AS` ceiling the allocator hits the wall within a
    /// few chunks and libstd aborts with "memory allocation of N bytes
    /// failed"; without one the reservations stay unmapped (no RSS), a
    /// 64 GiB cap runs out, and the stage returns
    /// [`CtsError::InjectedFault`].
    Oom,
}

/// How long a [`FaultKind::Sleep`] stalls between cancellation checks.
const SLEEP_SLICE: Duration = Duration::from_millis(10);

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

    /// Fires the first fault planned for this site, if any, as its
    /// [`FaultKind`] describes. Which fault fires is pure: same inputs,
    /// same answer, on every worker. `cancel` is the run's token; only
    /// [`FaultKind::Sleep`] reads it.
    pub(crate) fn check(
        &self,
        stage: FaultStage,
        level: usize,
        cluster: Option<usize>,
        attempt: usize,
        cancel: &CancelToken,
    ) -> Result<(), CtsError> {
        let Some(fault) = self.faults.iter().find(|f| {
            f.stage == stage
                && f.level == level
                && attempt < f.max_attempt
                && (f.cluster.is_none() || f.cluster == cluster)
        }) else {
            return Ok(());
        };
        let injected = CtsError::InjectedFault {
            stage: stage.name(),
            level,
            cluster,
        };
        match fault.kind {
            FaultKind::Error => Err(injected),
            FaultKind::Panic => panic!(
                "injected panic: {} level {level} cluster {cluster:?}",
                stage.name()
            ),
            FaultKind::Hang => loop {
                std::thread::sleep(Duration::from_secs(3600));
            },
            FaultKind::Sleep(ms) => {
                // A deadline past what `Instant` can hold waits for cancel.
                let until = Instant::now().checked_add(Duration::from_millis(ms));
                loop {
                    if cancel.is_cancelled() {
                        return Err(CtsError::Cancelled);
                    }
                    let left =
                        until.map_or(SLEEP_SLICE, |u| u.saturating_duration_since(Instant::now()));
                    if left.is_zero() {
                        return Ok(());
                    }
                    std::thread::sleep(left.min(SLEEP_SLICE));
                }
            }
            FaultKind::Oom => {
                let mut hoard: Vec<Vec<u8>> = Vec::new();
                for _ in 0..1024 {
                    hoard.push(Vec::with_capacity(64 << 20));
                }
                drop(std::hint::black_box(hoard));
                Err(injected)
            }
        }
    }
}

impl std::str::FromStr for FaultPlan {
    type Err = String;

    /// Parses a job fault word. Exactly four forms exist, all at level 0:
    ///
    /// * `panic` — a permanent [`FaultKind::Panic`] in sizing, where no
    ///   containment wraps it, so the process itself panics;
    /// * `hang` — a permanent [`FaultKind::Hang`] in partition;
    /// * `oom` — a permanent [`FaultKind::Oom`] in partition;
    /// * `sleep:<ms>` — one [`FaultKind::Sleep`] in partition.
    fn from_str(s: &str) -> Result<FaultPlan, String> {
        let fault = match s {
            "panic" => StageFault::permanent(FaultStage::Sizing, 0, None, FaultKind::Panic),
            "hang" => StageFault::permanent(FaultStage::Partition, 0, None, FaultKind::Hang),
            "oom" => StageFault::permanent(FaultStage::Partition, 0, None, FaultKind::Oom),
            _ => match s.strip_prefix("sleep:").and_then(|ms| ms.parse().ok()) {
                Some(ms) => StageFault::once(FaultStage::Partition, 0, None, FaultKind::Sleep(ms)),
                None => {
                    return Err(format!(
                        "unknown fault {s:?}; expected panic, hang, oom, or sleep:<ms>"
                    ))
                }
            },
        };
        Ok(FaultPlan::single(fault))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fires(p: &FaultPlan, stage: FaultStage, level: usize, cluster: Option<usize>) -> bool {
        p.check(stage, level, cluster, 0, &CancelToken::new())
            .is_err()
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
        let retry = p.check(FaultStage::Route, 1, Some(3), 1, &CancelToken::new());
        assert_eq!(retry, Ok(()));
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
        let token = CancelToken::new();
        for attempt in 0..64 {
            assert!(p
                .check(FaultStage::Partition, 2, None, attempt, &token)
                .is_err());
        }
    }

    #[test]
    fn job_fault_words_parse_to_their_sites() {
        let permanent =
            |stage, kind| FaultPlan::single(StageFault::permanent(stage, 0, None, kind));
        let table = [
            ("panic", permanent(FaultStage::Sizing, FaultKind::Panic)),
            ("hang", permanent(FaultStage::Partition, FaultKind::Hang)),
            ("oom", permanent(FaultStage::Partition, FaultKind::Oom)),
            (
                "sleep:250",
                FaultPlan::single(StageFault::once(
                    FaultStage::Partition,
                    0,
                    None,
                    FaultKind::Sleep(250),
                )),
            ),
        ];
        for (word, plan) in table {
            assert_eq!(word.parse::<FaultPlan>(), Ok(plan), "{word}");
        }
        for bad in ["explode", "sleep:soon", "sleep:", "panic,hang", ""] {
            let err = bad.parse::<FaultPlan>().unwrap_err();
            for form in ["panic", "hang", "oom", "sleep:<ms>"] {
                assert!(err.contains(form), "{bad:?}: {err}");
            }
        }
    }

    #[test]
    fn sleep_fault_returns_cancelled_when_the_token_fires() {
        for word in ["sleep:60000", "sleep:18446744073709551615"] {
            let plan: FaultPlan = word.parse().unwrap();
            let token = CancelToken::new();
            let canceller = {
                let token = token.clone();
                std::thread::spawn(move || {
                    std::thread::sleep(Duration::from_millis(50));
                    token.cancel();
                    Instant::now()
                })
            };
            let out = plan.check(FaultStage::Partition, 0, None, 0, &token);
            let latency = Instant::now().saturating_duration_since(canceller.join().unwrap());
            assert_eq!(out, Err(CtsError::Cancelled), "{word}");
            assert!(latency < Duration::from_millis(500), "{word}: {latency:?}");
        }
        // A short sleep with a live token runs to completion and passes.
        let nap: FaultPlan = "sleep:5".parse().unwrap();
        let live = nap.check(FaultStage::Partition, 0, None, 0, &CancelToken::new());
        assert_eq!(live, Ok(()));
    }
}
