//! Typed failure modes of the hierarchical flow.
//!
//! [`HierarchicalCts::run`](crate::flow::HierarchicalCts::run) returns
//! these instead of panicking: a caller driving many designs (benchmark
//! sweeps, OCV Monte-Carlo) gets a value it can log and skip rather than
//! an abort.
//!
//! Errors split into two classes (see `DESIGN.md`, *Failure model*):
//!
//! * **recoverable** — a level-scoped construction failure the
//!   [degradation ladder](crate::recovery) may clear by
//!   relaxing the skew bound or falling back to a simpler topology
//!   ([`is_recoverable`](CtsError::is_recoverable) returns `true`);
//! * **non-recoverable** — the input or configuration itself is unusable
//!   ([`NoSinks`](CtsError::NoSinks),
//!   [`InvalidConstraints`](CtsError::InvalidConstraints), …); retrying
//!   cannot help and the ladder propagates them immediately.

use sllt_route::DmeError;
use std::fmt;

/// Why a hierarchical CTS run could not produce a tree.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum CtsError {
    /// The design has no flip-flops: there is nothing to build a clock
    /// tree over.
    NoSinks,
    /// The buffer library has no cells, so no cluster driver, delay pad,
    /// or repeater can ever be chosen.
    EmptyBufferLibrary,
    /// A constraint bound is out of its valid range
    /// ([`CtsConstraints::validate`](crate::constraints::CtsConstraints::validate)).
    InvalidConstraints {
        /// Name of the offending field (e.g. `"skew_ps"`).
        field: &'static str,
        /// The rejected value (fanout is reported as a float).
        value: f64,
    },
    /// The design failed the sanitizer pre-flight: non-finite or
    /// oversized coordinates, non-finite or negative pin caps. Repair
    /// with [`sllt_design::sanitize::repair`] and re-run.
    InvalidDesign {
        /// Human-readable description of the first fatal lint.
        detail: String,
    },
    /// Partitioning stopped reducing the node count: the level loop would
    /// never converge to a single top node.
    LevelRunaway {
        /// Level at which the runaway was detected.
        level: usize,
        /// Node count still pending at that level.
        nodes: usize,
    },
    /// A cluster's routing kernel rejected its input — most often a skew
    /// bound the merge geometry cannot satisfy.
    ClusterRoute {
        /// Level of the failing cluster.
        level: usize,
        /// Cluster index within the level.
        cluster: usize,
        /// The routing kernel's own diagnosis.
        source: DmeError,
    },
    /// A routing worker panicked; the panic was contained at cluster
    /// granularity and converted into this error.
    ClusterPanicked {
        /// Level of the failing cluster.
        level: usize,
        /// Cluster index within the level.
        cluster: usize,
    },
    /// A fault injected by the test harness
    /// ([`FaultPlan`](crate::fault::FaultPlan)) — never produced by a
    /// production configuration.
    InjectedFault {
        /// Stage the fault was injected into.
        stage: &'static str,
        /// Level the fault fired at.
        level: usize,
        /// Cluster it fired at, when cluster-scoped.
        cluster: Option<usize>,
    },
    /// The run observed a fired [`CancelToken`](crate::cancel::CancelToken)
    /// and stopped at the next poll point. Work committed before the
    /// cancellation (including any level checkpoint) is intact; the
    /// partially-built level is discarded.
    Cancelled,
    /// A level checkpoint could not be written, read, or matched against
    /// the current flow configuration (see `crate::checkpoint`).
    Checkpoint {
        /// What went wrong — an I/O error, a corrupt journal, or a
        /// config/design fingerprint mismatch on resume.
        detail: String,
    },
    /// Every rung of the degradation ladder failed for one level.
    LadderExhausted {
        /// The level that could not be built.
        level: usize,
        /// How many attempts were made (including the original).
        attempts: usize,
        /// The error from the final attempt.
        last: Box<CtsError>,
    },
}

impl CtsError {
    /// Whether the degradation ladder may clear this error by retrying
    /// the level under a relaxed configuration.
    ///
    /// Input/configuration errors ([`NoSinks`](CtsError::NoSinks),
    /// [`InvalidConstraints`](CtsError::InvalidConstraints), …) return
    /// `false`: no amount of skew relaxation or topology fallback can
    /// fix them, so the ladder propagates them unchanged.
    pub fn is_recoverable(&self) -> bool {
        match self {
            CtsError::NoSinks
            | CtsError::EmptyBufferLibrary
            | CtsError::InvalidConstraints { .. }
            | CtsError::InvalidDesign { .. }
            | CtsError::LevelRunaway { .. }
            // Cancellation is a caller decision, not a level failure:
            // retrying the level would fight the caller's intent.
            | CtsError::Cancelled
            | CtsError::Checkpoint { .. }
            | CtsError::LadderExhausted { .. } => false,
            CtsError::ClusterRoute { .. }
            | CtsError::ClusterPanicked { .. }
            | CtsError::InjectedFault { .. } => true,
        }
    }
}

impl fmt::Display for CtsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CtsError::NoSinks => write!(f, "CTS over a design without flip-flops"),
            CtsError::EmptyBufferLibrary => {
                write!(f, "buffer library is empty: no driver can be sized")
            }
            CtsError::InvalidConstraints { field, value } => {
                write!(f, "invalid constraint {field} = {value}")
            }
            CtsError::InvalidDesign { detail } => write!(f, "design failed sanitization: {detail}"),
            CtsError::LevelRunaway { level, nodes } => write!(
                f,
                "level runaway at level {level}: partitioning is not reducing \
                 ({nodes} nodes remain)"
            ),
            CtsError::ClusterRoute {
                level,
                cluster,
                source,
            } => write!(
                f,
                "routing cluster {cluster} at level {level} failed: {source}"
            ),
            CtsError::ClusterPanicked { level, cluster } => write!(
                f,
                "routing worker panicked on cluster {cluster} at level {level} \
                 (contained; no other cluster was affected)"
            ),
            CtsError::InjectedFault {
                stage,
                level,
                cluster,
            } => match cluster {
                Some(c) => write!(f, "injected fault in {stage} at level {level}, cluster {c}"),
                None => write!(f, "injected fault in {stage} at level {level}"),
            },
            CtsError::Cancelled => {
                write!(f, "run cancelled; committed levels remain checkpointed")
            }
            CtsError::Checkpoint { detail } => write!(f, "checkpoint failure: {detail}"),
            CtsError::LadderExhausted {
                level,
                attempts,
                last,
            } => write!(
                f,
                "degradation ladder exhausted at level {level} after {attempts} \
                 attempt(s); last error: {last}"
            ),
        }
    }
}

impl std::error::Error for CtsError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CtsError::ClusterRoute { source, .. } => Some(source),
            CtsError::LadderExhausted { last, .. } => Some(last.as_ref()),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_names_the_failure() {
        assert!(CtsError::EmptyBufferLibrary.to_string().contains("library"));
        assert!(CtsError::NoSinks.to_string().contains("flip-flops"));
        let e = CtsError::LevelRunaway {
            level: 40,
            nodes: 9,
        };
        assert!(e.to_string().contains("40") && e.to_string().contains('9'));
        let e = CtsError::InvalidConstraints {
            field: "skew_ps",
            value: -1.0,
        };
        assert!(e.to_string().contains("skew_ps") && e.to_string().contains("-1"));
        let e = CtsError::ClusterRoute {
            level: 2,
            cluster: 5,
            source: DmeError::NegativeSkewBound(-4.0),
        };
        assert!(e.to_string().contains("cluster 5") && e.to_string().contains("-4"));
        let e = CtsError::ClusterPanicked {
            level: 1,
            cluster: 0,
        };
        assert!(e.to_string().contains("panicked"));
        let e = CtsError::LadderExhausted {
            level: 0,
            attempts: 6,
            last: Box::new(CtsError::ClusterPanicked {
                level: 0,
                cluster: 3,
            }),
        };
        assert!(e.to_string().contains("exhausted") && e.to_string().contains("cluster 3"));
        assert!(CtsError::Cancelled.to_string().contains("cancelled"));
        let e = CtsError::Checkpoint {
            detail: "journal corrupt at line 4".into(),
        };
        assert!(e.to_string().contains("line 4"));
    }

    #[test]
    fn recoverability_splits_input_errors_from_level_failures() {
        assert!(!CtsError::NoSinks.is_recoverable());
        assert!(!CtsError::EmptyBufferLibrary.is_recoverable());
        assert!(!CtsError::InvalidConstraints {
            field: "skew_ps",
            value: 0.0
        }
        .is_recoverable());
        assert!(!CtsError::InvalidDesign { detail: "x".into() }.is_recoverable());
        assert!(CtsError::ClusterPanicked {
            level: 0,
            cluster: 0
        }
        .is_recoverable());
        assert!(CtsError::ClusterRoute {
            level: 0,
            cluster: 0,
            source: DmeError::SinklessNet
        }
        .is_recoverable());
        // Cancellation and checkpoint faults must never be retried.
        assert!(!CtsError::Cancelled.is_recoverable());
        assert!(!CtsError::Checkpoint { detail: "x".into() }.is_recoverable());
        // An exhausted ladder must not be re-laddered.
        assert!(!CtsError::LadderExhausted {
            level: 0,
            attempts: 1,
            last: Box::new(CtsError::ClusterPanicked {
                level: 0,
                cluster: 0
            })
        }
        .is_recoverable());
    }

    #[test]
    fn error_trait_is_wired() {
        let e: Box<dyn std::error::Error> = Box::new(CtsError::NoSinks);
        assert!(!e.to_string().is_empty());
        let e = CtsError::ClusterRoute {
            level: 0,
            cluster: 0,
            source: DmeError::SinklessNet,
        };
        assert!(std::error::Error::source(&e).is_some());
    }
}
