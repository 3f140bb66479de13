//! Clock sink partitioning for hierarchical CTS.
//!
//! The paper's hierarchical flow (§3.2) allocates clock nodes to clusters
//! level by level:
//!
//! 1. **balanced K-means + min-cost flow** — Lloyd iterations give
//!    geometric centres; a [min-cost-flow assignment](mcf) enforces the
//!    per-cluster fanout capacity exactly (after Han–Kahng–Li, TCAD'18),
//! 2. **latency/capacitance-adaptive evaluation** — the clustering cost
//!    `Cost = p·σ(Cap) + q·σ(T)` of [`cost`] blends capacitance and delay
//!    variance with level-dependent weights,
//! 3. **simulated-annealing refinement** — [`sa`] fixes capacitance and
//!    wirelength violations by moving *convex-hull boundary* instances of
//!    expensive clusters to their nearest neighbour cluster (paper
//!    Fig. 4).
//!
//! # Example
//!
//! ```
//! use sllt_geom::Point;
//! use sllt_partition::kmeans::balanced_kmeans;
//!
//! let pts: Vec<Point> = (0..20)
//!     .map(|i| Point::new((i % 5) as f64 * 10.0, (i / 5) as f64 * 10.0))
//!     .collect();
//! let part = balanced_kmeans(&pts, 4, 5, 42);
//! assert_eq!(part.assignment.len(), 20);
//! // Capacity is enforced exactly: no cluster exceeds 5 members.
//! for c in 0..4 {
//!     assert!(part.assignment.iter().filter(|&&a| a == c).count() <= 5);
//! }
//! ```

pub mod cost;
pub mod kmeans;
pub mod mcf;
pub mod sa;

pub use cost::{cluster_cost, variance, weighted_pick};
pub use kmeans::{
    balanced_kmeans, balanced_kmeans_grid_sharded, balanced_kmeans_restarts,
    balanced_kmeans_restarts_scored, nearest_scan_l1, nearest_scan_l2sq, CenterGrid, Partition,
};
pub use mcf::MinCostFlow;
pub use sa::{refine, refine_chains, refine_with_stop, PartitionConstraints, SaConfig};

/// The strictly lowest-cost candidate in slot order, so ties go to the
/// lowest slot and the winner is the same at any worker count. `None`
/// when any slot is empty: its run was stopped, and a stopped search
/// discards every candidate.
fn best_of<S>(slots: impl IntoIterator<Item = Option<(f64, S)>>) -> Option<(f64, S)> {
    let mut best: Option<(f64, S)> = None;
    for slot in slots {
        let (cost, candidate) = slot?;
        if best.as_ref().is_none_or(|(b, _)| cost < *b) {
            best = Some((cost, candidate));
        }
    }
    best
}
