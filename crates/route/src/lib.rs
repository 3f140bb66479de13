//! Routing topology generators for clock tree synthesis.
//!
//! This crate implements every tree family the SLLT paper compares
//! (Fig. 1, Table 1):
//!
//! * [`rsmt`](mod@rsmt) — a rectilinear Steiner minimum tree heuristic (the paper
//!   uses FLUTE; FLUTE's lookup tables are not redistributable, so we use
//!   a Prim MST plus median-point Steinerization that lands within a few
//!   percent of FLUTE on CTS-sized nets — see `DESIGN.md`),
//! * [`salt`](mod@salt) — the rectilinear Steiner shallow-light tree (R-SALT,
//!   Chen & Young, TCAD'19): guarantees shallowness `α ≤ 1 + ε`,
//! * [`htree`](mod@htree) / [`ghtree`](mod@ghtree) — the symmetric H-tree and the generalized
//!   H-tree with per-level branching factors (Han–Kahng–Li, TCAD'18),
//! * [`dme`](mod@dme) — deferred-merge embedding: zero-skew (ZST-DME) and
//!   bounded-skew (BST-DME) trees over an abstract merge
//!   [`Topology`](sllt_tree::Topology),
//! * [`topogen`] — the paper's four candidate merge orders: *Greedy-Dist*,
//!   *Greedy-Merge*, *Bi-Partition* and *Bi-Cluster* (§2.3 footnote).
//!
//! All generators consume a [`ClockNet`] and produce a
//! [`sllt_tree::ClockTree`] whose sinks carry the net's sink indices.
//!
//! # Example
//!
//! ```
//! use sllt_geom::Point;
//! use sllt_tree::{ClockNet, Sink, SlltMetrics};
//! use sllt_route::{rsmt, salt, dme, topogen};
//!
//! let net = ClockNet::new(
//!     Point::new(0.0, 0.0),
//!     (0..8).map(|i| Sink::new(Point::new((i % 4) as f64 * 10.0, (i / 4) as f64 * 10.0), 1.0)).collect(),
//! );
//! let light = rsmt::rsmt(&net);
//! let shallow = salt::salt(&net, 0.1);
//! let topo = topogen::greedy_dist(&net);
//! let skew_controlled = dme::bst_dme(&net, &topo, 5.0);
//!
//! let ref_wl = light.wirelength();
//! let m = SlltMetrics::compute(&shallow, ref_wl);
//! assert!(m.shallowness <= 1.1 + 1e-6);
//! ```

pub mod dme;
pub mod ghtree;
pub mod htree;
pub mod legalize;
pub mod nnpair;
pub mod rmst_fast;
pub mod rsmt;
pub mod salt;
pub mod topogen;

pub use sllt_tree::{ClockNet, Sink};

pub use dme::{
    bst_dme, dme, skew_of, try_dme_intervals, zst_dme, DelayModel, DmeError, DmeOptions,
};
pub use ghtree::ghtree;
pub use htree::htree;
pub use legalize::{skew_legalize, skew_legalize_intervals};
pub use rmst_fast::rmst_octant;
pub use rsmt::{rmst, rsmt};
pub use salt::{salt, salt_from_tree};
pub use topogen::{
    bi_cluster, bi_partition, greedy_dist, greedy_dist_naive, greedy_merge, greedy_merge_naive,
    TopologyScheme,
};
