//! Clock tree data structure and SLLT metrics.
//!
//! This crate defines [`ClockTree`], the arena-backed rooted Steiner tree
//! every topology generator in the workspace produces, together with:
//!
//! * [`metrics`] — path lengths, wirelength, skew and the paper's three
//!   SLLT figures of merit: *shallowness* α, *lightness* β and
//!   *skewness* γ (paper Definitions 2.1 and 2.2),
//! * [`edits`] — the structural clean-ups the CBS pipeline needs between
//!   phases: redundant-Steiner-node elimination, binarization, and the
//!   "sinks must be leaves" rule (paper Fig. 2, steps 2 and 4),
//! * [`topology`] — the abstract merge order ([`Topology`]) the merge-order
//!   generators build and CBS extracts from a tree, handed to DME for
//!   embedding,
//! * [`io`] — a diff-friendly text serialization of routed trees,
//! * [`codec`] — the compact binary frame of one tree, its node visitor,
//!   and the byte helpers the level checkpoints share,
//! * [`svg`] — plotting for the Fig. 1 topology gallery.
//!
//! # Example
//!
//! ```
//! use sllt_geom::Point;
//! use sllt_tree::{ClockTree, metrics::SlltMetrics};
//!
//! let mut t = ClockTree::new(Point::new(0.0, 0.0));
//! let root = t.root();
//! t.add_sink(root, Point::new(10.0, 0.0), 1.0);
//! t.add_sink(root, Point::new(0.0, 10.0), 1.0);
//! let m = SlltMetrics::compute(&t, 20.0);
//! assert!((m.shallowness - 1.0).abs() < 1e-9); // direct wires: α = 1
//! assert!((m.lightness - 1.0).abs() < 1e-9);   // WL equals the reference
//! ```

pub mod codec;
pub mod edits;
pub mod io;
pub mod metrics;
pub mod net;
pub mod node;
pub mod svg;
pub mod topology;
pub mod tree;

pub use metrics::SlltMetrics;
pub use net::{ClockNet, Sink};
pub use node::{Node, NodeId, NodeKind};
pub use topology::{TopoNode, Topology};
pub use tree::{Children, ClockTree};
