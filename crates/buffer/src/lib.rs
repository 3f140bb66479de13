//! Buffering optimization for hierarchical CTS (paper §3.4).
//!
//! Four pieces:
//!
//! * [`critical`] — the *critical wirelength*: the wire length beyond
//!   which splitting with a repeater wins, derived in closed form from
//!   the linear buffer delay model (paper Eq. (6) and the `L(i,j)`
//!   formula),
//! * [`repeater`] — long-wire repeater insertion on a routed clock tree:
//!   every edge longer than the critical length (or whose downstream load
//!   exceeds the driver's max cap) is split,
//! * [`timing`] — the one buffered delay/slew walk
//!   ([`propagate`](timing::propagate)) that evaluation, the OCV views
//!   and [`max_slew`] read,
//! * [`estimate`] — the *insertion delay lower bound* of paper Eq. (7):
//!   a provisional buffer delay charged to every cluster root during
//!   bottom-up timing, which keeps sibling delays comparable and lowers
//!   the skew-repair cost at the next level (paper Fig. 5).
//!
//! # Example
//!
//! ```
//! use sllt_timing::{BufferLibrary, Technology};
//! use sllt_buffer::critical::critical_wirelength;
//!
//! let tech = Technology::n28();
//! let lib = BufferLibrary::n28();
//! let l = critical_wirelength(lib.smallest(), &tech, 10.0);
//! assert!(l > 50.0 && l < 500.0, "28 nm repeater spacing is O(100 µm), got {l}");
//! ```

pub mod critical;
pub mod estimate;
pub mod repeater;
pub mod timing;

pub use critical::critical_wirelength;
pub use estimate::DelayEstimator;
pub use repeater::{insert_repeaters, RepeaterPolicy};
pub use timing::max_slew;
