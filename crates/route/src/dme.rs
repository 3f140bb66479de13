//! Deferred-merge embedding: zero-skew and bounded-skew trees.
//!
//! Classic two-phase DME (Chao et al. '92 for ZST; Cong–Kahng–Koh–Tsao '98
//! for BST), supporting both delay models the paper uses:
//!
//! * [`DelayModel::PathLength`] — the wirelength proxy of paper
//!   Eq. (1)–(3); skew bounds are in µm of path length,
//! * [`DelayModel::Elmore`] — distributed-RC Elmore delay; skew bounds are
//!   in ps. This is the model behind the paper's ps-denominated skew
//!   constraints (Tables 2, 3, 5), and it is *kinder* to shallow trees:
//!   delay grows quadratically along a path, so sinks tapping a shared
//!   trunk midway are far closer in delay than in path length.
//!
//! The algorithm:
//!
//! * **bottom-up**: every topology node gets a *merging region* — a tilted
//!   rectangle, kept as an axis-aligned [`RRect`] in rotated space — plus a
//!   delay interval `[lo, hi]` over its sinks and (for Elmore) its total
//!   downstream capacitance. Each merge picks the wire split `(e_a, e_b)`
//!   with `e_a + e_b = dist` that keeps the merged interval within the
//!   skew bound; when no split suffices, detour (snaking) wire is added on
//!   the fast side. Delay is monotone in the split for both models, so
//!   splits are found by bisection.
//! * **top-down**: the root is embedded at the region point nearest the
//!   clock source and every child at its region's point nearest to its
//!   parent; edges keep their assigned lengths, so detour survives as
//!   `edge_len > manhattan distance`.
//!
//! Both phases walk one arena: node `i` of the topology's postorder node
//! vector becomes arena entry `i`, so the bottom-up pass is a single
//! forward loop (children are always built before their merge) and the
//! top-down pass descends from the last entry, the root. Merges that
//! carry a position hint (CBS step 4 extracts them from the SALT tree)
//! bias their split inside the skew-feasible window toward the hint —
//! that is what lets the CBS re-embedding stay close to the SALT geometry
//! wherever the bound leaves slack.
//!
//! Simplification note: full BST-DME propagates merging regions that can
//! be general octilinear polygons; we commit each merge to a single
//! `(e_a, e_b)` split and keep regions closed under
//! intersection/inflation as rotated rectangles. This forfeits a little
//! optimality (paper Table 3 shows BST-DME behind CBS by 13–27 % — the
//! gap we reproduce) but keeps every skew guarantee intact.

use sllt_buffer::timing::propagate;
use sllt_geom::{Point, RRect};
use sllt_timing::{BufferLibrary, Technology};
use sllt_tree::{ClockNet, ClockTree, NodeId, TopoNode, Topology};
use std::fmt;

/// Why a DME construction could not produce a tree.
///
/// [`try_dme_intervals`] returns these instead of panicking, so a caller
/// that feeds DME with possibly-degenerate inputs (a hierarchical flow
/// retrying a failed level, a fuzzer) gets a value it can match on. The
/// panicking entry points ([`dme`], [`bst_dme`], …) keep their historical
/// contract by unwrapping the same checks.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum DmeError {
    /// The net has no sinks: there is nothing to embed.
    SinklessNet,
    /// The skew bound is negative (or NaN).
    NegativeSkewBound(f64),
    /// `intervals.len()` does not match the net's sink count.
    IntervalCountMismatch {
        /// Intervals supplied.
        intervals: usize,
        /// Sinks in the net.
        sinks: usize,
    },
    /// A sink interval is negative, inverted, or non-finite.
    BadSinkInterval {
        /// Sink index.
        sink: usize,
        /// Interval low end, ps (or µm under the path-length model).
        lo: f64,
        /// Interval high end.
        hi: f64,
    },
    /// A sink interval is already wider than the skew bound: no merge
    /// above it can shrink the spread, so the subtree cannot be fixed
    /// from above.
    IntervalExceedsBound {
        /// Sink index.
        sink: usize,
        /// Interval width.
        width: f64,
        /// The configured bound.
        bound: f64,
    },
    /// The topology references a sink index the net does not have.
    SinkIndexOutOfRange {
        /// Offending index.
        index: usize,
        /// Net sink count.
        len: usize,
    },
    /// The net's source or a sink position is NaN or infinite —
    /// rotated-space (x ± y) arithmetic would poison every region.
    NonFiniteGeometry,
    /// The detour search for a skew-balancing merge did not converge
    /// within a generous range (detours beyond ~10⁶ µm indicate corrupt
    /// inputs).
    DetourDiverged,
}

impl fmt::Display for DmeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DmeError::SinklessNet => write!(f, "DME over a sinkless net"),
            DmeError::NegativeSkewBound(b) => write!(f, "negative skew bound {b}"),
            DmeError::IntervalCountMismatch { intervals, sinks } => {
                write!(
                    f,
                    "one interval per sink: got {intervals} for {sinks} sinks"
                )
            }
            DmeError::BadSinkInterval { sink, lo, hi } => {
                write!(f, "bad sink interval ({lo}, {hi}) at sink {sink}")
            }
            DmeError::IntervalExceedsBound { sink, width, bound } => write!(
                f,
                "sink {sink} interval wider ({width}) than the bound ({bound})"
            ),
            DmeError::SinkIndexOutOfRange { index, len } => {
                write!(f, "topology sink index {index} out of range ({len} sinks)")
            }
            DmeError::NonFiniteGeometry => {
                write!(f, "non-finite source or sink coordinates")
            }
            DmeError::DetourDiverged => write!(f, "detour search diverged"),
        }
    }
}

impl std::error::Error for DmeError {}

/// Delay model used for merge balancing.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum DelayModel {
    /// Delay = routed path length; skew bounds in µm.
    PathLength,
    /// Distributed-RC Elmore delay; skew bounds in ps.
    Elmore(Technology),
}

impl DelayModel {
    /// Delay added by `e` µm of wire feeding a subtree of `cap` fF.
    #[inline]
    pub(crate) fn wire_delay(&self, e: f64, cap: f64) -> f64 {
        match self {
            DelayModel::PathLength => e,
            DelayModel::Elmore(t) => t.wire_delay(e, cap),
        }
    }

    /// Capacitance added by `e` µm of wire (0 under the proxy model —
    /// caps are not tracked there).
    #[inline]
    pub(crate) fn wire_cap(&self, e: f64) -> f64 {
        match self {
            DelayModel::PathLength => 0.0,
            DelayModel::Elmore(t) => t.wire_cap(e),
        }
    }

    /// Capacitance a sink pin of `cap_ff` fF contributes (0 under the
    /// proxy model).
    #[inline]
    pub(crate) fn pin_cap(&self, cap_ff: f64) -> f64 {
        match self {
            DelayModel::PathLength => 0.0,
            DelayModel::Elmore(_) => cap_ff,
        }
    }
}

/// Options for a DME run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DmeOptions {
    /// Skew bound: µm for [`DelayModel::PathLength`], ps for
    /// [`DelayModel::Elmore`].
    pub skew_bound: f64,
    /// Delay model for merge balancing.
    pub model: DelayModel,
}

/// Builds a zero-skew tree over `net` using merge order `topo`, under the
/// path-length delay model.
///
/// # Panics
///
/// Panics when the net is sinkless or `topo` references sink indices out
/// of range.
pub fn zst_dme(net: &ClockNet, topo: &Topology) -> ClockTree {
    bst_dme(net, topo, 0.0)
}

/// Builds a bounded-skew tree under the path-length delay model: the
/// spread of routed source→sink path lengths is at most `skew_bound_um`.
///
/// # Panics
///
/// Panics when the net is sinkless, `skew_bound_um` is negative, or
/// `topo` references sink indices out of range.
pub fn bst_dme(net: &ClockNet, topo: &Topology, skew_bound_um: f64) -> ClockTree {
    dme(
        net,
        topo,
        &DmeOptions {
            skew_bound: skew_bound_um,
            model: DelayModel::PathLength,
        },
    )
}

/// Builds a bounded-skew tree over `topo` with explicit [`DmeOptions`].
/// This is the full-control entry point; CBS step 5 calls it with a
/// topology whose merges carry SALT-derived hints.
///
/// # Panics
///
/// Panics when [`try_dme_intervals`] would return an error: the net is
/// sinkless, the bound is negative, or the topology references sink
/// indices out of range.
pub fn dme(net: &ClockNet, topo: &Topology, opts: &DmeOptions) -> ClockTree {
    try_dme_intervals(net, topo, opts, &vec![(0.0, 0.0); net.len()])
        .unwrap_or_else(|e| panic!("{e}"))
}

/// Fallible [`dme`] in which each sink `i` starts with the delay
/// *interval* `intervals[i]` `(fastest, slowest)` instead of zero. Every
/// input degeneracy the panicking entry points assert on becomes a typed
/// [`DmeError`]; resilient callers (the hierarchical flow's degradation
/// ladder, fuzzers) use it.
///
/// Hierarchical CTS uses the intervals to balance lower-level subtrees: a
/// cluster driver appears as a sink carrying the spread already present
/// inside the subtree it stands for, and the merge balancing equalizes
/// *total* delays within the bound. Intervals are what make hierarchical
/// skew bounds compose: the merged interval at the net root covers every
/// leaf of every subtree, so bounding its width bounds true global skew
/// instead of just the spread of subtree maxima.
///
/// # Errors
///
/// [`DmeError::SinklessNet`], [`DmeError::NegativeSkewBound`],
/// [`DmeError::IntervalCountMismatch`], [`DmeError::BadSinkInterval`],
/// [`DmeError::IntervalExceedsBound`],
/// [`DmeError::SinkIndexOutOfRange`],
/// [`DmeError::NonFiniteGeometry`], and [`DmeError::DetourDiverged`].
pub fn try_dme_intervals(
    net: &ClockNet,
    topo: &Topology,
    opts: &DmeOptions,
    intervals: &[(f64, f64)],
) -> Result<ClockTree, DmeError> {
    if net.is_empty() {
        return Err(DmeError::SinklessNet);
    }
    if opts.skew_bound < 0.0 || opts.skew_bound.is_nan() {
        return Err(DmeError::NegativeSkewBound(opts.skew_bound));
    }
    if intervals.len() != net.len() {
        return Err(DmeError::IntervalCountMismatch {
            intervals: intervals.len(),
            sinks: net.len(),
        });
    }
    if !net.source.x.is_finite()
        || !net.source.y.is_finite()
        || net
            .sinks
            .iter()
            .any(|s| !s.pos.x.is_finite() || !s.pos.y.is_finite() || !s.cap_ff.is_finite())
    {
        return Err(DmeError::NonFiniteGeometry);
    }
    for (sink, &(lo, hi)) in intervals.iter().enumerate() {
        if !(lo >= 0.0 && hi >= lo && lo.is_finite() && hi.is_finite()) {
            return Err(DmeError::BadSinkInterval { sink, lo, hi });
        }
        if hi - lo > opts.skew_bound + 1e-9 {
            return Err(DmeError::IntervalExceedsBound {
                sink,
                width: hi - lo,
                bound: opts.skew_bound,
            });
        }
    }

    let nodes = build_up(net, topo, opts, intervals)?;
    let tree = embed_down(net, &nodes);
    if sllt_obs::enabled() {
        sllt_obs::count("route.dme.calls", 1);
        sllt_obs::count(
            "route.dme.merge_segments",
            nodes.len().saturating_sub(net.len()) as u64,
        );
        sllt_obs::count("route.dme.embed_passes", 1);
        sllt_obs::count("route.dme.embed_nodes", nodes.len() as u64);
    }
    Ok(tree)
}

/// One bottom-up merge node: a merging region, the delay interval over
/// its sinks, and the wire to its children.
#[derive(Debug, Clone)]
struct MergeNode {
    region: RRect,
    lo: f64,
    hi: f64,
    /// Downstream capacitance (fF) under the Elmore model, 0 otherwise.
    cap: f64,
    /// `Some((left, right, e_left, e_right))` for merges, `None` for sinks.
    kids: Option<(usize, usize, f64, f64)>,
    /// Sink index for leaves.
    sink: Option<usize>,
}

/// Bottom-up merging-region construction (DME phase 1): one forward loop
/// over the topology's postorder nodes. Node `i` becomes arena entry `i`,
/// so each merge's children are built before it and their indices carry
/// over unchanged; no recursion or work stack, whatever the depth.
fn build_up(
    net: &ClockNet,
    topo: &Topology,
    opts: &DmeOptions,
    intervals: &[(f64, f64)],
) -> Result<Vec<MergeNode>, DmeError> {
    let mut out: Vec<MergeNode> = Vec::with_capacity(topo.nodes().len());
    for &node in topo.nodes() {
        let built = match node {
            TopoNode::Sink(i) => {
                if i >= net.sinks.len() {
                    return Err(DmeError::SinkIndexOutOfRange {
                        index: i,
                        len: net.sinks.len(),
                    });
                }
                let (lo, hi) = intervals[i];
                MergeNode {
                    region: RRect::from_point(net.sinks[i].pos),
                    lo,
                    hi,
                    cap: opts.model.pin_cap(net.sinks[i].cap_ff),
                    kids: None,
                    sink: Some(i),
                }
            }
            TopoNode::Merge { left, right, hint } => {
                let m = merge(&out[left], &out[right], opts, hint)?;
                // Detour merges wire more than the region gap to hold the
                // skew bound — the trajectory metric behind snaking cost.
                if sllt_obs::enabled()
                    && m.ea + m.eb > out[left].region.dist(&out[right].region) + 1e-9
                {
                    sllt_obs::count("route.dme.detour_merges", 1);
                }
                MergeNode {
                    region: m.region,
                    lo: m.lo,
                    hi: m.hi,
                    cap: m.cap,
                    kids: Some((left, right, m.ea, m.eb)),
                    sink: None,
                }
            }
        };
        out.push(built);
    }
    Ok(out)
}

/// One balanced merge: the merged region and interval, and the wire
/// split `(ea, eb)` toward the two children.
struct Merged {
    region: RRect,
    lo: f64,
    hi: f64,
    cap: f64,
    ea: f64,
    eb: f64,
}

/// Balances one merge within the skew bound. Works for both delay models
/// because the delay contribution of each child's wire is monotone in its
/// length; splits and detours are located by bisection.
fn merge(
    a: &MergeNode,
    b: &MergeNode,
    opts: &DmeOptions,
    hint: Option<Point>,
) -> Result<Merged, DmeError> {
    let model = &opts.model;
    let bound = opts.skew_bound;
    let d = a.region.dist(&b.region);

    // With split `ea ∈ [0, d]` (eb = d − ea), the merged interval is
    //   [min(a.lo + Da, b.lo + Db), max(a.hi + Da, b.hi + Db)],
    // where Da = wire_delay(ea, a.cap) grows and Db shrinks with ea.
    let da = |ea: f64| model.wire_delay(ea, a.cap);
    let db = |ea: f64| model.wire_delay(d - ea, b.cap);
    // Constraint 1 (a's slow end vs b's fast end), increasing in ea:
    let g1 = |ea: f64| (a.hi + da(ea)) - (b.lo + db(ea)) - bound;
    // Constraint 2 (b's slow end vs a's fast end), decreasing in ea:
    let g2 = |ea: f64| (b.hi + db(ea)) - (a.lo + da(ea)) - bound;

    let (ea, eb);
    if g2(d) > 1e-12 {
        // Even all-wire-on-a leaves b too slow: eb = 0 and a detours.
        let need = b.hi - a.lo - bound; // Da(ea) must reach `need`
        let ea_det = solve_increasing(|e| model.wire_delay(e, a.cap) - need, d)?;
        ea = ea_det;
        eb = 0.0;
    } else if g1(0.0) > 1e-12 {
        // Even all-wire-on-b leaves a too slow: ea = 0 and b detours.
        let need = a.hi - b.lo - bound;
        let eb_det = solve_increasing(|e| model.wire_delay(e, b.cap) - need, d)?;
        ea = 0.0;
        eb = eb_det;
    } else {
        // A feasible window exists inside [0, d].
        let ea_lo = if g2(0.0) <= 0.0 {
            0.0
        } else {
            bisect(&g2, 0.0, d, false)
        };
        let ea_hi = if g1(d) <= 0.0 {
            d
        } else {
            bisect(&g1, 0.0, d, true)
        };
        let (ea_lo, ea_hi) = if ea_lo <= ea_hi {
            (ea_lo, ea_hi)
        } else {
            let m = (ea_lo + ea_hi) / 2.0;
            (m, m)
        };
        let pick = match hint {
            Some(h) if ea_hi > ea_lo + 1e-12 => pick_split_toward(a, b, d, ea_lo, ea_hi, h),
            _ => {
                // Centre-align the child intervals (classic balanced DME):
                // h(ea) = centre_a(ea) − centre_b(ea) is increasing.
                let h = |ea: f64| (a.lo + a.hi) / 2.0 + da(ea) - ((b.lo + b.hi) / 2.0 + db(ea));
                if h(ea_lo) >= 0.0 {
                    ea_lo
                } else if h(ea_hi) <= 0.0 {
                    ea_hi
                } else {
                    bisect(&h, ea_lo, ea_hi, true)
                }
            }
        };
        ea = pick;
        eb = d - pick;
    }

    let da_v = model.wire_delay(ea, a.cap);
    let db_v = model.wire_delay(eb, b.cap);
    // Invariant, not input-dependent: the caller pre-checked that all
    // geometry is finite, and every branch above yields ea + eb ≥ dist
    // (splits partition d exactly; detours only add wire), so the
    // inflated regions always intersect.
    let region = a
        .region
        .inflated(ea)
        .intersection(&b.region.inflated(eb))
        .expect("inflated child regions must intersect: e_a + e_b >= dist");
    Ok(Merged {
        region,
        lo: (a.lo + da_v).min(b.lo + db_v),
        hi: (a.hi + da_v).max(b.hi + db_v),
        cap: a.cap + b.cap + model.wire_cap(ea + eb),
        ea,
        eb,
    })
}

/// Root of an increasing function `f` with `f(0) < 0`, searched upward
/// from an initial bracket of `start`.
///
/// # Errors
///
/// [`DmeError::DetourDiverged`] when no root is found within a generous
/// range (detour lengths beyond ~10⁶ µm indicate corrupt inputs).
fn solve_increasing(f: impl Fn(f64) -> f64, start: f64) -> Result<f64, DmeError> {
    solve_increasing_from(f, start.max(1.0) * 2.0).ok_or(DmeError::DetourDiverged)
}

/// Root of an increasing function `f` with `f(0) < 0`: doubles the
/// bracket `[0, hi0]` until `f(hi) ≥ 0`, then bisects it. `None` when 60
/// doublings do not reach a sign change.
pub(crate) fn solve_increasing_from(f: impl Fn(f64) -> f64, hi0: f64) -> Option<f64> {
    let mut hi = hi0;
    let mut guard = 0;
    while f(hi) < 0.0 {
        hi *= 2.0;
        guard += 1;
        if guard >= 60 {
            return None;
        }
    }
    Some(bisect(&f, 0.0, hi, true))
}

/// Bisection for a monotone `f` on `[lo, hi]`. With `increasing == true`
/// returns the root of an increasing function (largest point with
/// `f ≤ 0`); otherwise of a decreasing one (smallest point with `f ≤ 0`).
///
/// Runs up to 70 halvings, but stops at the first one that leaves the
/// bracket bit-for-bit unchanged: each step is a pure function of
/// `(lo, hi)`, so every later step would leave it unchanged too, and the
/// result equals the full 70-step run's exactly.
fn bisect(f: &impl Fn(f64) -> f64, mut lo: f64, mut hi: f64, increasing: bool) -> f64 {
    #[cfg(test)]
    if tests::FIXED_BISECT.get() {
        return bisect_fixed(f, lo, hi, increasing);
    }
    for _ in 0..70 {
        let mid = 0.5 * (lo + hi);
        let v = f(mid);
        let go_right = if increasing { v < 0.0 } else { v > 0.0 };
        let end = if go_right { &mut lo } else { &mut hi };
        if end.to_bits() == mid.to_bits() {
            break;
        }
        *end = mid;
    }
    0.5 * (lo + hi)
}

/// The always-70-step [`bisect`]: the oracle it is checked against.
#[cfg(test)]
fn bisect_fixed(f: &impl Fn(f64) -> f64, mut lo: f64, mut hi: f64, increasing: bool) -> f64 {
    for _ in 0..70 {
        let mid = 0.5 * (lo + hi);
        let v = f(mid);
        let go_right = if increasing { v < 0.0 } else { v > 0.0 };
        if go_right {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    0.5 * (lo + hi)
}

/// Samples the feasible split window and returns the split whose merge
/// region lies closest to the hint. Distance-to-hint is piecewise linear
/// in the split, so uniform sampling finds a near-optimal slide.
fn pick_split_toward(
    a: &MergeNode,
    b: &MergeNode,
    d: f64,
    ea_lo: f64,
    ea_hi: f64,
    hint: Point,
) -> f64 {
    const SAMPLES: usize = 17;
    let mut best_ea = ea_lo;
    let mut best_d = f64::INFINITY;
    for k in 0..SAMPLES {
        let ea = ea_lo + (ea_hi - ea_lo) * k as f64 / (SAMPLES - 1) as f64;
        let eb = d - ea;
        let Some(region) = a.region.inflated(ea).intersection(&b.region.inflated(eb)) else {
            continue;
        };
        let dist = region.dist_to_point(hint);
        if dist < best_d {
            best_d = dist;
            best_ea = ea;
        }
    }
    best_ea
}

/// Skew of a finished tree under a delay model: the spread of
/// source→sink path lengths (µm) or Elmore delays from an ideal source
/// (ps).
pub fn skew_of(tree: &ClockTree, model: &DelayModel) -> f64 {
    match model {
        DelayModel::PathLength => sllt_tree::metrics::path_length_skew(tree),
        DelayModel::Elmore(tech) => {
            let sinks = tree.sinks();
            if sinks.is_empty() {
                return 0.0;
            }
            let delay = elmore_delays(tree, tech);
            let (mut lo, mut hi) = (f64::INFINITY, f64::NEG_INFINITY);
            for s in sinks {
                lo = lo.min(delay[s.index()]);
                hi = hi.max(delay[s.index()]);
            }
            hi - lo
        }
    }
}

/// Elmore delay from an ideal source to every node, ps, indexed by arena
/// slot: the buffered timing walk over a bare routing tree. Routing trees
/// carry no buffers, so the walk gets an empty library, and a buffered
/// tree stops at its unknown-cell panic.
fn elmore_delays(tree: &ClockTree, tech: &Technology) -> Vec<f64> {
    propagate(tree, tech, &BufferLibrary::from_cells(Vec::new()), |_| 1.0).delay
}

/// DME phase 2: embeds the arena under a new tree rooted at the net
/// source. The root (the last entry) lands at its region's point nearest
/// the source, joined by a plain shortest trunk, and every other entry at
/// its region's point nearest its parent's, its edge keeping the assigned
/// wire length.
///
/// Explicit preorder stack (left child pushed last, so embedded first):
/// tree node ids are allocated in the order a recursive descent would
/// allocate them, and chain-deep topologies embed without touching the
/// thread stack.
fn embed_down(net: &ClockNet, nodes: &[MergeNode]) -> ClockTree {
    let mut tree = ClockTree::new(net.source);
    let root_idx = nodes.len() - 1;
    let root_pos = nodes[root_idx].region.nearest_to(net.source);
    let mut stack: Vec<(usize, NodeId, Point, Option<f64>)> =
        vec![(root_idx, tree.root(), root_pos, None)];
    while let Some((idx, parent, pos, edge)) = stack.pop() {
        let n = &nodes[idx];
        let id = match n.sink {
            Some(i) => tree.add_sink_indexed(parent, pos, net.sinks[i].cap_ff, i),
            None => tree.add_steiner(parent, pos),
        };
        if let Some(e) = edge {
            tree.set_edge_len(id, e.max(tree.node(id).edge_len()));
        }
        if let Some((ia, ib, ea, eb)) = n.kids {
            let pa = nodes[ia].region.nearest_to(pos);
            let pb = nodes[ib].region.nearest_to(pos);
            stack.push((ib, id, pb, Some(eb)));
            stack.push((ia, id, pa, Some(ea)));
        }
    }
    tree
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topogen::TopologyScheme;
    use sllt_rng::prelude::*;
    use sllt_tree::{metrics::path_length_skew, Sink, SlltMetrics};

    thread_local! {
        /// Routes [`bisect`] to its fixed-step oracle on this thread.
        pub(super) static FIXED_BISECT: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
    }

    /// Every float of a merge, as bits.
    fn merged_bits(m: &Result<Merged, DmeError>) -> Result<[u64; 9], DmeError> {
        let m = m.as_ref().map_err(Clone::clone)?;
        let (ulo, uhi, vlo, vhi) = m.region.bounds();
        Ok([ulo, uhi, vlo, vhi, m.lo, m.hi, m.cap, m.ea, m.eb].map(f64::to_bits))
    }

    /// 10⁵ random merges (half per delay model), with and without hints.
    #[test]
    fn early_exit_bisection_equals_the_fixed_70_steps() {
        let mut rng = StdRng::seed_from_u64(70);
        for model in [
            DelayModel::PathLength,
            DelayModel::Elmore(Technology::n28()),
        ] {
            let elmore = matches!(model, DelayModel::Elmore(_));
            for _ in 0..50_000 {
                let bound: f64 = rng.random_range(0.0..40.0);
                let mut node = || {
                    let p = Point::new(rng.random_range(0.0..150.0), rng.random_range(0.0..150.0));
                    let lo = rng.random_range(0.0..60.0);
                    MergeNode {
                        region: RRect::from_point(p).inflated(rng.random_range(0.0..10.0)),
                        lo,
                        hi: lo + rng.random_range(0.0..bound.max(1e-9)),
                        cap: if elmore {
                            rng.random_range(0.0..300.0)
                        } else {
                            0.0
                        },
                        kids: None,
                        sink: None,
                    }
                };
                let (a, b) = (node(), node());
                let hint = rng.random_bool(0.3).then(|| {
                    Point::new(rng.random_range(0.0..150.0), rng.random_range(0.0..150.0))
                });
                let opts = DmeOptions {
                    skew_bound: bound,
                    model,
                };
                let early = merged_bits(&merge(&a, &b, &opts, hint));
                FIXED_BISECT.set(true);
                let fixed = merged_bits(&merge(&a, &b, &opts, hint));
                FIXED_BISECT.set(false);
                assert_eq!(early, fixed, "{model:?}: bound {bound}");
            }
        }
    }

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

    /// Options for a bounded-skew tree under Elmore delay at `bound` ps.
    fn elmore(bound: f64, tech: &Technology) -> DmeOptions {
        DmeOptions {
            skew_bound: bound,
            model: DelayModel::Elmore(*tech),
        }
    }

    #[test]
    fn zst_has_zero_pathlength_skew() {
        for seed in 0..10 {
            let net = random_net(seed, 17);
            for scheme in TopologyScheme::ALL {
                let topo = scheme.build(&net);
                let t = zst_dme(&net, &topo);
                t.validate().unwrap();
                assert_eq!(t.sinks().len(), 17);
                let skew = path_length_skew(&t);
                assert!(skew < 1e-6, "{scheme} seed {seed}: skew {skew}");
            }
        }
    }

    #[test]
    fn bst_respects_every_bound() {
        for seed in 0..10 {
            let net = random_net(seed + 50, 24);
            for bound in [0.0, 5.0, 20.0, 80.0, 400.0] {
                let topo = TopologyScheme::GreedyDist.build(&net);
                let t = bst_dme(&net, &topo, bound);
                t.validate().unwrap();
                let skew = path_length_skew(&t);
                assert!(
                    skew <= bound + 1e-6,
                    "seed {seed} bound {bound}: skew {skew}"
                );
            }
        }
    }

    #[test]
    fn elmore_zst_has_zero_elmore_skew() {
        let tech = Technology::n28();
        for seed in 0..6 {
            let net = random_net(seed + 20, 15);
            let topo = TopologyScheme::GreedyDist.build(&net);
            let t = dme(&net, &topo, &elmore(0.0, &tech));
            t.validate().unwrap();
            let skew = skew_of(&t, &DelayModel::Elmore(tech));
            assert!(skew < 1e-6, "seed {seed}: Elmore skew {skew} ps");
        }
    }

    #[test]
    fn elmore_bst_respects_ps_bounds() {
        let tech = Technology::n28();
        for seed in 0..6 {
            let net = random_net(seed + 80, 20);
            for bound in [1.0, 5.0, 10.0, 80.0] {
                let topo = TopologyScheme::BiCluster.build(&net);
                let t = dme(&net, &topo, &elmore(bound, &tech));
                let skew = skew_of(&t, &DelayModel::Elmore(tech));
                assert!(
                    skew <= bound + 1e-6,
                    "seed {seed} bound {bound} ps: skew {skew} ps"
                );
            }
        }
    }

    #[test]
    fn looser_bounds_save_wire() {
        let mut tighter_total = 0.0;
        let mut looser_total = 0.0;
        for seed in 0..20 {
            let net = random_net(seed + 200, 20);
            let topo = TopologyScheme::GreedyDist.build(&net);
            tighter_total += bst_dme(&net, &topo, 2.0).wirelength();
            looser_total += bst_dme(&net, &topo, 100.0).wirelength();
        }
        assert!(
            looser_total < tighter_total,
            "relaxing skew must reduce wire on aggregate: {looser_total} vs {tighter_total}"
        );
    }

    #[test]
    fn single_sink_is_direct_wire() {
        let net = ClockNet::new(Point::ORIGIN, vec![Sink::new(Point::new(3.0, 4.0), 1.0)]);
        let t = zst_dme(&net, &Topology::sink(0));
        assert_eq!(t.sinks().len(), 1);
        assert!((t.wirelength() - 7.0).abs() < 1e-9);
    }

    #[test]
    fn two_symmetric_sinks_merge_at_middle() {
        let net = ClockNet::new(
            Point::new(0.0, 10.0),
            vec![
                Sink::new(Point::new(-10.0, 0.0), 1.0),
                Sink::new(Point::new(10.0, 0.0), 1.0),
            ],
        );
        let topo = Topology::merge(Topology::sink(0), Topology::sink(1));
        let t = zst_dme(&net, &topo);
        assert!(path_length_skew(&t) < 1e-9);
        // No detour needed for a symmetric pair.
        let direct: f64 = 20.0; // merge wire
        assert!(
            t.wirelength() <= direct + 20.0 + 1e-9,
            "wl {}",
            t.wirelength()
        );
    }

    /// Sinks A/B merge into a subtree of delay 6; sink C sits only 4 µm
    /// from the merge point. Balancing a delay-6 subtree against a
    /// delay-0 sink over 4 µm of distance forces 2 µm of detour under
    /// zero skew.
    fn detour_net_and_topo() -> (ClockNet, Topology) {
        let net = ClockNet::new(
            Point::ORIGIN,
            vec![
                Sink::new(Point::new(0.0, 6.0), 1.0),
                Sink::new(Point::new(0.0, -6.0), 1.0),
                Sink::new(Point::new(4.0, 0.0), 1.0),
            ],
        );
        let topo = Topology::merge(
            Topology::merge(Topology::sink(0), Topology::sink(1)),
            Topology::sink(2),
        );
        (net, topo)
    }

    #[test]
    fn detour_appears_for_imbalanced_merges() {
        let (net, topo) = detour_net_and_topo();
        let t = zst_dme(&net, &topo);
        assert!(path_length_skew(&t) < 1e-6);
        // A/B edges (6+6) + C edge carrying 6 (4 distance + 2 detour).
        assert!(
            (t.wirelength() - 18.0).abs() < 1e-6,
            "wl {}",
            t.wirelength()
        );
        t.validate().unwrap();
    }

    #[test]
    fn bst_trades_skew_for_detour_wire() {
        let (net, topo) = detour_net_and_topo();
        let zst = zst_dme(&net, &topo).wirelength();
        let bst_tree = bst_dme(&net, &topo, 3.0);
        let bst = bst_tree.wirelength();
        assert!(bst < zst, "bound 3 should save detour: {bst} vs {zst}");
        assert!((bst - 16.0).abs() < 1e-6, "wl {bst}");
        assert!(path_length_skew(&bst_tree) <= 3.0 + 1e-9);
    }

    #[test]
    fn zst_metrics_match_paper_shape() {
        // ZST: γ = 1 exactly; α and β pay for it (paper Table 1).
        let net = random_net(7, 16);
        let topo = TopologyScheme::GreedyDist.build(&net);
        let t = zst_dme(&net, &topo);
        let ref_wl = crate::rsmt::rsmt_wirelength(&net);
        let m = SlltMetrics::compute(&t, ref_wl);
        assert!((m.skewness - 1.0).abs() < 1e-6);
        assert!(m.lightness >= 1.0);
        assert!(m.shallowness >= 1.0);
    }

    #[test]
    fn looser_elmore_bounds_save_wire() {
        let tech = Technology::n28();
        let (mut tight, mut loose) = (0.0, 0.0);
        for seed in 0..10 {
            let net = random_net(seed + 400, 18);
            let topo = TopologyScheme::GreedyDist.build(&net);
            tight += dme(&net, &topo, &elmore(0.1, &tech)).wirelength();
            loose += dme(&net, &topo, &elmore(20.0, &tech)).wirelength();
        }
        assert!(
            loose < tight,
            "relaxing the ps bound must reduce wire on aggregate: {loose} vs {tight}"
        );
    }

    #[test]
    #[should_panic(expected = "sinkless")]
    fn empty_net_rejected() {
        let net = ClockNet::new(Point::ORIGIN, vec![]);
        let _ = zst_dme(&net, &Topology::sink(0));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn bad_topology_rejected() {
        let net = ClockNet::new(Point::ORIGIN, vec![Sink::new(Point::new(1.0, 1.0), 1.0)]);
        let _ = zst_dme(&net, &Topology::sink(3));
    }

    fn two_sink_net() -> (ClockNet, Topology) {
        let net = ClockNet::new(
            Point::ORIGIN,
            vec![
                Sink::new(Point::new(0.0, 4.0), 1.0),
                Sink::new(Point::new(4.0, 0.0), 1.0),
            ],
        );
        let topo = Topology::merge(Topology::sink(0), Topology::sink(1));
        (net, topo)
    }

    #[test]
    fn try_dme_reports_every_degeneracy() {
        let opts = DmeOptions {
            skew_bound: 1.0,
            model: DelayModel::PathLength,
        };
        let (net, topo) = two_sink_net();

        let empty = ClockNet::new(Point::ORIGIN, vec![]);
        assert_eq!(
            try_dme_intervals(&empty, &Topology::sink(0), &opts, &[]),
            Err(DmeError::SinklessNet)
        );

        let bad_bound = DmeOptions {
            skew_bound: -1.0,
            ..opts
        };
        assert_eq!(
            try_dme_intervals(&net, &topo, &bad_bound, &[(0.0, 0.0); 2]),
            Err(DmeError::NegativeSkewBound(-1.0))
        );

        assert_eq!(
            try_dme_intervals(&net, &topo, &opts, &[(0.0, 0.0)]),
            Err(DmeError::IntervalCountMismatch {
                intervals: 1,
                sinks: 2
            })
        );

        assert_eq!(
            try_dme_intervals(&net, &topo, &opts, &[(2.0, 1.0), (0.0, 0.0)]),
            Err(DmeError::BadSinkInterval {
                sink: 0,
                lo: 2.0,
                hi: 1.0
            })
        );

        let err = try_dme_intervals(&net, &topo, &opts, &[(0.0, 0.0), (1.0, 9.0)]).unwrap_err();
        assert!(matches!(
            err,
            DmeError::IntervalExceedsBound { sink: 1, bound, .. } if bound == 1.0
        ));

        let bad_topo = Topology::merge(Topology::sink(0), Topology::sink(7));
        assert_eq!(
            try_dme_intervals(&net, &bad_topo, &opts, &[(0.0, 0.0); 2]),
            Err(DmeError::SinkIndexOutOfRange { index: 7, len: 2 })
        );

        let poisoned = ClockNet::new(
            Point::ORIGIN,
            vec![
                Sink::new(Point::new(f64::NAN, 4.0), 1.0),
                Sink::new(Point::new(4.0, 0.0), 1.0),
            ],
        );
        assert_eq!(
            try_dme_intervals(&poisoned, &topo, &opts, &[(0.0, 0.0); 2]),
            Err(DmeError::NonFiniteGeometry)
        );
    }

    #[test]
    fn try_dme_matches_the_panicking_path_on_good_input() {
        let (net, topo) = two_sink_net();
        let opts = DmeOptions {
            skew_bound: 2.0,
            model: DelayModel::PathLength,
        };
        let a = try_dme_intervals(&net, &topo, &opts, &[(0.0, 0.0); 2]).unwrap();
        let b = dme(&net, &topo, &opts);
        assert_eq!(a, b);
    }

    #[test]
    fn dme_error_display_is_informative() {
        for (e, needle) in [
            (DmeError::SinklessNet, "sinkless"),
            (DmeError::NegativeSkewBound(-2.0), "-2"),
            (
                DmeError::IntervalExceedsBound {
                    sink: 3,
                    width: 9.0,
                    bound: 1.0,
                },
                "wider",
            ),
            (
                DmeError::SinkIndexOutOfRange { index: 7, len: 2 },
                "out of range",
            ),
            (DmeError::NonFiniteGeometry, "non-finite"),
            (DmeError::DetourDiverged, "diverged"),
        ] {
            assert!(e.to_string().contains(needle), "{e}");
        }
    }

    #[test]
    #[cfg(feature = "proptest")]
    fn proptest_bst_bound_holds() {
        use proptest::prelude::*;
        proptest!(|(seed in 0u64..100, n in 2usize..20, bound in 0f64..60.0)| {
            let net = random_net(seed + 1000, n);
            let topo = TopologyScheme::BiCluster.build(&net);
            let t = bst_dme(&net, &topo, bound);
            prop_assert!(path_length_skew(&t) <= bound + 1e-6);
            prop_assert!(t.validate().is_ok());
        });
    }

    #[test]
    #[cfg(feature = "proptest")]
    fn proptest_elmore_bound_holds() {
        use proptest::prelude::*;
        let tech = Technology::n28();
        proptest!(|(seed in 0u64..60, n in 2usize..15, bound in 0f64..20.0)| {
            let net = random_net(seed + 3000, n);
            let topo = TopologyScheme::GreedyDist.build(&net);
            let t = dme(&net, &topo, &elmore(bound, &tech));
            prop_assert!(skew_of(&t, &DelayModel::Elmore(tech)) <= bound + 1e-6);
            prop_assert!(t.validate().is_ok());
        });
    }
}
