//! The 45°-rotated coordinate space used by deferred-merge embedding.
//!
//! Under the map `(u, v) = (x + y, x − y)` the Manhattan plane becomes a
//! Chebyshev plane: L1 distance in (x, y) equals L∞ distance in (u, v), an
//! L1 ball becomes an axis-aligned square, and a *tilted rectangular region*
//! (TRR — a Manhattan segment inflated by an L1 ball, the merging-region
//! shape of DME) becomes a plain axis-aligned rectangle.
//!
//! All merging-region arithmetic in this workspace therefore happens on
//! [`RRect`]: intersection is rectangle intersection, Minkowski inflation is
//! interval inflation, and set distance is the per-axis gap maximum.

use crate::{Point, EPS};
use std::fmt;

/// A point in rotated coordinates.
///
/// ```
/// use sllt_geom::{Point, RPoint};
/// let p = Point::new(3.0, 1.0);
/// let r = RPoint::from_xy(p);
/// assert_eq!((r.u, r.v), (4.0, 2.0));
/// assert!(r.to_xy().approx_eq(p));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct RPoint {
    /// `x + y`.
    pub u: f64,
    /// `x − y`.
    pub v: f64,
}

impl RPoint {
    /// Creates a rotated-space point directly from `(u, v)`.
    #[inline]
    pub const fn new(u: f64, v: f64) -> Self {
        RPoint { u, v }
    }

    /// Rotates a placement-plane point into (u, v) space.
    #[inline]
    pub fn from_xy(p: Point) -> Self {
        RPoint::new(p.x + p.y, p.x - p.y)
    }

    /// Rotates back into the placement plane.
    #[inline]
    pub fn to_xy(self) -> Point {
        Point::new((self.u + self.v) / 2.0, (self.u - self.v) / 2.0)
    }

    /// L∞ distance in rotated space — equal to the L1 distance between the
    /// corresponding placement-plane points.
    #[inline]
    pub fn dist_linf(self, other: RPoint) -> f64 {
        (self.u - other.u).abs().max((self.v - other.v).abs())
    }
}

/// An axis-aligned rectangle in rotated space: the uniform representation of
/// every merging-region shape DME needs (points, Manhattan arcs, TRRs and
/// bounded-skew merging regions).
///
/// Invariant: `ulo ≤ uhi` and `vlo ≤ vhi` (degenerate extents allowed).
///
/// # Example
///
/// ```
/// use sllt_geom::{Point, RRect};
/// // Two sinks 4 µm apart merge with 2 µm of wire to each side: their
/// // radius-2 TRRs intersect in a single Manhattan arc.
/// let a = RRect::from_point(Point::new(0.0, 0.0)).inflated(2.0);
/// let b = RRect::from_point(Point::new(4.0, 0.0)).inflated(2.0);
/// let arc = a.intersection(&b).unwrap();
/// assert!(arc.contains_xy(Point::new(2.0, 0.0)));
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RRect {
    ulo: f64,
    uhi: f64,
    vlo: f64,
    vhi: f64,
}

impl RRect {
    /// Creates a rotated rectangle from interval bounds.
    ///
    /// # Panics
    ///
    /// Panics if an interval is inverted by more than [`EPS`]; tiny
    /// floating-point inversions are snapped shut.
    pub fn new(ulo: f64, uhi: f64, vlo: f64, vhi: f64) -> Self {
        assert!(
            uhi - ulo >= -EPS && vhi - vlo >= -EPS,
            "inverted RRect interval: u=[{ulo}, {uhi}] v=[{vlo}, {vhi}]"
        );
        RRect {
            ulo,
            uhi: uhi.max(ulo),
            vlo,
            vhi: vhi.max(vlo),
        }
    }

    /// The degenerate region containing exactly `p`.
    pub fn from_point(p: Point) -> Self {
        let r = RPoint::from_xy(p);
        RRect::new(r.u, r.u, r.v, r.v)
    }

    /// The Manhattan segment between two placement-plane points, when the
    /// segment is a valid Manhattan arc (slope ±1 or degenerate).
    ///
    /// Returns `None` when the two points do not lie on a common ±1-slope
    /// line — such a pair bounds a full rectangle, not an arc.
    pub fn arc(a: Point, b: Point) -> Option<Self> {
        let ra = RPoint::from_xy(a);
        let rb = RPoint::from_xy(b);
        if (ra.u - rb.u).abs() <= EPS || (ra.v - rb.v).abs() <= EPS {
            Some(RRect::new(
                ra.u.min(rb.u),
                ra.u.max(rb.u),
                ra.v.min(rb.v),
                ra.v.max(rb.v),
            ))
        } else {
            None
        }
    }

    /// Interval bounds `(ulo, uhi, vlo, vhi)`.
    pub fn bounds(&self) -> (f64, f64, f64, f64) {
        (self.ulo, self.uhi, self.vlo, self.vhi)
    }

    /// Minkowski sum with an L1 ball of radius `r` in the placement plane
    /// (an L∞ square here). This is the TRR construction.
    ///
    /// # Panics
    ///
    /// Panics if `r` is negative beyond floating-point noise ([`EPS`]);
    /// tiny negative radii (arithmetic dust from balanced merges) are
    /// snapped to zero.
    pub fn inflated(&self, r: f64) -> Self {
        assert!(r >= -EPS, "negative TRR radius {r}");
        let r = r.max(0.0);
        RRect::new(self.ulo - r, self.uhi + r, self.vlo - r, self.vhi + r)
    }

    /// Set intersection, `None` when empty. Near-miss gaps up to [`EPS`]
    /// are treated as touching so exactly-balanced merges are stable.
    pub fn intersection(&self, other: &RRect) -> Option<RRect> {
        let ulo = self.ulo.max(other.ulo);
        let uhi = self.uhi.min(other.uhi);
        let vlo = self.vlo.max(other.vlo);
        let vhi = self.vhi.min(other.vhi);
        if uhi - ulo >= -EPS && vhi - vlo >= -EPS {
            Some(RRect::new(ulo, uhi.max(ulo), vlo, vhi.max(vlo)))
        } else {
            None
        }
    }

    /// Minimum L1 distance (in the placement plane) between the two
    /// regions; zero when they intersect.
    pub fn dist(&self, other: &RRect) -> f64 {
        let gap_u = (self.ulo - other.uhi).max(other.ulo - self.uhi).max(0.0);
        let gap_v = (self.vlo - other.vhi).max(other.vlo - self.vhi).max(0.0);
        gap_u.max(gap_v)
    }

    /// Minimum L1 distance from a placement-plane point to the region.
    pub fn dist_to_point(&self, p: Point) -> f64 {
        self.dist(&RRect::from_point(p))
    }

    /// The point of the region closest (L1) to `p`; `p` itself when inside.
    pub fn nearest_to(&self, p: Point) -> Point {
        let r = RPoint::from_xy(p);
        RPoint::new(r.u.clamp(self.ulo, self.uhi), r.v.clamp(self.vlo, self.vhi)).to_xy()
    }

    /// An arbitrary representative point (the region centre).
    pub fn center(&self) -> Point {
        RPoint::new((self.ulo + self.uhi) / 2.0, (self.vlo + self.vhi) / 2.0).to_xy()
    }

    /// Whether the placement-plane point lies in the region.
    pub fn contains_xy(&self, p: Point) -> bool {
        let r = RPoint::from_xy(p);
        r.u >= self.ulo - EPS
            && r.u <= self.uhi + EPS
            && r.v >= self.vlo - EPS
            && r.v <= self.vhi + EPS
    }
}

impl fmt::Display for RRect {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "RRect{{u: [{:.3}, {:.3}], v: [{:.3}, {:.3}]}}",
            self.ulo, self.uhi, self.vlo, self.vhi
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rotation_roundtrip() {
        let p = Point::new(3.5, -1.25);
        assert!(RPoint::from_xy(p).to_xy().approx_eq(p));
    }

    #[test]
    fn rotated_linf_equals_l1() {
        let p = Point::new(1.0, 2.0);
        let q = Point::new(-3.0, 5.0);
        let d = RPoint::from_xy(p).dist_linf(RPoint::from_xy(q));
        assert!((d - p.dist(q)).abs() < 1e-12);
    }

    #[test]
    fn trr_intersection_of_balanced_merge_is_an_arc() {
        // Axis-aligned pair: the bisector at equal radius is one point.
        let ta = RRect::from_point(Point::new(0.0, 0.0)).inflated(2.0);
        let tb = RRect::from_point(Point::new(4.0, 0.0)).inflated(2.0);
        let m = ta.intersection(&tb).unwrap();
        assert!(m.contains_xy(Point::new(2.0, 0.0)));

        // Diagonal pair: the merge region is a full Manhattan arc.
        let ta = RRect::from_point(Point::new(0.0, 0.0)).inflated(2.0);
        let tb = RRect::from_point(Point::new(2.0, 2.0)).inflated(2.0);
        let arc = ta.intersection(&tb).unwrap();
        assert!(arc.contains_xy(Point::new(1.0, 1.0)));
        assert!(arc.contains_xy(Point::new(0.0, 2.0)));
        assert!(arc.contains_xy(Point::new(2.0, 0.0)));
        assert!(!arc.contains_xy(Point::new(0.0, 0.0)));
    }

    #[test]
    fn region_distance_matches_point_distance_for_points() {
        let a = RRect::from_point(Point::new(0.0, 0.0));
        let b = RRect::from_point(Point::new(3.0, 4.0));
        assert!((a.dist(&b) - 7.0).abs() < 1e-12);
        assert_eq!(a.dist(&a), 0.0);
    }

    #[test]
    fn nearest_point_is_inside_and_at_dist() {
        let region = RRect::from_point(Point::new(0.0, 0.0)).inflated(2.0);
        let p = Point::new(10.0, 0.0);
        let n = region.nearest_to(p);
        assert!(region.contains_xy(n));
        assert!((p.dist(n) - region.dist_to_point(p)).abs() < 1e-9);
        assert!((region.dist_to_point(p) - 8.0).abs() < 1e-9);
        // Inside point maps to itself.
        let inside = Point::new(0.5, 0.5);
        assert!(region.nearest_to(inside).approx_eq(inside));
    }

    #[test]
    fn arc_detects_manhattan_arcs() {
        assert!(RRect::arc(Point::new(0.0, 0.0), Point::new(2.0, 2.0)).is_some());
        assert!(RRect::arc(Point::new(0.0, 0.0), Point::new(2.0, -2.0)).is_some());
        assert!(RRect::arc(Point::new(0.0, 0.0), Point::new(0.0, 0.0)).is_some());
        assert!(RRect::arc(Point::new(0.0, 0.0), Point::new(3.0, 1.0)).is_none());
    }

    #[cfg(feature = "proptest")]
    mod prop {
        use super::*;
        use proptest::prelude::*;

        fn arb_point() -> impl Strategy<Value = Point> {
            (-100f64..100.0, -100f64..100.0).prop_map(|(x, y)| Point::new(x, y))
        }

        proptest! {
            #[test]
            fn trr_contains_exactly_the_l1_ball(c in arb_point(), p in arb_point(), r in 0f64..50.0) {
                let trr = RRect::from_point(c).inflated(r);
                prop_assert_eq!(trr.contains_xy(p), c.dist(p) <= r + 1e-6);
            }

            #[test]
            fn balanced_trrs_always_intersect(a in arb_point(), b in arb_point()) {
                // Radii summing to the separation distance must touch: this is
                // the fundamental DME merge step.
                let d = a.dist(b);
                let ta = RRect::from_point(a).inflated(d / 2.0);
                let tb = RRect::from_point(b).inflated(d / 2.0);
                let m = ta.intersection(&tb);
                prop_assert!(m.is_some());
                // Any point of the merge region is equidistant-ish: within d/2
                // of both children.
                let p = m.unwrap().center();
                prop_assert!(a.dist(p) <= d / 2.0 + 1e-6);
                prop_assert!(b.dist(p) <= d / 2.0 + 1e-6);
            }

            #[test]
            fn dist_is_achieved_by_nearest(c in arb_point(), r in 0f64..20.0, p in arb_point()) {
                let region = RRect::from_point(c).inflated(r);
                let n = region.nearest_to(p);
                prop_assert!(region.contains_xy(n));
                prop_assert!((p.dist(n) - region.dist_to_point(p)).abs() < 1e-6);
            }

            #[test]
            fn inflation_triangle(a in arb_point(), b in arb_point(), ra in 0f64..30.0, rb in 0f64..30.0) {
                let ta = RRect::from_point(a).inflated(ra);
                let tb = RRect::from_point(b).inflated(rb);
                let expect = (a.dist(b) - ra - rb).max(0.0);
                prop_assert!((ta.dist(&tb) - expect).abs() < 1e-6);
            }
        }
    }
}
