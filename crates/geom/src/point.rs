//! Points in the Manhattan plane.

use std::fmt;
use std::ops::{Add, Div, Mul, Sub};

/// A location in the placement plane, in µm.
///
/// Points compare exactly (`PartialEq` on the raw `f64`s); use
/// [`Point::approx_eq`] when tolerance is needed.
///
/// # Example
///
/// ```
/// use sllt_geom::Point;
/// let p = Point::new(1.0, 2.0);
/// let q = Point::new(4.0, 6.0);
/// assert_eq!(p.dist(q), 7.0);
/// assert_eq!(p.midpoint(q), Point::new(2.5, 4.0));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Point {
    /// Horizontal coordinate in µm.
    pub x: f64,
    /// Vertical coordinate in µm.
    pub y: f64,
}

impl Point {
    /// Creates a point at `(x, y)`.
    #[inline]
    pub const fn new(x: f64, y: f64) -> Self {
        Point { x, y }
    }

    /// The origin `(0, 0)`.
    pub const ORIGIN: Point = Point::new(0.0, 0.0);

    /// Manhattan (L1) distance to `other`.
    #[inline]
    pub fn dist(self, other: Point) -> f64 {
        (self.x - other.x).abs() + (self.y - other.y).abs()
    }

    /// Squared Euclidean distance, avoiding the square root.
    #[inline]
    pub fn dist_l2_sq(self, other: Point) -> f64 {
        (self.x - other.x).powi(2) + (self.y - other.y).powi(2)
    }

    /// Chebyshev (L∞) distance to `other`.
    #[inline]
    pub fn dist_linf(self, other: Point) -> f64 {
        (self.x - other.x).abs().max((self.y - other.y).abs())
    }

    /// The point halfway between `self` and `other`.
    #[inline]
    pub fn midpoint(self, other: Point) -> Point {
        Point::new((self.x + other.x) / 2.0, (self.y + other.y) / 2.0)
    }

    /// Returns `true` when both coordinates are within [`crate::EPS`].
    #[inline]
    pub fn approx_eq(self, other: Point) -> bool {
        crate::approx_eq(self.x, other.x) && crate::approx_eq(self.y, other.y)
    }

    /// Walks from `self` towards `target` along an L-shaped (staircase)
    /// path for exactly `len` µm and returns where it lands.
    ///
    /// The horizontal leg is walked first. If `len` exceeds the Manhattan
    /// distance, the walk stops at `target` (no overshoot); callers that
    /// need detour wire handle the excess themselves.
    pub fn walk_towards(self, target: Point, len: f64) -> Point {
        let dx = target.x - self.x;
        let hor = dx.abs();
        if len <= hor {
            return Point::new(self.x + dx.signum() * len, self.y);
        }
        let rest = (len - hor).min((target.y - self.y).abs());
        Point::new(target.x, self.y + (target.y - self.y).signum() * rest)
    }

    /// The 2D cross product `(b - a) × (c - a)`; positive when `c` is to
    /// the left of the directed line `a → b`.
    #[inline]
    pub fn cross(a: Point, b: Point, c: Point) -> f64 {
        (b.x - a.x) * (c.y - a.y) - (b.y - a.y) * (c.x - a.x)
    }
}

impl Add for Point {
    type Output = Point;
    #[inline]
    fn add(self, rhs: Point) -> Point {
        Point::new(self.x + rhs.x, self.y + rhs.y)
    }
}

impl Sub for Point {
    type Output = Point;
    #[inline]
    fn sub(self, rhs: Point) -> Point {
        Point::new(self.x - rhs.x, self.y - rhs.y)
    }
}

impl Mul<f64> for Point {
    type Output = Point;
    #[inline]
    fn mul(self, rhs: f64) -> Point {
        Point::new(self.x * rhs, self.y * rhs)
    }
}

impl Div<f64> for Point {
    type Output = Point;
    #[inline]
    fn div(self, rhs: f64) -> Point {
        Point::new(self.x / rhs, self.y / rhs)
    }
}

impl fmt::Display for Point {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({:.3}, {:.3})", self.x, self.y)
    }
}

impl From<(f64, f64)> for Point {
    fn from((x, y): (f64, f64)) -> Self {
        Point::new(x, y)
    }
}

/// Arithmetic mean of a set of points; `None` when empty.
pub fn centroid(points: &[Point]) -> Option<Point> {
    if points.is_empty() {
        return None;
    }
    let sum = points.iter().fold(Point::ORIGIN, |acc, &p| acc + p);
    Some(sum / points.len() as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn manhattan_distance_is_symmetric_and_zero_on_self() {
        let p = Point::new(3.0, -2.0);
        let q = Point::new(-1.0, 5.0);
        assert_eq!(p.dist(q), q.dist(p));
        assert_eq!(p.dist(p), 0.0);
        assert_eq!(p.dist(q), 11.0);
    }

    #[test]
    fn midpoint_is_halfway() {
        let p = Point::new(0.0, 0.0);
        let q = Point::new(10.0, 4.0);
        assert!(p.midpoint(q).approx_eq(Point::new(5.0, 2.0)));
    }

    #[test]
    fn walk_towards_covers_horizontal_then_vertical() {
        let p = Point::new(0.0, 0.0);
        let q = Point::new(3.0, 4.0);
        assert!(p.walk_towards(q, 2.0).approx_eq(Point::new(2.0, 0.0)));
        assert!(p.walk_towards(q, 3.0).approx_eq(Point::new(3.0, 0.0)));
        assert!(p.walk_towards(q, 5.0).approx_eq(Point::new(3.0, 2.0)));
        assert!(p.walk_towards(q, 7.0).approx_eq(q));
        // Overshoot is clamped at the target.
        assert!(p.walk_towards(q, 100.0).approx_eq(q));
    }

    #[test]
    fn walk_towards_handles_negative_directions() {
        let p = Point::new(5.0, 5.0);
        let q = Point::new(1.0, 2.0);
        assert!(p.walk_towards(q, 4.0).approx_eq(Point::new(1.0, 5.0)));
        assert!(p.walk_towards(q, 6.0).approx_eq(Point::new(1.0, 3.0)));
    }

    #[test]
    fn centroid_of_square() {
        let pts = [
            Point::new(0.0, 0.0),
            Point::new(2.0, 0.0),
            Point::new(2.0, 2.0),
            Point::new(0.0, 2.0),
        ];
        assert!(centroid(&pts).unwrap().approx_eq(Point::new(1.0, 1.0)));
        assert!(centroid(&[]).is_none());
    }

    #[test]
    fn cross_sign_detects_turns() {
        let a = Point::new(0.0, 0.0);
        let b = Point::new(1.0, 0.0);
        assert!(Point::cross(a, b, Point::new(1.0, 1.0)) > 0.0);
        assert!(Point::cross(a, b, Point::new(1.0, -1.0)) < 0.0);
        assert_eq!(Point::cross(a, b, Point::new(2.0, 0.0)), 0.0);
    }

    #[cfg(feature = "proptest")]
    mod prop {
        use super::*;
        use proptest::prelude::*;

        fn arb_point() -> impl Strategy<Value = Point> {
            (-1e4f64..1e4, -1e4f64..1e4).prop_map(|(x, y)| Point::new(x, y))
        }

        proptest! {
            #[test]
            fn triangle_inequality(a in arb_point(), b in arb_point(), c in arb_point()) {
                prop_assert!(a.dist(c) <= a.dist(b) + b.dist(c) + 1e-6);
            }

            #[test]
            fn l1_dominates_linf(a in arb_point(), b in arb_point()) {
                prop_assert!(a.dist(b) + 1e-9 >= a.dist_linf(b));
                prop_assert!(a.dist(b) <= 2.0 * a.dist_linf(b) + 1e-9);
            }

            #[test]
            fn walk_towards_walks_exact_length(a in arb_point(), b in arb_point(), t in 0.0f64..1.0) {
                let len = a.dist(b) * t;
                let w = a.walk_towards(b, len);
                // The walked point lies on a monotone staircase: the distance
                // from `a` is exactly `len` and the remainder to `b` is the rest.
                prop_assert!((a.dist(w) - len).abs() < 1e-6);
                prop_assert!((w.dist(b) - (a.dist(b) - len)).abs() < 1e-6);
            }
        }
    }
}
