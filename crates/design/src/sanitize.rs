//! Design sanitization: lint and repair a [`Design`] before handing it
//! to a CTS flow.
//!
//! Real placements arrive with defects — NaN coordinates from a broken
//! exporter, sinks stacked on the same site, zero or negative pin caps,
//! kilometre-scale coordinates that poison rotated-space (x ± y)
//! arithmetic. The flow itself rejects *fatal* defects with a typed
//! error, but a batch driver usually wants to keep going: [`repair`]
//! produces the closest well-formed design plus a [`SanitizeReport`]
//! saying exactly what was changed, and [`lint`] reports without
//! touching anything.
//!
//! Severity model:
//!
//! * **Fatal** — the flow cannot run on this input (non-finite or
//!   oversized coordinates, non-finite or negative caps, no sinks).
//!   [`repair`] removes or clamps the offending sinks where possible.
//! * **Warning** — the flow handles it, but results may be degenerate
//!   (coincident sinks, zero-cap sinks). [`repair`] merges coincident
//!   sinks; zero caps are left alone.

use crate::design::Design;
use sllt_geom::Point;
use sllt_tree::Sink;
use std::fmt;

/// Largest coordinate magnitude a design may use, µm.
///
/// DME works in the 45°-rotated space `(x + y, x − y)`; at 10⁹ µm (a
/// metre of silicon) the sums stay exactly representable and every
/// EPS-scale geometric comparison in the workspace keeps meaning.
/// Beyond it, merge-region arithmetic degrades long before `f64`
/// overflows, so oversized coordinates are rejected up front.
pub const MAX_COORD_UM: f64 = 1e9;

/// One defect found in a design.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum SanitizeIssue {
    /// The clock root position is NaN or infinite.
    NonFiniteClockRoot,
    /// A sink position is NaN or infinite.
    NonFiniteSinkPosition {
        /// Sink index in the original design.
        sink: usize,
    },
    /// A sink coordinate exceeds [`MAX_COORD_UM`] in magnitude —
    /// rotated-space `x ± y` arithmetic would lose all precision.
    OversizedSinkPosition {
        /// Sink index in the original design.
        sink: usize,
        /// The largest coordinate magnitude seen, µm.
        extent: f64,
    },
    /// A sink capacitance is NaN or infinite.
    NonFiniteSinkCap {
        /// Sink index in the original design.
        sink: usize,
    },
    /// A sink capacitance is negative.
    NegativeSinkCap {
        /// Sink index in the original design.
        sink: usize,
        /// The offending capacitance, fF.
        cap_ff: f64,
    },
    /// A sink has exactly zero capacitance — legal, but usually an
    /// extraction artifact.
    ZeroCapSink {
        /// Sink index in the original design.
        sink: usize,
    },
    /// Two or more sinks occupy exactly the same position.
    CoincidentSinks {
        /// Index of the sink kept (lowest index at that position).
        kept: usize,
        /// How many other sinks share its position.
        dropped: usize,
    },
    /// The design has no (usable) sinks.
    NoSinks,
}

/// How severe an issue is for the flow.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Severity {
    /// The flow must reject the design (or [`repair`] must remove the
    /// defect) before running.
    Fatal,
    /// The flow runs, but the input is suspicious.
    Warning,
}

impl SanitizeIssue {
    /// The issue's severity.
    pub fn severity(&self) -> Severity {
        match self {
            SanitizeIssue::NonFiniteClockRoot
            | SanitizeIssue::NonFiniteSinkPosition { .. }
            | SanitizeIssue::OversizedSinkPosition { .. }
            | SanitizeIssue::NonFiniteSinkCap { .. }
            | SanitizeIssue::NegativeSinkCap { .. }
            | SanitizeIssue::NoSinks => Severity::Fatal,
            SanitizeIssue::ZeroCapSink { .. } | SanitizeIssue::CoincidentSinks { .. } => {
                Severity::Warning
            }
        }
    }
}

impl fmt::Display for SanitizeIssue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SanitizeIssue::NonFiniteClockRoot => write!(f, "clock root position is non-finite"),
            SanitizeIssue::NonFiniteSinkPosition { sink } => {
                write!(f, "sink {sink} position is non-finite")
            }
            SanitizeIssue::OversizedSinkPosition { sink, extent } => write!(
                f,
                "sink {sink} coordinate magnitude {extent:e} exceeds {MAX_COORD_UM:e} um"
            ),
            SanitizeIssue::NonFiniteSinkCap { sink } => {
                write!(f, "sink {sink} capacitance is non-finite")
            }
            SanitizeIssue::NegativeSinkCap { sink, cap_ff } => {
                write!(f, "sink {sink} capacitance {cap_ff} fF is negative")
            }
            SanitizeIssue::ZeroCapSink { sink } => write!(f, "sink {sink} has zero capacitance"),
            SanitizeIssue::CoincidentSinks { kept, dropped } => write!(
                f,
                "{dropped} sink(s) coincide with sink {kept} at the same position"
            ),
            SanitizeIssue::NoSinks => write!(f, "design has no usable sinks"),
        }
    }
}

/// What [`lint`] found and (for [`repair`]) what was changed.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SanitizeReport {
    /// Every issue found, in sink order.
    pub issues: Vec<SanitizeIssue>,
    /// Sinks removed by [`repair`] (non-finite/oversized positions,
    /// non-finite caps, coincident duplicates).
    pub dropped_sinks: usize,
    /// Coincident sinks merged into their kept sink (caps summed).
    pub merged_sinks: usize,
    /// Negative caps clamped to zero.
    pub clamped_caps: usize,
    /// Whether [`repair`] replaced a non-finite clock root.
    pub repaired_clock_root: bool,
}

impl SanitizeReport {
    /// No issues at all.
    pub fn is_clean(&self) -> bool {
        self.issues.is_empty()
    }

    /// Issues the flow must reject.
    pub fn fatal(&self) -> impl Iterator<Item = &SanitizeIssue> {
        self.issues
            .iter()
            .filter(|i| i.severity() == Severity::Fatal)
    }

    /// Whether any fatal issue remains.
    pub fn has_fatal(&self) -> bool {
        self.fatal().next().is_some()
    }

    /// A one-line human summary (`clean` for a clean design).
    pub fn summary(&self) -> String {
        if self.is_clean() {
            return "clean".into();
        }
        let fatal = self.fatal().count();
        format!(
            "{} issue(s) ({} fatal): dropped {}, merged {}, clamped {} cap(s)",
            self.issues.len(),
            fatal,
            self.dropped_sinks,
            self.merged_sinks,
            self.clamped_caps,
        )
    }
}

/// Whether a sink is structurally usable by the flow (finite, in-range
/// position and finite cap). Negative caps are usable-after-clamp and
/// reported separately.
fn position_defect(index: usize, s: &Sink) -> Option<SanitizeIssue> {
    if !s.pos.x.is_finite() || !s.pos.y.is_finite() {
        return Some(SanitizeIssue::NonFiniteSinkPosition { sink: index });
    }
    let extent = s.pos.x.abs().max(s.pos.y.abs());
    if extent > MAX_COORD_UM {
        return Some(SanitizeIssue::OversizedSinkPosition {
            sink: index,
            extent,
        });
    }
    if !s.cap_ff.is_finite() {
        return Some(SanitizeIssue::NonFiniteSinkCap { sink: index });
    }
    None
}

/// Lints a design without modifying it.
pub fn lint(design: &Design) -> SanitizeReport {
    lint_in(design, &position_order(&design.sinks))
}

/// [`lint`] with the design's [`position_order`] already computed.
fn lint_in(design: &Design, order: &[usize]) -> SanitizeReport {
    let mut report = SanitizeReport::default();
    if !design.clock_root.x.is_finite() || !design.clock_root.y.is_finite() {
        report.issues.push(SanitizeIssue::NonFiniteClockRoot);
    }
    if design.sinks.is_empty() {
        report.issues.push(SanitizeIssue::NoSinks);
        return report;
    }
    for (i, s) in design.sinks.iter().enumerate() {
        if let Some(issue) = position_defect(i, s) {
            report.issues.push(issue);
            continue;
        }
        if s.cap_ff < 0.0 {
            report.issues.push(SanitizeIssue::NegativeSinkCap {
                sink: i,
                cap_ff: s.cap_ff,
            });
        } else if s.cap_ff == 0.0 {
            report.issues.push(SanitizeIssue::ZeroCapSink { sink: i });
        }
    }
    for (kept, dropped) in coincident_groups(&design.sinks, order) {
        report
            .issues
            .push(SanitizeIssue::CoincidentSinks { kept, dropped });
    }
    report
}

/// The cheapest possible pre-flight: the first fatal issue, or `None`
/// for a runnable design. O(n), no allocation, no duplicate scan — this
/// is what the flow calls on every run.
pub fn first_fatal(design: &Design) -> Option<SanitizeIssue> {
    if !design.clock_root.x.is_finite() || !design.clock_root.y.is_finite() {
        return Some(SanitizeIssue::NonFiniteClockRoot);
    }
    for (i, s) in design.sinks.iter().enumerate() {
        if let Some(issue) = position_defect(i, s) {
            return Some(issue);
        }
        if s.cap_ff < 0.0 {
            return Some(SanitizeIssue::NegativeSinkCap {
                sink: i,
                cap_ff: s.cap_ff,
            });
        }
    }
    None
}

/// Sink indices sorted by position — `x`, then `y`, both by
/// `total_cmp` — then by index: the one order the duplicate scan and
/// the merge in [`repair`] share. The index makes every key unique, so
/// an unstable sort gives the stable sort's order.
fn position_order(sinks: &[Sink]) -> Vec<usize> {
    let mut order: Vec<usize> = (0..sinks.len()).collect();
    order.sort_unstable_by(|&a, &b| {
        sinks[a]
            .pos
            .x
            .total_cmp(&sinks[b].pos.x)
            .then(sinks[a].pos.y.total_cmp(&sinks[b].pos.y))
            .then(a.cmp(&b))
    });
    order
}

/// Groups of sinks sharing a position: `(kept_index, extra_count)` per
/// group with more than one member, scanning `order` (the sinks'
/// [`position_order`]) for runs equal to their first member.
fn coincident_groups(sinks: &[Sink], order: &[usize]) -> Vec<(usize, usize)> {
    let mut groups = Vec::new();
    let mut i = 0;
    while i < order.len() {
        let mut j = i + 1;
        while j < order.len()
            && sinks[order[j]].pos.x == sinks[order[i]].pos.x
            && sinks[order[j]].pos.y == sinks[order[i]].pos.y
        {
            j += 1;
        }
        if j - i > 1 {
            let kept = order[i..j].iter().copied().min().expect("nonempty group");
            groups.push((kept, j - i - 1));
        }
        i = j;
    }
    groups.sort_unstable();
    groups
}

/// Repairs a design: drops sinks with unusable positions or caps,
/// clamps negative caps to zero, merges exactly-coincident sinks (caps
/// summed into the lowest-indexed one), and replaces a non-finite clock
/// root with the surviving sinks' centroid. Returns the repaired design
/// plus the report of everything found and changed.
///
/// A design can still be unusable after repair (every sink dropped):
/// the report then carries a fatal [`SanitizeIssue::NoSinks`], which
/// [`SanitizeReport::has_fatal`] surfaces.
pub fn repair(design: &Design) -> (Design, SanitizeReport) {
    let order = position_order(&design.sinks);
    let mut report = lint_in(design, &order);
    // Usable sinks by original index, negative caps clamped.
    let mut slots: Vec<Option<Sink>> = Vec::with_capacity(design.sinks.len());
    for (i, s) in design.sinks.iter().enumerate() {
        if position_defect(i, s).is_some() {
            report.dropped_sinks += 1;
            slots.push(None);
            continue;
        }
        let mut s = *s;
        if s.cap_ff < 0.0 {
            s.cap_ff = 0.0;
            report.clamped_caps += 1;
        }
        slots.push(Some(s));
    }

    // Merge exact duplicates: walking the usable sinks in position
    // order, each run of sinks equal to its first member collapses into
    // that first member (of bit-identical positions, the lowest original
    // index), which takes the run's summed capacitance.
    let mut head: Option<usize> = None;
    for &i in &order {
        let Some(s) = slots[i] else {
            continue;
        };
        match head.and_then(|h| slots[h].as_mut()) {
            Some(first) if first.pos.x == s.pos.x && first.pos.y == s.pos.y => {
                first.cap_ff += s.cap_ff;
                slots[i] = None;
                report.merged_sinks += 1;
            }
            _ => head = Some(i),
        }
    }
    let sinks: Vec<Sink> = slots.into_iter().flatten().collect();

    let clock_root = if design.clock_root.x.is_finite() && design.clock_root.y.is_finite() {
        design.clock_root
    } else {
        report.repaired_clock_root = true;
        centroid_or_origin(&sinks)
    };

    if sinks.is_empty() && !report.issues.contains(&SanitizeIssue::NoSinks) {
        report.issues.push(SanitizeIssue::NoSinks);
    }
    let repaired = Design {
        name: design.name.clone(),
        num_instances: design.num_instances,
        utilization: design.utilization,
        die: design.die,
        clock_root,
        sinks,
    };
    (repaired, report)
}

fn centroid_or_origin(sinks: &[Sink]) -> Point {
    sllt_geom::centroid(&sinks.iter().map(|s| s.pos).collect::<Vec<_>>()).unwrap_or(Point::ORIGIN)
}

/// The three-sort repair [`repair`] replaced: the oracle it is checked
/// against.
#[cfg(test)]
fn repair_oracle(design: &Design) -> (Design, SanitizeReport) {
    let mut report = lint(design);
    let mut kept: Vec<(usize, Sink)> = Vec::with_capacity(design.sinks.len());
    for (i, s) in design.sinks.iter().enumerate() {
        if position_defect(i, s).is_some() {
            report.dropped_sinks += 1;
            continue;
        }
        let mut s = *s;
        if s.cap_ff < 0.0 {
            s.cap_ff = 0.0;
            report.clamped_caps += 1;
        }
        kept.push((i, s));
    }

    // Merge exact duplicates: the lowest original index at a position
    // survives with the group's summed capacitance.
    kept.sort_by(|(ia, a), (ib, b)| {
        a.pos
            .x
            .total_cmp(&b.pos.x)
            .then(a.pos.y.total_cmp(&b.pos.y))
            .then(ia.cmp(ib))
    });
    let mut merged: Vec<(usize, Sink)> = Vec::with_capacity(kept.len());
    for (i, s) in kept {
        match merged.last_mut() {
            Some((_, last)) if last.pos.x == s.pos.x && last.pos.y == s.pos.y => {
                last.cap_ff += s.cap_ff;
                report.merged_sinks += 1;
            }
            _ => merged.push((i, s)),
        }
    }
    merged.sort_by_key(|&(i, _)| i);
    let sinks: Vec<Sink> = merged.into_iter().map(|(_, s)| s).collect();

    let clock_root = if design.clock_root.x.is_finite() && design.clock_root.y.is_finite() {
        design.clock_root
    } else {
        report.repaired_clock_root = true;
        centroid_or_origin(&sinks)
    };

    if sinks.is_empty() && !report.issues.contains(&SanitizeIssue::NoSinks) {
        report.issues.push(SanitizeIssue::NoSinks);
    }
    let repaired = Design {
        name: design.name.clone(),
        num_instances: design.num_instances,
        utilization: design.utilization,
        die: design.die,
        clock_root,
        sinks,
    };
    (repaired, report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sllt_geom::Rect;

    fn design(sinks: Vec<Sink>) -> Design {
        Design {
            name: "t".into(),
            num_instances: sinks.len(),
            utilization: 0.5,
            die: Rect::new(Point::ORIGIN, Point::new(100.0, 100.0)),
            clock_root: Point::ORIGIN,
            sinks,
        }
    }

    #[test]
    fn clean_design_lints_clean() {
        let d = design(vec![
            Sink::new(Point::new(1.0, 2.0), 1.0),
            Sink::new(Point::new(3.0, 4.0), 2.0),
        ]);
        let r = lint(&d);
        assert!(r.is_clean(), "{:?}", r.issues);
        assert_eq!(first_fatal(&d), None);
        assert_eq!(r.summary(), "clean");
        let (repaired, rr) = repair(&d);
        assert_eq!(repaired, d);
        assert!(rr.is_clean());
    }

    #[test]
    fn fatal_defects_are_found_and_repaired() {
        let d = design(vec![
            Sink::new(Point::new(f64::NAN, 0.0), 1.0),
            Sink::new(Point::new(2e9, 0.0), 1.0),
            Sink::new(Point::new(1.0, 1.0), f64::INFINITY),
            Sink::new(Point::new(2.0, 2.0), -3.0),
            Sink::new(Point::new(3.0, 3.0), 1.0),
        ]);
        let r = lint(&d);
        assert!(r.has_fatal());
        assert_eq!(r.fatal().count(), 4);
        assert!(matches!(
            first_fatal(&d),
            Some(SanitizeIssue::NonFiniteSinkPosition { sink: 0 })
        ));

        let (fixed, rr) = repair(&d);
        assert_eq!(fixed.sinks.len(), 2); // NaN, oversized, inf-cap dropped
        assert_eq!(rr.dropped_sinks, 3);
        assert_eq!(rr.clamped_caps, 1);
        assert_eq!(fixed.sinks[0].cap_ff, 0.0);
        assert_eq!(first_fatal(&fixed), None);
    }

    #[test]
    fn coincident_sinks_merge_with_summed_caps() {
        let d = design(vec![
            Sink::new(Point::new(5.0, 5.0), 1.0),
            Sink::new(Point::new(1.0, 1.0), 2.0),
            Sink::new(Point::new(5.0, 5.0), 3.0),
            Sink::new(Point::new(5.0, 5.0), 4.0),
        ]);
        let r = lint(&d);
        assert!(!r.has_fatal());
        assert!(r.issues.contains(&SanitizeIssue::CoincidentSinks {
            kept: 0,
            dropped: 2
        }));

        let (fixed, rr) = repair(&d);
        assert_eq!(fixed.sinks.len(), 2);
        assert_eq!(rr.merged_sinks, 2);
        // Kept sink 0 carries the group's total cap; order is preserved.
        assert!((fixed.sinks[0].cap_ff - 8.0).abs() < 1e-12);
        assert!(fixed.sinks[0].pos.approx_eq(Point::new(5.0, 5.0)));
        assert!(fixed.sinks[1].pos.approx_eq(Point::new(1.0, 1.0)));
    }

    #[test]
    fn nonfinite_clock_root_is_fatal_and_repairable() {
        let mut d = design(vec![
            Sink::new(Point::new(0.0, 0.0), 1.0),
            Sink::new(Point::new(10.0, 10.0), 1.0),
        ]);
        d.clock_root = Point::new(f64::NAN, 0.0);
        assert!(matches!(
            first_fatal(&d),
            Some(SanitizeIssue::NonFiniteClockRoot)
        ));
        let (fixed, r) = repair(&d);
        assert!(r.repaired_clock_root);
        assert!(fixed.clock_root.approx_eq(Point::new(5.0, 5.0)));
        assert_eq!(first_fatal(&fixed), None);
    }

    #[test]
    fn empty_or_fully_dropped_designs_stay_fatal() {
        let empty = design(vec![]);
        assert!(lint(&empty).has_fatal());
        let (_, r) = repair(&empty);
        assert!(r.has_fatal());

        let hopeless = design(vec![Sink::new(Point::new(f64::INFINITY, 0.0), 1.0)]);
        let (fixed, r) = repair(&hopeless);
        assert!(fixed.sinks.is_empty());
        assert!(r.issues.contains(&SanitizeIssue::NoSinks));
    }

    /// The one-sort repair must equal the three-sort oracle, bit for
    /// bit (compared through `Debug`, which tells −0.0 from 0.0), on
    /// random dirty designs: NaN, infinite and oversized coordinates,
    /// negative, zero and non-finite caps, stacked duplicates, ±0.0
    /// coordinates and a non-finite clock root.
    #[test]
    fn repair_matches_the_three_sort_oracle() {
        use sllt_rng::prelude::*;
        let mut rng = StdRng::seed_from_u64(77);
        let mut merged = 0;
        for case in 0..300 {
            let n = rng.random_range(0..60);
            let coord = |rng: &mut StdRng| match rng.random_range(0..20) {
                0 => f64::NAN,
                1 => f64::INFINITY,
                2 => -2e9,
                3 => -0.0,
                4 | 5 => 0.0,
                _ => rng.random_range(0..4) as f64 * 15.0,
            };
            let sinks: Vec<Sink> = (0..n)
                .map(|_| {
                    let pos = Point::new(coord(&mut rng), coord(&mut rng));
                    let cap = match rng.random_range(0..12) {
                        0 => -1.5,
                        1 => 0.0,
                        2 => f64::NAN,
                        3 => f64::NEG_INFINITY,
                        _ => rng.random_range(0.5..4.0),
                    };
                    Sink::new(pos, cap)
                })
                .collect();
            let mut d = design(sinks);
            if case % 7 == 0 {
                d.clock_root = Point::new(f64::NAN, 1.0);
            }
            let want = repair_oracle(&d);
            let got = repair(&d);
            assert_eq!(format!("{got:?}"), format!("{want:?}"), "case {case}");
            merged += got.1.merged_sinks;
        }
        assert!(merged > 500, "only {merged} merges exercised");
    }

    #[test]
    fn zero_cap_is_a_warning_only() {
        let d = design(vec![
            Sink::new(Point::new(0.0, 0.0), 0.0),
            Sink::new(Point::new(1.0, 1.0), 1.0),
        ]);
        let r = lint(&d);
        assert!(!r.has_fatal());
        assert!(r.issues.contains(&SanitizeIssue::ZeroCapSink { sink: 0 }));
        assert!(r.summary().contains("issue"));
    }
}
