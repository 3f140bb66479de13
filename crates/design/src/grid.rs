//! Synthetic register-grid workloads (`grid<N>`).
//!
//! Scaling studies and smoke tests need designs whose size is a dial,
//! not a fixed benchmark list: a regular grid of sinks with a small
//! capacitance variation exercises every stage of the hierarchical flow
//! (partitioning, routing, buffering) at any chosen sink count, from
//! hundreds to millions, without ISCAS-scale runtimes or placement
//! synthesis. The layout is fully deterministic, so `grid<N>` names are
//! stable identities across runs and machines.

use crate::design::Design;
use sllt_geom::{Point, Rect};
use sllt_tree::Sink;

/// A synthetic register grid: `sinks` flip-flops on a regular array.
///
/// Sinks fill row-major over `columns` columns at `pitch_um` spacing;
/// pin capacitance cycles `1.0, 1.4, 1.8` fF so capacitance-balanced
/// partitioning has real work to do. The die wraps the array with one
/// pitch of margin and the clock root sits at the origin corner.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GridSpec {
    /// Number of sinks (flip-flops).
    pub sinks: usize,
    /// Columns in the array; `0` means square (`ceil(sqrt(sinks))`).
    pub columns: usize,
    /// Row and column pitch in µm.
    pub pitch_um: f64,
}

impl GridSpec {
    /// The benchmark-suite layout: 12 columns at 15 µm pitch — the
    /// historical `grid<N>` shape, kept so recorded benchmark numbers
    /// stay comparable.
    pub fn new(sinks: usize) -> Self {
        GridSpec {
            sinks,
            columns: 12,
            pitch_um: 15.0,
        }
    }

    /// A square array (`ceil(sqrt(sinks))` columns), the natural shape
    /// for scaling studies: die area grows linearly with sink count
    /// instead of producing a degenerate tall strip.
    pub fn square(sinks: usize) -> Self {
        GridSpec {
            sinks,
            columns: 0,
            pitch_um: 15.0,
        }
    }

    /// Parses a `grid<N>` design name (e.g. `"grid5000"`) into the
    /// benchmark-suite layout. `None` when the name is not `grid<N>`
    /// or `N` is zero.
    pub fn by_name(name: &str) -> Option<Self> {
        let n: usize = name.strip_prefix("grid")?.parse().ok()?;
        (n > 0).then(|| GridSpec::new(n))
    }

    /// Realized column count (resolves the square request).
    pub fn effective_columns(&self) -> usize {
        if self.columns == 0 {
            (self.sinks as f64).sqrt().ceil().max(1.0) as usize
        } else {
            self.columns
        }
    }

    /// Materializes the grid as a [`Design`] named `grid<N>`.
    ///
    /// # Panics
    ///
    /// Panics when `sinks` is zero or `pitch_um` is not positive.
    pub fn instantiate(&self) -> Design {
        assert!(self.sinks > 0, "a grid needs at least one sink");
        assert!(
            self.pitch_um > 0.0,
            "grid pitch must be positive, got {}",
            self.pitch_um
        );
        let cols = self.effective_columns();
        let pitch = self.pitch_um;
        let sinks: Vec<Sink> = (0..self.sinks)
            .map(|i| {
                Sink::new(
                    Point::new((i % cols) as f64 * pitch, (i / cols) as f64 * pitch),
                    1.0 + (i % 3) as f64 * 0.4,
                )
            })
            .collect();
        let rows = self.sinks.div_ceil(cols);
        Design {
            name: format!("grid{}", self.sinks),
            num_instances: self.sinks,
            utilization: 0.5,
            die: Rect::new(
                Point::ORIGIN,
                Point::new(cols as f64 * pitch + 20.0, rows as f64 * pitch + pitch),
            ),
            clock_root: Point::ORIGIN,
            sinks,
        }
    }
}

/// Shorthand for the benchmark-suite `grid<N>` layout.
pub fn grid_design(sinks: usize) -> Design {
    GridSpec::new(sinks).instantiate()
}

/// Resolves any design name a harness accepts: a placed suite design
/// (`crate::suite::DesignSpec::by_name`) or a synthetic `grid<N>`.
///
/// # Errors
///
/// One "unknown design" message, naming the input, for unknown names
/// and malformed/zero grid sizes.
pub fn design_by_name(name: &str) -> Result<Design, String> {
    let design = if name.starts_with("grid") {
        GridSpec::by_name(name).map(|g| g.instantiate())
    } else {
        crate::suite::DesignSpec::by_name(name).map(|s| s.instantiate())
    };
    design.ok_or_else(|| {
        format!("unknown design {name:?}: expected a suite design (see `sllt suite`) or grid<N>")
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn suite_layout_matches_the_historical_generator() {
        // The exact sink set `bench/suite` has always produced for
        // grid<N>: 12 columns, 15 µm pitch, caps cycling 1.0/1.4/1.8.
        let d = grid_design(96);
        assert_eq!(d.sinks.len(), 96);
        assert_eq!(d.num_instances, 96);
        for (i, s) in d.sinks.iter().enumerate() {
            assert_eq!(s.pos.x.to_bits(), ((i % 12) as f64 * 15.0).to_bits());
            assert_eq!(s.pos.y.to_bits(), ((i / 12) as f64 * 15.0).to_bits());
            assert_eq!(s.cap_ff.to_bits(), (1.0 + (i % 3) as f64 * 0.4).to_bits());
        }
        assert_eq!(d.die.hi().x.to_bits(), 200.0f64.to_bits());
        assert_eq!(d.die.hi().y.to_bits(), (8.0f64 * 15.0 + 15.0).to_bits());
    }

    #[test]
    fn by_name_parses_only_grid_names() {
        assert_eq!(GridSpec::by_name("grid5000"), Some(GridSpec::new(5000)));
        assert_eq!(GridSpec::by_name("grid0"), None);
        assert_eq!(GridSpec::by_name("s35932"), None);
        assert_eq!(GridSpec::by_name("gridx"), None);
        let d = GridSpec::by_name("grid96").unwrap().instantiate();
        assert_eq!(d.name, "grid96");
    }

    #[test]
    fn square_grids_stay_square() {
        let spec = GridSpec::square(1_000);
        assert_eq!(spec.effective_columns(), 32);
        let d = spec.instantiate();
        assert_eq!(d.sinks.len(), 1_000);
        let bb =
            sllt_geom::Rect::bounding(&d.sinks.iter().map(|s| s.pos).collect::<Vec<_>>()).unwrap();
        // Width and height within one pitch of each other.
        assert!((bb.width() - bb.height()).abs() <= 15.0 + 1e-9);
        // Every sink inside the die.
        assert!(d.sinks.iter().all(|s| d.die.contains(s.pos)));
    }

    #[test]
    fn custom_pitch_scales_the_die() {
        let d = GridSpec {
            sinks: 24,
            columns: 6,
            pitch_um: 2.0,
        }
        .instantiate();
        assert_eq!(d.sinks[7].pos.x, 2.0); // column 1
        assert_eq!(d.sinks[7].pos.y, 2.0); // row 1
        assert!(d.die.hi().y >= 4.0 * 2.0 + 2.0 - 1e-9);
    }
}
