//! Placed design model: what hierarchical CTS consumes.

use sllt_geom::{Point, Rect};
use sllt_tree::Sink;

/// A placed design's clock-relevant view: the die, the clock entry point,
/// and every flip-flop clock pin.
#[derive(Debug, Clone, PartialEq)]
pub struct Design {
    /// Design name (as in paper Table 4).
    pub name: String,
    /// Total placed instances (context only; CTS sees the FFs).
    pub num_instances: usize,
    /// Placement utilization (context only).
    pub utilization: f64,
    /// Die outline, µm.
    pub die: Rect,
    /// Clock entry (port) location.
    pub clock_root: Point,
    /// Flip-flop clock pins.
    pub sinks: Vec<Sink>,
}

impl Design {
    /// Number of flip-flops.
    pub fn num_ffs(&self) -> usize {
        self.sinks.len()
    }

    /// Total FF clock-pin capacitance, fF.
    pub fn total_sink_cap(&self) -> f64 {
        self.sinks.iter().map(|s| s.cap_ff).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clock_net_mirrors_the_design() {
        let d = Design {
            name: "t".into(),
            num_instances: 10,
            utilization: 0.5,
            die: Rect::new(Point::ORIGIN, Point::new(100.0, 100.0)),
            clock_root: Point::new(0.0, 50.0),
            sinks: vec![Sink::new(Point::new(10.0, 10.0), 1.0); 3],
        };
        assert_eq!(d.num_ffs(), 3);
        assert!((d.total_sink_cap() - 3.0).abs() < 1e-12);
    }
}
