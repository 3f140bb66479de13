//! Buffered clock tree evaluation: the metrics of paper Tables 6 and 7.
//!
//! Wires contribute distributed-RC Elmore delay per stage (a *stage* is
//! the subtree between consecutive buffers — buffers shield downstream
//! capacitance); buffers contribute the linear delay of paper Eq. (6)
//! with propagated slews. The walk is [`sllt_buffer::timing::propagate`];
//! this module adds the buffer and capacitance tallies.

use sllt_buffer::timing::propagate;
use sllt_timing::{BufferLibrary, Technology};
use sllt_tree::{ClockTree, NodeKind};

/// All reported metrics of one buffered clock tree.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TreeReport {
    /// Slowest source→sink latency, ps ("Latency" columns).
    pub max_latency_ps: f64,
    /// Fastest source→sink latency, ps.
    pub min_latency_ps: f64,
    /// `max − min` latency, ps ("Skew" columns).
    pub skew_ps: f64,
    /// Inserted buffers ("#Buffers").
    pub num_buffers: usize,
    /// Total buffer area, µm² ("Buf Area").
    pub buffer_area_um2: f64,
    /// Clock capacitance: sink pins + buffer input pins + wire, fF
    /// ("Clk Cap").
    pub clock_cap_ff: f64,
    /// Total routed wirelength, µm ("Clk WL").
    pub clock_wl_um: f64,
    /// Worst slew seen at any node, ps.
    pub max_slew_ps: f64,
    /// Number of load pins reached.
    pub num_sinks: usize,
}

/// Evaluates a buffered clock tree.
///
/// The source is ideal (zero resistance) at the tree root with the
/// technology's nominal slew; every buffer's delay/output slew follow its
/// library characterization.
///
/// # Panics
///
/// Panics when the tree has no sinks or references buffer cells outside
/// the library.
pub fn evaluate(tree: &ClockTree, tech: &Technology, lib: &BufferLibrary) -> TreeReport {
    let sinks = tree.sinks();
    assert!(!sinks.is_empty(), "evaluating a sinkless tree");
    let t = propagate(tree, tech, lib, |_| 1.0);

    let mut max_slew = tech.source_slew_ps;
    let mut num_buffers = 0;
    let mut buffer_area = 0.0;
    let mut buffer_in_cap = 0.0;
    for &v in &t.order {
        if let NodeKind::Buffer { cell } = tree.node(v).kind {
            let cell = &lib.cells()[cell];
            num_buffers += 1;
            buffer_area += cell.area_um2;
            buffer_in_cap += cell.input_cap_ff;
        }
        max_slew = max_slew.max(t.slew[v.index()]);
    }

    let mut max_latency = f64::NEG_INFINITY;
    let mut min_latency = f64::INFINITY;
    let mut sink_cap = 0.0;
    for &s in &sinks {
        max_latency = max_latency.max(t.delay[s.index()]);
        min_latency = min_latency.min(t.delay[s.index()]);
        sink_cap += tree.node(s).cap_ff();
    }
    let wl = tree.wirelength();
    TreeReport {
        max_latency_ps: max_latency,
        min_latency_ps: min_latency,
        skew_ps: max_latency - min_latency,
        num_buffers,
        buffer_area_um2: buffer_area,
        clock_cap_ff: sink_cap + buffer_in_cap + tech.wire_cap(wl),
        clock_wl_um: wl,
        max_slew_ps: max_slew,
        num_sinks: sinks.len(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sllt_geom::Point;

    fn fixtures() -> (Technology, BufferLibrary) {
        (Technology::n28(), BufferLibrary::n28())
    }

    #[test]
    fn unbuffered_tree_matches_rc_elmore() {
        let (tech, lib) = fixtures();
        let mut t = ClockTree::new(Point::ORIGIN);
        let st = t.add_steiner(t.root(), Point::new(50.0, 0.0));
        t.add_sink(st, Point::new(80.0, 20.0), 2.0);
        t.add_sink(st, Point::new(80.0, -20.0), 2.0);
        let r = evaluate(&t, &tech, &lib);
        // Three 50 µm edges: the stem drives both branches and both pins.
        let stem_load = 2.0 * (tech.wire_cap(50.0) + 2.0);
        let expect = tech.wire_delay(50.0, stem_load) + tech.wire_delay(50.0, 2.0);
        assert!((r.max_latency_ps - expect).abs() < 1e-9);
        assert_eq!(r.num_buffers, 0);
        assert_eq!(r.buffer_area_um2, 0.0);
        assert!(r.skew_ps < 1e-9, "symmetric sinks");
        assert_eq!(r.num_sinks, 2);
    }

    #[test]
    fn buffers_add_delay_and_area() {
        let (tech, lib) = fixtures();
        let mut bare = ClockTree::new(Point::ORIGIN);
        bare.add_sink(bare.root(), Point::new(100.0, 0.0), 2.0);
        let mut buffered = ClockTree::new(Point::ORIGIN);
        let b = buffered.add_buffer(buffered.root(), Point::new(50.0, 0.0), 1);
        buffered.add_sink(b, Point::new(100.0, 0.0), 2.0);

        let r0 = evaluate(&bare, &tech, &lib);
        let r1 = evaluate(&buffered, &tech, &lib);
        assert_eq!(r1.num_buffers, 1);
        assert!(r1.buffer_area_um2 > 0.0);
        // Over this short span the buffer's intrinsic delay dominates:
        // latency goes up, but the wire delay portion halves.
        assert!(r1.max_latency_ps > r0.max_latency_ps);
        // Clock cap gains the buffer input pin but loses the shielded
        // downstream load from the source's perspective; the reported
        // total counts pins + wire.
        let cell = &lib.cells()[1];
        assert!((r1.clock_cap_ff - (r0.clock_cap_ff + cell.input_cap_ff)).abs() < 1e-9);
    }

    #[test]
    fn buffer_shields_split_stages() {
        let (tech, lib) = fixtures();
        // source --L1--> buffer --L2--> sink(5fF)
        let mut t = ClockTree::new(Point::ORIGIN);
        let b = t.add_buffer(t.root(), Point::new(60.0, 0.0), 2);
        t.add_sink(b, Point::new(120.0, 0.0), 5.0);
        let r = evaluate(&t, &tech, &lib);
        let cell = &lib.cells()[2];
        // Hand-computed: stage 1 wire drives only the buffer pin.
        let d1 = tech.wire_delay(60.0, cell.input_cap_ff);
        let s1 = tech.wire_output_slew(tech.source_slew_ps, 60.0, cell.input_cap_ff);
        let load2 = tech.wire_cap(60.0) + 5.0;
        let d2 = cell.delay(s1, load2) + tech.wire_delay(60.0, 5.0);
        assert!(
            (r.max_latency_ps - (d1 + d2)).abs() < 1e-9,
            "latency {}",
            r.max_latency_ps
        );
    }

    #[test]
    fn slew_degrades_and_is_tracked() {
        let (tech, lib) = fixtures();
        let mut t = ClockTree::new(Point::ORIGIN);
        t.add_sink(t.root(), Point::new(300.0, 0.0), 2.0);
        let r = evaluate(&t, &tech, &lib);
        assert!(
            r.max_slew_ps > tech.source_slew_ps,
            "long wire must degrade slew"
        );
    }

    #[test]
    #[should_panic(expected = "sinkless")]
    fn sinkless_tree_rejected() {
        let (tech, lib) = fixtures();
        let t = ClockTree::new(Point::ORIGIN);
        let _ = evaluate(&t, &tech, &lib);
    }
}
