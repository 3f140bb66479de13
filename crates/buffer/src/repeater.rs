//! Long-wire repeater insertion.
//!
//! Splits every tree edge whose routed length exceeds the critical
//! wirelength (or whose downstream load exceeds what the chosen cell may
//! drive) by inserting repeaters at even spacing along the edge. Detour
//! wire is preserved: split segments inherit a proportional share of the
//! snaking.

use crate::critical::critical_wirelength;
use sllt_timing::{BufferLibrary, Technology};
use sllt_tree::{ClockTree, NodeId};

/// Repeater insertion policy.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RepeaterPolicy {
    /// Library index of the repeater cell to insert.
    pub cell: usize,
    /// Cap on any single wire segment, µm. `None` derives the critical
    /// wirelength from the cell and the segment's downstream load.
    pub max_segment_um: Option<f64>,
}

// clippy suggests deriving Default, but `cell: 0` — the weakest buffer —
// is a semantic choice worth keeping visible, so the impl stays manual.
#[allow(clippy::derivable_impls)]
impl Default for RepeaterPolicy {
    fn default() -> Self {
        RepeaterPolicy {
            cell: 0,
            max_segment_um: None,
        }
    }
}

/// Inserts repeaters into `tree`; returns the number inserted.
///
/// Each over-long edge `p → v` of routed length `L` is replaced by
/// `k = ceil(L / L_max) − 1` buffers evenly spaced along the L-shaped
/// geometry between the endpoints; every resulting segment carries
/// `L / (k + 1)` of routed length, so total wirelength (including
/// detour) is unchanged.
///
/// # Panics
///
/// Panics when the policy's cell index is out of library range.
pub fn insert_repeaters(
    tree: &mut ClockTree,
    lib: &BufferLibrary,
    tech: &Technology,
    policy: &RepeaterPolicy,
) -> usize {
    assert!(policy.cell < lib.cells().len(), "cell index out of range");
    let cell = &lib.cells()[policy.cell];
    // Downstream cap per node (sinks + wire), for load-aware thresholds.
    let caps = downstream_caps(tree, tech, Some(lib));

    let mut inserted = 0;
    let mut split_edges = 0u64;
    let ids: Vec<NodeId> = tree.topo_order();
    for v in ids {
        let Some(p) = tree.node(v).parent() else {
            continue;
        };
        let len = tree.node(v).edge_len();
        let lmax = policy
            .max_segment_um
            .unwrap_or_else(|| critical_wirelength(cell, tech, caps[v.index()]))
            .max(1.0);
        if len <= lmax + 1e-9 {
            continue;
        }
        let k = (len / lmax).ceil() as usize - 1;
        split_edges += 1;
        let seg = len / (k + 1) as f64;
        // Geometric positions along the parent→child L-path; the routed
        // length per segment is `seg`, which may exceed the geometric
        // step when the edge carries detour.
        let (a, b) = (tree.node(p).pos, tree.node(v).pos);
        let geo_step = a.dist(b) / (k + 1) as f64;
        let mut upper = p;
        for i in 1..=k {
            let pos = a.walk_towards(b, geo_step * i as f64);
            let buf = tree.add_buffer(upper, pos, policy.cell);
            tree.set_edge_len(buf, seg);
            upper = buf;
            inserted += 1;
        }
        tree.reparent(v, upper);
        tree.set_edge_len(v, seg);
    }
    if sllt_obs::enabled() {
        sllt_obs::count("buffer.repeater.calls", 1);
        sllt_obs::count("buffer.repeater.split_edges", split_edges);
        sllt_obs::count("buffer.repeater.inserted", inserted as u64);
    }
    inserted
}

/// Downstream capacitance per node: pin caps plus wire cap, with buffers
/// acting as load boundaries (a buffer presents its input cap upward and
/// shields everything below it). `lib` resolves buffer input caps; pass
/// `None` to treat buffers as zero-cap boundaries.
pub fn downstream_caps(
    tree: &ClockTree,
    tech: &Technology,
    lib: Option<&BufferLibrary>,
) -> Vec<f64> {
    let order = tree.topo_order();
    let n_slots = tree.arena_len();
    let mut caps = vec![0.0f64; n_slots];
    for &v in order.iter().rev() {
        let node = tree.node(v);
        let own = match node.kind {
            sllt_tree::NodeKind::Sink { cap_ff, .. } => cap_ff,
            _ => 0.0,
        };
        caps[v.index()] += own;
        if let Some(p) = node.parent() {
            let contribution = match node.kind {
                // The buffer shields its subtree; its parent sees only
                // the input pin.
                sllt_tree::NodeKind::Buffer { cell } => {
                    lib.map_or(0.0, |l| l.cells()[cell].input_cap_ff)
                }
                _ => caps[v.index()],
            };
            caps[p.index()] += contribution + tech.wire_cap(node.edge_len());
        }
    }
    caps
}

#[cfg(test)]
mod tests {
    use super::*;
    use sllt_geom::Point;

    fn fixtures() -> (BufferLibrary, Technology) {
        (BufferLibrary::n28(), Technology::n28())
    }

    #[test]
    fn short_edges_untouched() {
        let (lib, tech) = fixtures();
        let mut t = ClockTree::new(Point::ORIGIN);
        t.add_sink(t.root(), Point::new(20.0, 0.0), 1.0);
        let n = insert_repeaters(&mut t, &lib, &tech, &RepeaterPolicy::default());
        assert_eq!(n, 0);
        assert_eq!(t.len(), 2);
    }

    #[test]
    fn long_edge_is_split_preserving_wirelength() {
        let (lib, tech) = fixtures();
        let mut t = ClockTree::new(Point::ORIGIN);
        t.add_sink(t.root(), Point::new(500.0, 0.0), 1.0);
        let before = t.wirelength();
        let n = insert_repeaters(
            &mut t,
            &lib,
            &tech,
            &RepeaterPolicy {
                cell: 0,
                max_segment_um: Some(120.0),
            },
        );
        assert_eq!(n, 4, "500 µm at 120 µm segments needs 4 repeaters");
        assert!((t.wirelength() - before).abs() < 1e-9);
        t.validate().unwrap();
        // Every segment now ≤ 120 µm.
        for id in t.node_ids() {
            assert!(t.node(id).edge_len() <= 120.0 + 1e-9);
        }
    }

    #[test]
    fn detour_is_distributed_proportionally() {
        let (lib, tech) = fixtures();
        let mut t = ClockTree::new(Point::ORIGIN);
        let s = t.add_sink(t.root(), Point::new(100.0, 0.0), 1.0);
        t.add_detour(s, 100.0); // routed 200 over geometric 100
        let before = t.wirelength();
        insert_repeaters(
            &mut t,
            &lib,
            &tech,
            &RepeaterPolicy {
                cell: 0,
                max_segment_um: Some(50.0),
            },
        );
        assert!((t.wirelength() - before).abs() < 1e-9, "detour lost");
        t.validate().unwrap();
    }

    #[test]
    fn critical_length_mode_buffers_very_long_wires() {
        let (lib, tech) = fixtures();
        let mut t = ClockTree::new(Point::ORIGIN);
        t.add_sink(t.root(), Point::new(1000.0, 0.0), 5.0);
        let n = insert_repeaters(&mut t, &lib, &tech, &RepeaterPolicy::default());
        assert!(n >= 2, "a 1 mm wire needs repeaters, got {n}");
        t.validate().unwrap();
    }

    #[test]
    fn buffers_shield_downstream_cap() {
        let (lib, tech) = fixtures();
        let mut t = ClockTree::new(Point::ORIGIN);
        let b = t.add_buffer(t.root(), Point::new(10.0, 0.0), 0);
        t.add_sink(b, Point::new(20.0, 0.0), 5.0);
        let caps = downstream_caps(&t, &tech, Some(&lib));
        // Root sees the wire to the buffer plus the buffer input pin,
        // not the 5 fF sink behind the shield.
        let root_cap = caps[t.root().index()];
        let expect = tech.wire_cap(10.0) + lib.cells()[0].input_cap_ff;
        assert!(
            (root_cap - expect).abs() < 1e-9,
            "got {root_cap}, want {expect}"
        );
        // The buffer itself sees its subtree.
        assert!((caps[b.index()] - (tech.wire_cap(10.0) + 5.0)).abs() < 1e-9);
        // Without a library, buffers are zero-cap boundaries.
        let bare = downstream_caps(&t, &tech, None);
        assert!((bare[t.root().index()] - tech.wire_cap(10.0)).abs() < 1e-9);
    }
}
