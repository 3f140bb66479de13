//! Slew-violation repair.
//!
//! Long lightly-loaded wires degrade edges past what downstream cells can
//! legally receive. This pass propagates slews through the buffered tree
//! (the same model as the CTS evaluation) and, wherever a node's slew
//! exceeds the limit, splits its incoming wire with a repeater at the
//! midpoint — restarting until clean, since every insertion resets the
//! slew for the whole subtree below it.

use sllt_timing::{BufferLibrary, Technology};
use sllt_tree::{ClockTree, NodeId, NodeKind};

/// Inserts repeaters until no node sees a slew above `max_slew_ps`.
/// Returns the number of repeaters added.
///
/// `cell` indexes the repeater cell in the library. The pass refuses to
/// split edges shorter than 1 µm (at that point the slew is dominated by
/// the stage driver, not the wire) — if the limit is unreachable the pass
/// stops instead of looping.
///
/// # Panics
///
/// Panics when `max_slew_ps` is not positive or `cell` is out of library
/// range.
pub fn fix_slew(
    tree: &mut ClockTree,
    lib: &BufferLibrary,
    tech: &Technology,
    cell: usize,
    max_slew_ps: f64,
) -> usize {
    assert!(max_slew_ps > 0.0, "non-positive slew limit");
    assert!(cell < lib.cells().len(), "cell index out of range");
    let mut inserted = 0;
    // Each pass fixes the shallowest violation (fixing it changes all
    // slews below, so deeper "violations" may evaporate).
    for _ in 0..1000 {
        match first_violation(tree, lib, tech, max_slew_ps) {
            None => break,
            Some(v) => {
                let Some(p) = tree.node(v).parent() else {
                    break;
                };
                let len = tree.node(v).edge_len();
                if len < 1.0 {
                    break; // wire is not the culprit; give up gracefully
                }
                let a = tree.node(p).pos;
                let b = tree.node(v).pos;
                let mid = a.walk_towards(b, a.dist(b) / 2.0);
                let buf = tree.add_buffer(p, mid, cell);
                tree.set_edge_len(buf, len / 2.0);
                tree.reparent(v, buf);
                tree.set_edge_len(v, len / 2.0);
                inserted += 1;
            }
        }
    }
    inserted
}

/// The shallowest node whose slew exceeds the limit, by propagation from
/// the source.
fn first_violation(
    tree: &ClockTree,
    lib: &BufferLibrary,
    tech: &Technology,
    max_slew_ps: f64,
) -> Option<NodeId> {
    let caps = crate::repeater::downstream_caps(tree, tech, Some(lib));
    let n_slots = tree.arena_len();
    let mut slew = vec![tech.source_slew_ps; n_slots];
    for v in tree.topo_order() {
        let node = tree.node(v);
        if let Some(p) = node.parent() {
            let wire_load = match node.kind {
                NodeKind::Buffer { cell } => lib.cells()[cell].input_cap_ff,
                _ => caps[v.index()],
            };
            slew[v.index()] = tech.wire_output_slew(slew[p.index()], node.edge_len(), wire_load);
            if slew[v.index()] > max_slew_ps {
                return Some(v);
            }
        }
        if let NodeKind::Buffer { cell } = node.kind {
            slew[v.index()] = lib.cells()[cell].output_slew(slew[v.index()], caps[v.index()]);
            if slew[v.index()] > max_slew_ps {
                return Some(v);
            }
        }
    }
    None
}

/// Worst slew anywhere in the tree, ps.
pub fn max_slew(tree: &ClockTree, lib: &BufferLibrary, tech: &Technology) -> f64 {
    let caps = crate::repeater::downstream_caps(tree, tech, Some(lib));
    let n_slots = tree.arena_len();
    let mut slew = vec![tech.source_slew_ps; n_slots];
    let mut worst = tech.source_slew_ps;
    for v in tree.topo_order() {
        let node = tree.node(v);
        if let Some(p) = node.parent() {
            let wire_load = match node.kind {
                NodeKind::Buffer { cell } => lib.cells()[cell].input_cap_ff,
                _ => caps[v.index()],
            };
            slew[v.index()] = tech.wire_output_slew(slew[p.index()], node.edge_len(), wire_load);
        }
        if let NodeKind::Buffer { cell } = node.kind {
            slew[v.index()] = lib.cells()[cell].output_slew(slew[v.index()], caps[v.index()]);
        }
        worst = worst.max(slew[v.index()]);
    }
    worst
}

#[cfg(test)]
mod tests {
    use super::*;
    use sllt_geom::Point;

    fn fixtures() -> (BufferLibrary, Technology) {
        (BufferLibrary::n28(), Technology::n28())
    }

    #[test]
    fn long_wire_slew_is_repaired() {
        let (lib, tech) = fixtures();
        let mut t = ClockTree::new(Point::ORIGIN);
        t.add_sink(t.root(), Point::new(900.0, 0.0), 5.0);
        let before = max_slew(&t, &lib, &tech);
        assert!(before > 60.0, "a 900 µm wire must violate: {before}");
        let n = fix_slew(&mut t, &lib, &tech, 2, 60.0);
        assert!(n > 0);
        t.validate().unwrap();
        let after = max_slew(&t, &lib, &tech);
        assert!(after <= 60.0 + 1e-9, "after repair: {after}");
        // Wirelength preserved (repeaters split, they do not reroute).
        assert!((t.wirelength() - 900.0).abs() < 1e-9);
    }

    #[test]
    fn clean_trees_are_untouched() {
        let (lib, tech) = fixtures();
        let mut t = ClockTree::new(Point::ORIGIN);
        t.add_sink(t.root(), Point::new(30.0, 0.0), 1.0);
        let n = fix_slew(&mut t, &lib, &tech, 2, 60.0);
        assert_eq!(n, 0);
        assert_eq!(t.len(), 2);
    }

    #[test]
    fn branching_trees_are_repaired_everywhere() {
        let (lib, tech) = fixtures();
        let mut t = ClockTree::new(Point::ORIGIN);
        let hub = t.add_steiner(t.root(), Point::new(250.0, 0.0));
        t.add_sink(hub, Point::new(500.0, 200.0), 2.0);
        t.add_sink(hub, Point::new(500.0, -200.0), 2.0);
        fix_slew(&mut t, &lib, &tech, 2, 55.0);
        t.validate().unwrap();
        assert!(max_slew(&t, &lib, &tech) <= 55.0 + 1e-9);
        assert_eq!(t.sinks().len(), 2);
    }

    #[test]
    fn unreachable_limits_terminate() {
        // A limit below the source slew can never be met; the pass must
        // stop rather than spin.
        let (lib, tech) = fixtures();
        let mut t = ClockTree::new(Point::ORIGIN);
        t.add_sink(t.root(), Point::new(100.0, 0.0), 1.0);
        let n = fix_slew(&mut t, &lib, &tech, 0, 1.0);
        assert!(n < 1000, "must terminate, inserted {n}");
        t.validate().unwrap();
    }
}
