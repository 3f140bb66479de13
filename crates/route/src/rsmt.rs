//! Rectilinear Steiner minimum tree heuristic (FLUTE substitute).
//!
//! Two stages:
//!
//! 1. **RMST** — a Prim minimum spanning tree in the L1 metric rooted at
//!    the clock source,
//! 2. **Steinerization** — repeated best-gain insertion of median points:
//!    for a node `v` with neighbours `a, b`, the component-wise median `m`
//!    of `(v, a, b)` lies inside both `bbox(a, v)` and `bbox(b, v)`, so
//!    replacing the star `{v–a, v–b}` by `{v–m, m–a, m–b}` never lengthens
//!    any source→sink path while saving `d(v,a) + d(v,b) − d(v,m) −
//!    d(m,a) − d(m,b)` µm of wire.
//!
//! On 10–40-pin clock nets this lands within a few percent of FLUTE's
//! wirelength (the RMST is at most 1.5× the RSMT; Steinerization
//! recovers most of the gap), which is all the lightness baseline of the
//! paper needs — see `DESIGN.md` for the substitution note.

use sllt_geom::Point;
use sllt_tree::{ClockNet, ClockTree, NodeId};

/// Builds the rectilinear *spanning* tree (no Steiner points), rooted at
/// the net's source. Runs Prim in O(n²).
pub fn rmst(net: &ClockNet) -> ClockTree {
    let mut tree = ClockTree::new(net.source);
    let n = net.sinks.len();
    if n == 0 {
        return tree;
    }
    // points[0] = source, points[i+1] = sink i.
    let mut pts = Vec::with_capacity(n + 1);
    pts.push(net.source);
    pts.extend(net.sinks.iter().map(|s| s.pos));

    let mut in_tree = vec![false; n + 1];
    let mut best_dist = vec![f64::INFINITY; n + 1];
    let mut best_link = vec![0usize; n + 1];
    let mut node_of: Vec<Option<NodeId>> = vec![None; n + 1];

    in_tree[0] = true;
    node_of[0] = Some(tree.root());
    for i in 1..=n {
        best_dist[i] = pts[0].dist(pts[i]);
    }
    for _ in 0..n {
        // Pick the closest unattached point.
        let (mut pick, mut pick_d) = (usize::MAX, f64::INFINITY);
        for i in 1..=n {
            if !in_tree[i] && best_dist[i] < pick_d {
                pick = i;
                pick_d = best_dist[i];
            }
        }
        let parent = node_of[best_link[pick]].expect("link is in tree");
        let sink = &net.sinks[pick - 1];
        let id = tree.add_sink_indexed(parent, sink.pos, sink.cap_ff, pick - 1);
        node_of[pick] = Some(id);
        in_tree[pick] = true;
        for i in 1..=n {
            if !in_tree[i] {
                let d = pts[pick].dist(pts[i]);
                if d < best_dist[i] {
                    best_dist[i] = d;
                    best_link[i] = pick;
                }
            }
        }
    }
    tree
}

/// Builds a rectilinear Steiner tree: [`rmst`] followed by
/// [`steinerize`]. The result's wirelength is the workspace's lightness
/// reference (`β`-denominator).
pub fn rsmt(net: &ClockNet) -> ClockTree {
    // The quadratic Prim is fine for CTS-sized nets; whole-design nets go
    // through the octant-graph MST (same weight, near-linear).
    let mut tree = if net.len() > 512 {
        crate::rmst_fast::rmst_octant(net)
    } else {
        rmst(net)
    };
    steinerize(&mut tree);
    tree
}

/// Convenience: the RSMT wirelength of a net, µm.
pub fn rsmt_wirelength(net: &ClockNet) -> f64 {
    rsmt(net).wirelength()
}

/// Component-wise median of three points.
fn median3(a: Point, b: Point, c: Point) -> Point {
    fn med(x: f64, y: f64, z: f64) -> f64 {
        x.max(y).min(x.max(z)).min(y.max(z))
    }
    Point::new(med(a.x, b.x, c.x), med(a.y, b.y, c.y))
}

/// Greedy median-point Steinerization. Mutates `tree` in place; returns
/// the total wirelength saved.
///
/// Only straight-distance edges are touched: an edge carrying detour wire
/// (routed length above the Manhattan distance) is left alone, since the
/// detour encodes a deliberate delay-balancing decision.
pub fn steinerize(tree: &mut ClockTree) -> f64 {
    let mut saved = 0.0;
    let mut nbrs = Vec::new();
    // Bounded passes; each pass scans the nodes live at its start (moves
    // add Steiner nodes past them, never revive a slot) and applies the
    // best gain move per node.
    for _ in 0..8 {
        let mut improved = false;
        for i in 0..tree.arena_len() {
            let Some(v) = tree.live_id(i) else {
                continue;
            };
            loop {
                let gain = best_median_move(tree, v, &mut nbrs);
                match gain {
                    Some((a, b, m, g)) if g > 1e-9 => {
                        apply_median_move(tree, v, a, b, m);
                        saved += g;
                        improved = true;
                    }
                    _ => break,
                }
            }
        }
        if !improved {
            break;
        }
    }
    saved
}

/// Iterated 1-median relocation of Steiner points. Each Steiner node is
/// moved to the component-wise median of its neighbours whenever that
/// shortens the adjacent wire; passes repeat to a fixed point. Returns
/// the wirelength saved.
///
/// Nodes touching detour-carrying edges are left in place — the detour
/// encodes a deliberate delay-balancing decision, and relocation would
/// discard it. Unlike [`steinerize`], relocation may *lengthen*
/// individual source→sink paths (while shortening total wire), so
/// shallowness-sensitive callers must re-enforce their budget afterwards.
pub fn relocate_steiner(tree: &mut ClockTree) -> f64 {
    /// Component-wise lower median, sorting through the `xs`/`ys`
    /// scratch buffers.
    fn median_of(pts: &[Point], xs: &mut Vec<f64>, ys: &mut Vec<f64>) -> Point {
        xs.clear();
        ys.clear();
        xs.extend(pts.iter().map(|p| p.x));
        ys.extend(pts.iter().map(|p| p.y));
        // `total_cmp` ties only identical bits, so an unstable sort
        // yields the same sequence a stable one would.
        xs.sort_unstable_by(f64::total_cmp);
        ys.sort_unstable_by(f64::total_cmp);
        // Lower median: exact optimum for odd counts, optimal-corner for
        // even ones.
        Point::new(xs[(xs.len() - 1) / 2], ys[(ys.len() - 1) / 2])
    }
    let mut saved = 0.0;
    let (mut nbr_pos, mut xs, mut ys) = (Vec::new(), Vec::new(), Vec::new());
    for _ in 0..10 {
        let mut improved = false;
        // Relocation moves nodes but never adds or removes any.
        for i in 0..tree.arena_len() {
            let Some(v) = tree.live_id(i) else {
                continue;
            };
            let node = tree.node(v);
            if !node.kind.is_steiner() {
                continue;
            }
            let pv = node.pos;
            nbr_pos.clear();
            let mut straight = true;
            if let Some(p) = node.parent() {
                straight &= node.edge_len() <= tree.node(p).pos.dist(pv) + 1e-9;
                nbr_pos.push(tree.node(p).pos);
            }
            for c in node.children() {
                straight &= tree.node(c).edge_len() <= tree.node(c).pos.dist(pv) + 1e-9;
                nbr_pos.push(tree.node(c).pos);
            }
            if !straight || nbr_pos.len() < 2 {
                continue;
            }
            let m = median_of(&nbr_pos, &mut xs, &mut ys);
            if m.approx_eq(pv) {
                continue;
            }
            let before: f64 = nbr_pos.iter().map(|&q| pv.dist(q)).sum();
            let after: f64 = nbr_pos.iter().map(|&q| m.dist(q)).sum();
            if after + 1e-9 < before {
                tree.move_node(v, m);
                saved += before - after;
                improved = true;
            }
        }
        if !improved {
            break;
        }
    }
    saved
}

/// [`steinerize`] as it was before its passes walked arena slots and
/// reused a neighbour buffer: a collected id list per pass and a fresh
/// `Vec` per node. The oracle the rewrite is checked against.
#[cfg(test)]
fn steinerize_collected(tree: &mut ClockTree) -> f64 {
    let mut saved = 0.0;
    let mut nbrs = Vec::new();
    for _ in 0..8 {
        let mut improved = false;
        let ids: Vec<NodeId> = tree.node_ids().collect();
        for v in ids {
            if !tree.is_alive(v) {
                continue;
            }
            loop {
                match best_median_move(tree, v, &mut nbrs) {
                    Some((a, b, m, g)) if g > 1e-9 => {
                        apply_median_move(tree, v, a, b, m);
                        saved += g;
                        improved = true;
                    }
                    _ => break,
                }
            }
        }
        if !improved {
            break;
        }
    }
    saved
}

/// [`relocate_steiner`] as it was before its passes walked arena slots
/// and reused its buffers: a collected id list per pass, fresh `Vec`s
/// per node and stable median sorts. The oracle the rewrite is checked
/// against.
#[cfg(test)]
fn relocate_collected(tree: &mut ClockTree) -> f64 {
    fn median_of(pts: &[Point]) -> Point {
        let mut xs: Vec<f64> = pts.iter().map(|p| p.x).collect();
        let mut ys: Vec<f64> = pts.iter().map(|p| p.y).collect();
        xs.sort_by(f64::total_cmp);
        ys.sort_by(f64::total_cmp);
        Point::new(xs[(xs.len() - 1) / 2], ys[(ys.len() - 1) / 2])
    }
    let mut saved = 0.0;
    for _ in 0..10 {
        let mut improved = false;
        let ids: Vec<NodeId> = tree.node_ids().collect();
        for v in ids {
            if !tree.is_alive(v) || !tree.node(v).kind.is_steiner() {
                continue;
            }
            let node = tree.node(v);
            let pv = node.pos;
            let mut nbr_pos = Vec::new();
            let mut straight = true;
            if let Some(p) = node.parent() {
                straight &= node.edge_len() <= tree.node(p).pos.dist(pv) + 1e-9;
                nbr_pos.push(tree.node(p).pos);
            }
            for c in node.children() {
                straight &= tree.node(c).edge_len() <= tree.node(c).pos.dist(pv) + 1e-9;
                nbr_pos.push(tree.node(c).pos);
            }
            if !straight || nbr_pos.len() < 2 {
                continue;
            }
            let m = median_of(&nbr_pos);
            if m.approx_eq(pv) {
                continue;
            }
            let before: f64 = nbr_pos.iter().map(|&q| pv.dist(q)).sum();
            let after: f64 = nbr_pos.iter().map(|&q| m.dist(q)).sum();
            if after + 1e-9 < before {
                tree.move_node(v, m);
                saved += before - after;
                improved = true;
            }
        }
        if !improved {
            break;
        }
    }
    saved
}

/// Finds the best median insertion around `v`: a pair of its straight
/// neighbour edges and the median point, with the wirelength gain.
/// `nbrs` is scratch space.
fn best_median_move(
    tree: &ClockTree,
    v: NodeId,
    nbrs: &mut Vec<NodeId>,
) -> Option<(NodeId, NodeId, Point, f64)> {
    let node = tree.node(v);
    let pv = node.pos;
    // Straight (detour-free) neighbours only.
    nbrs.clear();
    if let Some(p) = node.parent() {
        if node.edge_len() <= tree.node(p).pos.dist(pv) + 1e-9 {
            nbrs.push(p);
        }
    }
    for c in node.children() {
        if tree.node(c).edge_len() <= tree.node(c).pos.dist(pv) + 1e-9 {
            nbrs.push(c);
        }
    }
    let mut best: Option<(NodeId, NodeId, Point, f64)> = None;
    for i in 0..nbrs.len() {
        for j in (i + 1)..nbrs.len() {
            let (a, b) = (nbrs[i], nbrs[j]);
            let (pa, pb) = (tree.node(a).pos, tree.node(b).pos);
            let m = median3(pv, pa, pb);
            if m.approx_eq(pv) || m.approx_eq(pa) || m.approx_eq(pb) {
                continue;
            }
            let g = pv.dist(pa) + pv.dist(pb) - (pv.dist(m) + m.dist(pa) + m.dist(pb));
            if g > best.map_or(0.0, |(_, _, _, bg)| bg) {
                best = Some((a, b, m, g));
            }
        }
    }
    best
}

/// Rewires the star `{v–a, v–b}` through a new Steiner node at `m`.
fn apply_median_move(tree: &mut ClockTree, v: NodeId, a: NodeId, b: NodeId, m: Point) {
    let parent = tree.node(v).parent();
    if parent == Some(a) {
        // a is v's parent: a → m → {v, b}.
        let s = tree.add_steiner(a, m);
        tree.reparent(v, s);
        tree.reparent(b, s);
    } else if parent == Some(b) {
        let s = tree.add_steiner(b, m);
        tree.reparent(v, s);
        tree.reparent(a, s);
    } else {
        // Both are children: v → m → {a, b}.
        let s = tree.add_steiner(v, m);
        tree.reparent(a, s);
        tree.reparent(b, s);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sllt_rng::prelude::*;
    use sllt_tree::Sink;

    fn random_net(seed: u64, n: usize, side: f64) -> ClockNet {
        let mut rng = StdRng::seed_from_u64(seed);
        ClockNet::new(
            Point::new(rng.random_range(0.0..side), rng.random_range(0.0..side)),
            (0..n)
                .map(|_| {
                    Sink::new(
                        Point::new(rng.random_range(0.0..side), rng.random_range(0.0..side)),
                        1.0,
                    )
                })
                .collect(),
        )
    }

    /// Walking arena slots with reused buffers must leave every tree and
    /// every saving bit-identical to the collected-id passes.
    #[test]
    fn slot_walk_passes_match_collected_ids() {
        let mut trees = Vec::new();
        for seed in 0..120 {
            let n = 2 + (seed as usize * 7) % 90;
            let net = if seed % 3 == 0 {
                // 15 µm grid positions: ties and coincident points.
                let mut rng = StdRng::seed_from_u64(seed);
                ClockNet::new(
                    Point::new(30.0, 30.0),
                    (0..n)
                        .map(|_| {
                            let (i, j) = (rng.random_range(0..6), rng.random_range(0..6));
                            Sink::new(Point::new(i as f64 * 15.0, j as f64 * 15.0), 1.0)
                        })
                        .collect(),
                )
            } else {
                random_net(seed + 900, n, 75.0)
            };
            let topo = crate::topogen::TopologyScheme::GreedyDist.build(&net);
            let bst = crate::dme::bst_dme(&net, &topo, 5.0);
            let mut stripped = bst.clone();
            for id in stripped.node_ids().collect::<Vec<_>>() {
                if let Some(p) = stripped.node(id).parent() {
                    let d = stripped.node(p).pos.dist(stripped.node(id).pos);
                    stripped.set_edge_len(id, d);
                }
            }
            trees.extend([rmst(&net), rsmt(&net), bst, stripped]);
        }
        let mut moved = 0;
        for tree in &trees {
            // Alternate the passes as SALT does, from each starting shape.
            let (mut fast, mut full) = (tree.clone(), tree.clone());
            for _ in 0..3 {
                let saved = (steinerize(&mut fast), steinerize_collected(&mut full));
                assert_eq!(saved.0.to_bits(), saved.1.to_bits());
                assert!(fast == full);
                let saved = (relocate_steiner(&mut fast), relocate_collected(&mut full));
                assert_eq!(saved.0.to_bits(), saved.1.to_bits());
                assert!(fast == full);
                moved += usize::from(saved.0 > 0.0);
            }
        }
        assert!(moved > 20, "relocation moved nodes in only {moved} trees");
    }

    #[test]
    fn median3_is_in_all_pair_boxes() {
        let a = Point::new(0.0, 0.0);
        let b = Point::new(10.0, 2.0);
        let c = Point::new(4.0, 8.0);
        let m = median3(a, b, c);
        assert_eq!(m, Point::new(4.0, 2.0));
        // Lies inside bbox of every pair: distances decompose exactly.
        assert!((a.dist(m) + m.dist(b) - a.dist(b)).abs() < 1e-12);
        assert!((a.dist(m) + m.dist(c) - a.dist(c)).abs() < 1e-12);
        assert!((b.dist(m) + m.dist(c) - b.dist(c)).abs() < 1e-12);
    }

    #[test]
    fn rmst_spans_all_sinks() {
        let net = random_net(1, 20, 75.0);
        let t = rmst(&net);
        assert_eq!(t.sinks().len(), 20);
        t.validate().unwrap();
    }

    #[test]
    fn rmst_of_empty_net_is_bare_source() {
        let net = ClockNet::new(Point::ORIGIN, vec![]);
        assert!(rmst(&net).is_empty());
    }

    #[test]
    fn classic_l_corner_gains_a_steiner_point() {
        // Source at origin; sinks at (10,0) and (10,10): the RMST chains
        // them (WL 20); the RSMT is identical here. But sinks at (8, 4)
        // and (8, -4) from origin: MST = 8+4 + 8 (chain) vs Steiner at
        // (8, 0): 8 + 4 + 4 = 16.
        let net = ClockNet::new(
            Point::ORIGIN,
            vec![
                Sink::new(Point::new(8.0, 4.0), 1.0),
                Sink::new(Point::new(8.0, -4.0), 1.0),
            ],
        );
        let mst_wl = rmst(&net).wirelength();
        let t = rsmt(&net);
        assert!((mst_wl - 20.0).abs() < 1e-9);
        assert!(
            (t.wirelength() - 16.0).abs() < 1e-9,
            "got {}",
            t.wirelength()
        );
        t.validate().unwrap();
    }

    #[test]
    fn steinerization_never_hurts_and_respects_validity() {
        for seed in 0..20 {
            let net = random_net(seed, 25, 75.0);
            let before = rmst(&net).wirelength();
            let t = rsmt(&net);
            t.validate().unwrap();
            assert!(t.wirelength() <= before + 1e-9);
            assert_eq!(t.sinks().len(), 25);
        }
    }

    #[test]
    fn steinerization_never_lengthens_paths() {
        for seed in 0..10 {
            let net = random_net(seed + 100, 20, 75.0);
            let base = rmst(&net);
            let pl_before = base.path_lengths();
            let sink_pl_before: Vec<(usize, f64)> = base
                .sinks()
                .iter()
                .map(|&id| match base.node(id).kind {
                    sllt_tree::NodeKind::Sink { sink_index, .. } => {
                        (sink_index, pl_before[id.index()])
                    }
                    _ => unreachable!(),
                })
                .collect();
            let t = rsmt(&net);
            let pl_after = t.path_lengths();
            for &id in &t.sinks() {
                let (sink_index, after) = match t.node(id).kind {
                    sllt_tree::NodeKind::Sink { sink_index, .. } => {
                        (sink_index, pl_after[id.index()])
                    }
                    _ => unreachable!(),
                };
                let before = sink_pl_before
                    .iter()
                    .find(|(i, _)| *i == sink_index)
                    .expect("sink preserved")
                    .1;
                assert!(
                    after <= before + 1e-6,
                    "path to sink {sink_index} grew: {before} -> {after}"
                );
            }
        }
    }

    #[test]
    fn rsmt_beats_or_ties_mst_on_random_nets() {
        let mut total_gain = 0.0;
        for seed in 0..30 {
            let net = random_net(seed + 500, 30, 75.0);
            let mst = rmst(&net).wirelength();
            let st = rsmt(&net).wirelength();
            assert!(st <= mst + 1e-9);
            total_gain += (mst - st) / mst;
        }
        // Median-point Steinerization typically recovers ~5-10 % of MST WL.
        assert!(
            total_gain / 30.0 > 0.02,
            "mean gain {:.4}",
            total_gain / 30.0
        );
    }

    #[test]
    fn duplicate_sink_positions_are_handled() {
        let p = Point::new(5.0, 5.0);
        let net = ClockNet::new(Point::ORIGIN, vec![Sink::new(p, 1.0); 3]);
        let t = rsmt(&net);
        assert_eq!(t.sinks().len(), 3);
        t.validate().unwrap();
        assert!((t.wirelength() - 10.0).abs() < 1e-9);
    }
}
