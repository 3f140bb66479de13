//! Useful-skew trees (UST-DME).
//!
//! Tsao–Koh (TODAES'02) generalize bounded skew to *useful skew*: timing
//! analysis assigns every sink an **arrival window** `[lo, hi]` (ps) and
//! any clock tree whose arrivals land inside the windows is legal —
//! deliberately unequal arrivals can donate margin to critical paths.
//!
//! The DME adaptation tracks, per subtree, the *launch window*: the set of
//! clock departure times at the subtree root for which every sink below
//! arrives inside its window. A leaf's launch window is its arrival
//! window; wiring a subtree through `e` µm shifts its window down by the
//! wire delay; a merge intersects the two shifted windows, spending
//! detour on the *early* side when they do not overlap. Detour only adds
//! delay, so a feasible tree always exists (it may be wire-expensive when
//! windows conflict strongly).

use crate::dme::{bisect, solve_increasing_from, DelayModel, DmeOptions};
use sllt_geom::{Point, RRect};
use sllt_tree::{ClockNet, ClockTree, HintedTopology, NodeId, Topology};

/// A useful-skew tree: the routed tree plus the launch window at its
/// root.
#[derive(Debug, Clone)]
pub struct UstTree {
    /// The routed tree (root at the net source).
    pub tree: ClockTree,
    /// Departure times at the *tree root* (after the source trunk) for
    /// which every sink arrival lands in its window, ps.
    pub launch_window: (f64, f64),
    /// Delay of the source→root trunk, ps — subtract from the launch
    /// window to get source departure times.
    pub trunk_delay: f64,
}

/// Builds a useful-skew tree: every sink `i` must arrive within
/// `windows[i]` (ps from clock departure at the tree root) under the
/// given delay model.
///
/// # Panics
///
/// Panics when the net is sinkless, `windows.len() != net.len()`, or a
/// window is inverted/negative.
pub fn ust_dme(
    net: &ClockNet,
    topo: &Topology,
    windows: &[(f64, f64)],
    opts: &DmeOptions,
) -> UstTree {
    assert!(!net.is_empty(), "UST over a sinkless net");
    assert_eq!(windows.len(), net.len(), "one window per sink");
    for &(lo, hi) in windows {
        assert!(lo >= 0.0 && hi >= lo, "bad arrival window ({lo}, {hi})");
    }
    let hinted = topo.to_hinted();
    let mut nodes: Vec<UstNode> = Vec::new();
    let root = build(net, &hinted, windows, &opts.model, &mut nodes);

    let mut tree = ClockTree::new(net.source);
    let root_pt = nodes[root].region.nearest_to(net.source);
    let source_node = tree.root();
    embed(net, &nodes, root, &mut tree, source_node, root_pt, None);

    // The trunk wire shifts every arrival equally; report its delay so
    // callers can translate the window to source departure times.
    let trunk_delay = opts
        .model
        .wire_delay(net.source.dist(root_pt), nodes[root].cap);
    UstTree {
        tree,
        launch_window: (nodes[root].lo, nodes[root].hi),
        trunk_delay,
    }
}

struct UstNode {
    region: RRect,
    /// Launch window at this node, ps.
    lo: f64,
    hi: f64,
    cap: f64,
    kids: Option<(usize, usize, f64, f64)>,
    sink: Option<usize>,
}

/// Bottom-up window-merge construction as an explicit postorder stack
/// machine (same shape as `dme::build_up`): greedy merge orders can be
/// n-deep chains, which recursion cannot traverse at production sink
/// counts. Arena order matches the recursive formulation exactly.
fn build(
    net: &ClockNet,
    topo: &HintedTopology,
    windows: &[(f64, f64)],
    model: &DelayModel,
    out: &mut Vec<UstNode>,
) -> usize {
    enum W<'t> {
        Visit(&'t HintedTopology),
        Build,
    }
    let mut work = vec![W::Visit(topo)];
    let mut done: Vec<usize> = Vec::new();
    while let Some(w) = work.pop() {
        match w {
            W::Visit(HintedTopology::Sink(i)) => {
                let i = *i;
                assert!(i < net.sinks.len(), "topology sink index {i} out of range");
                out.push(UstNode {
                    region: RRect::from_point(net.sinks[i].pos),
                    lo: windows[i].0,
                    hi: windows[i].1,
                    cap: model.pin_cap(net.sinks[i].cap_ff),
                    kids: None,
                    sink: Some(i),
                });
                done.push(out.len() - 1);
            }
            W::Visit(HintedTopology::Merge(a, b, _)) => {
                work.push(W::Build);
                work.push(W::Visit(b));
                work.push(W::Visit(a));
            }
            W::Build => {
                let ib = done.pop().expect("build follows two subtrees");
                let ia = done.pop().expect("build follows two subtrees");
                let m = merge_windows(&out[ia], &out[ib], model);
                out.push(UstNode {
                    region: m.region,
                    lo: m.lo,
                    hi: m.hi,
                    cap: m.cap,
                    kids: Some((ia, ib, m.ea, m.eb)),
                    sink: None,
                });
                done.push(out.len() - 1);
            }
        }
    }
    done.pop().expect("nonempty topology")
}

struct MergedWindow {
    region: RRect,
    lo: f64,
    hi: f64,
    cap: f64,
    ea: f64,
    eb: f64,
}

/// One useful-skew merge. With split `ea ∈ [0, d]` the children's launch
/// windows, as seen at the merge point, are `W_a − Da(ea)` and
/// `W_b − Db(d − ea)`; we want them to overlap with as much slack as
/// possible, detouring the *late-window* (early-arriving) child when the
/// full split range cannot make them meet.
fn merge_windows(a: &UstNode, b: &UstNode, model: &DelayModel) -> MergedWindow {
    let d = a.region.dist(&b.region);
    let da = |ea: f64| model.wire_delay(ea, a.cap);
    let db = |ea: f64| model.wire_delay(d - ea, b.cap);

    // Overlap condition at split ea:
    //   max(a.lo − Da, b.lo − Db) ≤ min(a.hi − Da, b.hi − Db).
    // g(ea) = (a.lo − Da) − (b.hi − Db) is decreasing in ea;
    // h(ea) = (b.lo − Db) − (a.hi − Da) is increasing in ea.
    let g = |ea: f64| (a.lo - da(ea)) - (b.hi - db(ea));
    let h = |ea: f64| (b.lo - db(ea)) - (a.hi - da(ea));

    let (ea, eb);
    if g(d) > 1e-12 {
        // Even all wire on a's side leaves a's window too late: detour a.
        let need = a.lo - b.hi; // Da(ea) − Db(0) must reach `need`
        let eb_val = 0.0;
        let target = need + model.wire_delay(eb_val, b.cap);
        ea = solve_delay(model, a.cap, target, d);
        eb = eb_val;
    } else if h(0.0) > 1e-12 {
        let need = b.lo - a.hi;
        let ea_val = 0.0;
        let target = need + model.wire_delay(ea_val, a.cap);
        eb = solve_delay(model, b.cap, target, d);
        ea = ea_val;
    } else {
        // Some split in [0, d] overlaps. Choose the one maximizing the
        // merged window (equivalently centring the two windows), found by
        // bisection on the difference of window centres.
        let centre_gap = |ea: f64| (a.lo + a.hi) / 2.0 - da(ea) - ((b.lo + b.hi) / 2.0 - db(ea));
        // centre_gap is decreasing in ea.
        let pick = if centre_gap(0.0) <= 0.0 {
            0.0
        } else if centre_gap(d) >= 0.0 {
            d
        } else {
            bisect(&centre_gap, 0.0, d, false)
        };
        // Clamp into the overlap-feasible range [root of g, root of h]
        // (g decreasing gates the lower end, h increasing the upper).
        let lo_feas = if g(0.0) <= 0.0 {
            0.0
        } else {
            bisect(&g, 0.0, d, false)
        };
        let hi_feas = if h(d) <= 0.0 {
            d
        } else {
            bisect(&h, 0.0, d, true)
        };
        ea = pick.clamp(lo_feas.min(hi_feas), hi_feas.max(lo_feas));
        eb = d - ea;
    }

    let (da_v, db_v) = (model.wire_delay(ea, a.cap), model.wire_delay(eb, b.cap));
    let lo = (a.lo - da_v).max(b.lo - db_v);
    let hi = (a.hi - da_v).min(b.hi - db_v);
    let region = a
        .region
        .inflated(ea)
        .intersection(&b.region.inflated(eb))
        .expect("e_a + e_b >= dist keeps regions intersecting");
    MergedWindow {
        region,
        lo,
        hi: hi.max(lo), // numerical guard: windows touch at worst
        cap: a.cap + b.cap + model.wire_cap(ea + eb),
        ea,
        eb,
    }
}

/// Smallest `e ≥ min_e` with `wire_delay(e, cap) ≥ target`.
fn solve_delay(model: &DelayModel, cap: f64, target: f64, min_e: f64) -> f64 {
    solve_increasing_from(|e| model.wire_delay(e, cap) - target, min_e.max(1.0) * 2.0)
        .expect("UST detour search diverged")
        .max(min_e)
}

/// Top-down embedding as an explicit preorder stack (left child pushed
/// last, so embedded first — tree node ids come out in recursive order);
/// see `dme::embed_down`.
#[allow(clippy::too_many_arguments)]
fn embed(
    net: &ClockNet,
    nodes: &[UstNode],
    root_idx: usize,
    tree: &mut ClockTree,
    root_parent: NodeId,
    root_pos: Point,
    root_edge: Option<f64>,
) {
    let mut stack: Vec<(usize, NodeId, Point, Option<f64>)> =
        vec![(root_idx, root_parent, root_pos, root_edge)];
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
}

/// Verifies a UST result: with departure at `launch` ps (measured at the
/// tree root, i.e. inside [`UstTree::launch_window`]), does every sink
/// arrive within its window? Returns the worst violation in ps (≤ 0 means
/// all windows met).
pub fn window_violation(
    ust: &UstTree,
    windows: &[(f64, f64)],
    model: &DelayModel,
    launch: f64,
) -> f64 {
    let tree = &ust.tree;
    let (rc, map) = tree.to_rc_tree();
    let delays = match model {
        DelayModel::PathLength => {
            let pl = tree.path_lengths();
            (0..pl.len()).map(|i| pl[i]).collect::<Vec<_>>()
        }
        DelayModel::Elmore(t) => {
            let d = rc.elmore(t, 0.0);
            let mut by_raw = vec![0.0; tree.arena_len()];
            for (raw, slot) in map.iter().enumerate() {
                if let Some(ri) = slot {
                    by_raw[raw] = d[*ri];
                }
            }
            by_raw
        }
    };
    // Delay from the *tree root* (after trunk): subtract the trunk leg.
    let mut worst = f64::NEG_INFINITY;
    for id in tree.sinks() {
        if let sllt_tree::NodeKind::Sink { sink_index, .. } = tree.node(id).kind {
            let arrival = launch + delays[id.index()] - ust.trunk_delay;
            let (lo, hi) = windows[sink_index];
            worst = worst.max(lo - arrival).max(arrival - hi);
        }
    }
    worst
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topogen::TopologyScheme;
    use sllt_rng::prelude::*;
    use sllt_tree::Sink;

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

    fn opts_pl() -> DmeOptions {
        DmeOptions {
            skew_bound: 0.0,
            model: DelayModel::PathLength,
        }
    }

    #[test]
    fn identical_point_windows_reduce_to_zero_skew() {
        // Every sink must arrive at exactly 120 µm of path: a ZST with a
        // fixed total path length.
        let net = random_net(1, 12);
        let topo = TopologyScheme::GreedyDist.build(&net);
        let windows = vec![(120.0, 120.0); net.len()];
        let ust = ust_dme(&net, &topo, &windows, &opts_pl());
        ust.tree.validate().unwrap();
        let skew = sllt_tree::metrics::path_length_skew(&ust.tree);
        assert!(skew < 1e-6, "point windows force zero skew, got {skew}");
        // Launch window collapses to the single feasible departure.
        assert!(ust.launch_window.1 - ust.launch_window.0 < 1e-6);
        let v = window_violation(&ust, &windows, &DelayModel::PathLength, ust.launch_window.0);
        assert!(v <= 1e-6, "violation {v}");
    }

    #[test]
    fn wide_windows_cost_no_detour() {
        // A configuration where zero skew *forces* detour (a deep pair
        // merged with a nearby shallow sink): wide windows skip it.
        let net = ClockNet::new(
            Point::ORIGIN,
            vec![
                Sink::new(Point::new(0.0, 6.0), 1.0),
                Sink::new(Point::new(0.0, -6.0), 1.0),
                Sink::new(Point::new(4.0, 0.0), 1.0),
            ],
        );
        let topo = Topology::merge(
            Topology::merge(Topology::Sink(0), Topology::Sink(1)),
            Topology::Sink(2),
        );
        let wide = vec![(0.0, 1e6); net.len()];
        let ust = ust_dme(&net, &topo, &wide, &opts_pl());
        let zst = crate::dme::zst_dme(&net, &topo);
        assert!(
            (zst.wirelength() - 18.0).abs() < 1e-6,
            "zst {}",
            zst.wirelength()
        );
        assert!(
            ust.tree.wirelength() <= 16.0 + 1e-6,
            "wide windows must skip the detour: {}",
            ust.tree.wirelength()
        );
        let mid = (ust.launch_window.0 + ust.launch_window.1) / 2.0;
        assert!(window_violation(&ust, &wide, &DelayModel::PathLength, mid) <= 1e-6);

        // And on random nets, never heavier than the zero-skew tree.
        for seed in 0..10 {
            let net = random_net(seed + 40, 15);
            let topo = TopologyScheme::GreedyDist.build(&net);
            let wide = vec![(0.0, 1e6); net.len()];
            let ust = ust_dme(&net, &topo, &wide, &opts_pl());
            let zst = crate::dme::zst_dme(&net, &topo);
            assert!(ust.tree.wirelength() <= zst.wirelength() + 1e-6);
        }
    }

    #[test]
    fn staggered_windows_are_honoured() {
        // Two groups with disjoint arrival windows: the tree must skew
        // deliberately.
        let net = random_net(3, 10);
        let topo = TopologyScheme::BiCluster.build(&net);
        let windows: Vec<(f64, f64)> = (0..net.len())
            .map(|i| {
                if i % 2 == 0 {
                    (100.0, 130.0)
                } else {
                    (160.0, 190.0)
                }
            })
            .collect();
        let ust = ust_dme(&net, &topo, &windows, &opts_pl());
        ust.tree.validate().unwrap();
        let launch = (ust.launch_window.0 + ust.launch_window.1) / 2.0;
        let v = window_violation(&ust, &windows, &DelayModel::PathLength, launch);
        assert!(v <= 1e-6, "violation {v}");
        // The realized skew is non-zero by design.
        assert!(sllt_tree::metrics::path_length_skew(&ust.tree) > 10.0);
    }

    #[test]
    fn elmore_windows_are_honoured() {
        let tech = sllt_timing::Technology::n28();
        let model = DelayModel::Elmore(tech);
        let net = random_net(4, 12);
        let topo = TopologyScheme::GreedyDist.build(&net);
        let windows: Vec<(f64, f64)> = (0..net.len())
            .map(|i| if i < 6 { (10.0, 14.0) } else { (15.0, 20.0) })
            .collect();
        let ust = ust_dme(
            &net,
            &topo,
            &windows,
            &DmeOptions {
                skew_bound: 0.0,
                model,
            },
        );
        ust.tree.validate().unwrap();
        let launch = (ust.launch_window.0 + ust.launch_window.1) / 2.0;
        let v = window_violation(&ust, &windows, &model, launch);
        assert!(v <= 1e-6, "violation {v} ps");
    }

    #[test]
    #[cfg(feature = "proptest")]
    fn proptest_ust_always_feasible() {
        use proptest::prelude::*;
        proptest!(|(seed in 0u64..60, n in 2usize..14)| {
            let net = random_net(seed + 900, n);
            let topo = TopologyScheme::GreedyDist.build(&net);
            let mut rng = StdRng::seed_from_u64(seed);
            let windows: Vec<(f64, f64)> = (0..n)
                .map(|_| {
                    let lo = rng.random_range(80.0..200.0);
                    (lo, lo + rng.random_range(0.5..40.0))
                })
                .collect();
            let ust = ust_dme(&net, &topo, &windows, &opts_pl());
            prop_assert!(ust.tree.validate().is_ok());
            prop_assert!(ust.launch_window.1 + 1e-9 >= ust.launch_window.0);
            let launch = (ust.launch_window.0 + ust.launch_window.1) / 2.0;
            let v = window_violation(&ust, &windows, &DelayModel::PathLength, launch);
            prop_assert!(v <= 1e-6, "violation {}", v);
        });
    }

    #[test]
    #[should_panic(expected = "bad arrival window")]
    fn inverted_window_rejected() {
        let net = random_net(5, 3);
        let topo = TopologyScheme::GreedyDist.build(&net);
        let windows = vec![(10.0, 5.0); 3];
        let _ = ust_dme(&net, &topo, &windows, &opts_pl());
    }
}
