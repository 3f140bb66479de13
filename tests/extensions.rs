//! Cross-crate integration for the extension features: useful-skew trees,
//! skew legalization, OCV analysis and serialization.

use sllt::cts::{eval::evaluate, flow::HierarchicalCts, ocv};
use sllt::design::{DesignSpec, NetGenerator};
use sllt::route::{
    skew_legalize, skew_of, ust_dme, window_violation, DelayModel, DmeOptions, TopologyScheme,
};
use sllt::timing::Technology;
use sllt::tree::io::{read_tree, write_tree};

/// A full flow tree survives a serialization round trip with identical
/// evaluation.
#[test]
fn flow_tree_round_trips_through_the_text_format() {
    let design = DesignSpec::by_name("s35932").unwrap().instantiate();
    let cts = HierarchicalCts::default();
    let tree = cts.run(&design).unwrap();
    let before = evaluate(&tree, &cts.tech, &cts.lib);

    let mut buf = Vec::new();
    write_tree(&tree, &mut buf).expect("write");
    let back = read_tree(&mut buf.as_slice()).expect("read");
    back.validate().unwrap();
    let after = evaluate(&back, &cts.tech, &cts.lib);

    assert_eq!(before.num_sinks, after.num_sinks);
    assert_eq!(before.num_buffers, after.num_buffers);
    assert!((before.max_latency_ps - after.max_latency_ps).abs() < 1e-6);
    assert!((before.skew_ps - after.skew_ps).abs() < 1e-6);
    assert!((before.clock_wl_um - after.clock_wl_um).abs() < 1e-6);
}

/// Useful-skew scheduling on a paper-sized net: staggered windows are met
/// under the Elmore model, and relaxing the windows saves wire.
#[test]
fn ust_honours_windows_on_paper_nets() {
    let tech = Technology::n28();
    let model = DelayModel::Elmore(tech);
    let gen = NetGenerator::paper();
    for i in 0..5u64 {
        let net = gen.net(i);
        let topo = TopologyScheme::GreedyDist.build(&net);
        let windows: Vec<(f64, f64)> = (0..net.len())
            .map(|s| {
                if s % 3 == 0 {
                    (8.0, 12.0)
                } else {
                    (12.0, 18.0)
                }
            })
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
        assert!(v <= 1e-6, "net {i}: violation {v} ps");
    }
}

/// Every number useful-skew DME and skew legalization produce on paper
/// nets, digested as bits: launch windows, trunk delays, window
/// violations, detours, skews and the written trees, for each merge-order
/// scheme under both delay models. Changes to the shared wire arithmetic
/// and root-finder must leave all of it unchanged.
#[test]
fn ust_and_legalization_are_pinned_on_paper_nets() {
    let gen = NetGenerator::paper();
    let mut bytes = Vec::new();
    let mut push = |v: f64| bytes.extend(v.to_bits().to_le_bytes());
    let mut trees = Vec::new();
    for i in 0..400u64 {
        let net = gen.net(i);
        for scheme in TopologyScheme::ALL {
            let topo = scheme.build(&net);
            for (model, early, late, bound) in [
                (DelayModel::PathLength, (50.0, 80.0), (80.0, 120.0), 5.0),
                (
                    DelayModel::Elmore(Technology::n28()),
                    (8.0, 12.0),
                    (12.0, 18.0),
                    1.0,
                ),
            ] {
                let windows: Vec<(f64, f64)> = (0..net.len() as u64)
                    .map(|s| if (s + i) % 3 == 0 { early } else { late })
                    .collect();
                let opts = DmeOptions {
                    skew_bound: 0.0,
                    model,
                };
                let ust = ust_dme(&net, &topo, &windows, &opts);
                let launch = (ust.launch_window.0 + ust.launch_window.1) / 2.0;
                push(ust.launch_window.0);
                push(ust.launch_window.1);
                push(ust.trunk_delay);
                push(window_violation(&ust, &windows, &model, launch));
                let mut legal = ust.tree.clone();
                push(skew_legalize(&mut legal, &model, bound));
                push(skew_of(&legal, &model));
                write_tree(&ust.tree, &mut trees).expect("in-memory write");
                write_tree(&legal, &mut trees).expect("in-memory write");
            }
        }
    }
    bytes.extend(trees);
    assert_eq!(
        format!("{:016x}", sllt::obs::journal::fnv1a64(&bytes)),
        "77ab3fdf9d607afe"
    );
}

/// OCV derate analysis ranks the three flows the way the paper's
/// motivation predicts on a real design.
#[test]
fn derate_growth_ranks_flows() {
    let design = DesignSpec::by_name("s38417").unwrap().instantiate();
    let cts = HierarchicalCts::default();
    let ours = cts.run(&design).unwrap();
    let or_tree = sllt::cts::baseline::open_road_like(
        &design,
        &sllt::cts::CtsConstraints::paper(),
        &cts.tech,
        &cts.lib,
    );
    let growth = |tree: &sllt::tree::ClockTree| {
        ocv::derate_skew(tree, &cts.tech, &cts.lib, 0.08)
            - ocv::derate_skew(tree, &cts.tech, &cts.lib, 0.0)
    };
    assert!(growth(&ours) < growth(&or_tree));
}
