//! Cross-crate integration for the extension features: skew legalization,
//! OCV analysis and serialization, plus the paper-net pins on merge orders
//! and their embeddings.

use sllt::core::cbs::{
    cbs, step1_initial_bst, step3_salt_relax, step4_normalize_and_extract, CbsConfig,
};
use sllt::cts::{eval::evaluate, flow::HierarchicalCts, ocv};
use sllt::design::{DesignSpec, NetGenerator};
use sllt::route::{
    bst_dme, dme, skew_legalize, skew_of, zst_dme, DelayModel, DmeOptions, TopologyScheme,
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

/// Skew legalization (CBS step 5's in-place path) on paper nets, digested
/// as bits: for each merge-order scheme under both delay models, the tree
/// step 5 receives (steps 1, 3 and 4 of CBS), the detour legalization
/// adds, the skew it leaves, and both written trees. Changes to the shared
/// wire arithmetic and root-finder must leave all of it unchanged.
#[test]
fn legalization_is_pinned_on_paper_nets() {
    let gen = NetGenerator::paper();
    let mut bytes = Vec::new();
    let mut push = |v: f64| bytes.extend(v.to_bits().to_le_bytes());
    let mut trees = Vec::new();
    for i in 0..400u64 {
        let net = gen.net(i);
        for scheme in TopologyScheme::ALL {
            for (model, bound) in [
                (DelayModel::PathLength, 5.0),
                (DelayModel::Elmore(Technology::n28()), 1.0),
            ] {
                let cfg = CbsConfig {
                    scheme,
                    skew_bound: bound,
                    model,
                    ..CbsConfig::default()
                };
                let isllt = step1_initial_bst(&net, &cfg);
                let relaxed = step3_salt_relax(&net, isllt, cfg.eps);
                let (normalized, _) = step4_normalize_and_extract(relaxed);
                let mut legal = normalized.clone();
                push(skew_legalize(&mut legal, &model, bound));
                push(skew_of(&legal, &model));
                write_tree(&normalized, &mut trees).expect("in-memory write");
                write_tree(&legal, &mut trees).expect("in-memory write");
            }
        }
    }
    bytes.extend(trees);
    assert_eq!(
        format!("{:016x}", sllt::obs::journal::fnv1a64(&bytes)),
        "0d75733c7a3ab766"
    );
}

/// Every merge order the four schemes build on paper nets, and every tree
/// embedded over it, digested as bytes: the order's leaves and depth, then
/// the written ZST-DME, 5 µm BST-DME, 1 ps Elmore DME and CBS trees. A
/// change to how merge orders are built, stored or walked must leave all
/// of it unchanged.
#[test]
fn merge_orders_and_their_embeddings_are_pinned_on_paper_nets() {
    let gen = NetGenerator::paper();
    let elmore = DmeOptions {
        skew_bound: 1.0,
        model: DelayModel::Elmore(Technology::n28()),
    };
    let mut bytes = Vec::new();
    for i in 0..200u64 {
        let net = gen.net(i);
        for scheme in TopologyScheme::ALL {
            let topo = scheme.build(&net);
            for leaf in topo.leaves() {
                bytes.extend((leaf as u64).to_le_bytes());
            }
            bytes.extend((topo.depth() as u64).to_le_bytes());
            let cfg = CbsConfig {
                scheme,
                ..CbsConfig::default()
            };
            for tree in [
                zst_dme(&net, &topo),
                bst_dme(&net, &topo, 5.0),
                dme(&net, &topo, &elmore),
                cbs(&net, &cfg),
            ] {
                write_tree(&tree, &mut bytes).expect("in-memory write");
            }
        }
    }
    assert_eq!(
        format!("{:016x}", sllt::obs::journal::fnv1a64(&bytes)),
        "7c4698c05936f2c4"
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
