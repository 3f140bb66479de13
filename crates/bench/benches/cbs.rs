//! Criterion: CBS construction cost — scaling with net size, skew bound
//! and SALT ε (the ablation dimensions DESIGN.md calls out), plus the
//! hierarchical flow's level-0 workload. Recorded in `BENCH_kernels.json`.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use sllt_core::cbs::{cbs, try_cbs_intervals, CbsConfig};
use sllt_cts::flow::HierarchicalCts;
use sllt_design::GridSpec;
use sllt_geom::Point;
use sllt_rng::prelude::*;
use sllt_route::DelayModel;
use sllt_timing::Technology;
use sllt_tree::{ClockNet, Sink};
use std::time::Duration;

fn net_of(n: usize) -> ClockNet {
    let mut rng = StdRng::seed_from_u64(n as u64);
    ClockNet::new(
        Point::new(37.5, 37.5),
        (0..n)
            .map(|_| {
                Sink::new(
                    Point::new(rng.random_range(0.0..75.0), rng.random_range(0.0..75.0)),
                    0.8,
                )
            })
            .collect(),
    )
}

fn bench_cbs_size(c: &mut Criterion) {
    let mut g = c.benchmark_group("cbs_by_size");
    for n in [10usize, 20, 40, 80] {
        let net = net_of(n);
        g.bench_with_input(BenchmarkId::from_parameter(n), &net, |b, net| {
            b.iter(|| cbs(std::hint::black_box(net), &CbsConfig::default()))
        });
    }
    g.finish();
}

fn bench_cbs_bound(c: &mut Criterion) {
    let tech = Technology::n28();
    let net = net_of(30);
    let mut g = c.benchmark_group("cbs_by_elmore_bound");
    for bound in [80.0f64, 10.0, 5.0, 1.0] {
        let cfg = CbsConfig {
            skew_bound: bound,
            model: DelayModel::Elmore(tech),
            ..CbsConfig::default()
        };
        g.bench_with_input(BenchmarkId::from_parameter(bound), &cfg, |b, cfg| {
            b.iter(|| cbs(std::hint::black_box(&net), cfg))
        });
    }
    g.finish();
}

fn bench_cbs_eps(c: &mut Criterion) {
    let net = net_of(30);
    let mut g = c.benchmark_group("cbs_by_eps");
    for eps in [0.05f64, 0.2, 0.5, 2.0] {
        let cfg = CbsConfig {
            eps,
            ..CbsConfig::default()
        };
        g.bench_with_input(BenchmarkId::from_parameter(eps), &cfg, |b, cfg| {
            b.iter(|| cbs(std::hint::black_box(&net), cfg))
        });
    }
    g.finish();
}

/// The flow's level-0 routing: one CBS call per cluster of a 40 000-sink
/// square grid at 15 µm pitch, clustered by the sharded balanced K-means
/// into ~22-sink cells, with the route stage's per-cluster configuration
/// (`sllt_cts::cluster_cbs_config`). Each iteration routes the next
/// cluster, so the figure is the mean time per cluster.
fn bench_level0_cluster(c: &mut Criterion) {
    let design = GridSpec::square(40_000).instantiate();
    let flow = HierarchicalCts::default();
    let points: Vec<Point> = design.sinks.iter().map(|s| s.pos).collect();
    let k = points.len() / 22;
    let part = sllt_partition::balanced_kmeans_grid_sharded(&points, k, 32, 300, 7, 1, &|| false)
        .expect("never stopped");
    let sllt_cts::TopologyKind::Cbs { scheme } = flow.topology else {
        unreachable!("the default flow routes with CBS")
    };
    let nets: Vec<(ClockNet, CbsConfig)> = part
        .members_all()
        .into_iter()
        .map(|members| {
            let sinks: Vec<Sink> = members.into_iter().map(|i| design.sinks[i]).collect();
            let tap = sllt_geom::centroid(&sinks.iter().map(|s| s.pos).collect::<Vec<_>>())
                .expect("clusters are nonempty");
            let net = ClockNet::new(tap, sinks);
            let cfg = sllt_cts::cluster_cbs_config(&flow, scheme, &net);
            (net, cfg)
        })
        .collect();
    let intervals: Vec<Vec<(f64, f64)>> = nets
        .iter()
        .map(|(n, _)| vec![(0.0, 0.0); n.len()])
        .collect();
    let mut g = c.benchmark_group("cbs_level0_cluster");
    g.bench_function(format!("grid40k_{}_clusters", nets.len()).as_str(), |b| {
        let mut next = 0;
        b.iter(|| {
            let i = next % nets.len();
            next += 1;
            let (net, cfg) = &nets[i];
            try_cbs_intervals(std::hint::black_box(net), cfg, &intervals[i])
        })
    });
    g.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().measurement_time(Duration::from_secs(3)).warm_up_time(Duration::from_secs(1));
    targets = bench_cbs_size, bench_cbs_bound, bench_cbs_eps, bench_level0_cluster
}
criterion_main!(benches);
