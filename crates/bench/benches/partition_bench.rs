//! Criterion: the partition fast path — grid-pruned vs full-scan
//! nearest centre, balanced K-means with its warm (overflow-repair)
//! capacity assignment, and scored restarts.
//!
//! Companions to the substrate benches in `partition.rs`: these measure
//! the specific optimizations behind the partition_ms drop recorded in
//! EXPERIMENTS.md.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use sllt_geom::Point;
use sllt_partition::{
    balanced_kmeans_cfg, balanced_kmeans_restarts_scored, nearest_scan_l1, CenterGrid, KmeansConfig,
};
use sllt_rng::prelude::*;
use std::time::Duration;

fn points(n: usize, seed: u64) -> Vec<Point> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|_| Point::new(rng.random_range(0.0..400.0), rng.random_range(0.0..400.0)))
        .collect()
}

/// Pruned vs scan: one nearest-centre query per point over k centres —
/// the Lloyd inner loop's shape. The two must return identical indices
/// (asserted in the library's proptests); here we time them.
fn bench_nearest(c: &mut Criterion) {
    let mut g = c.benchmark_group("nearest_center");
    for k in [32usize, 128, 512] {
        let centers = points(k, 5);
        let cx: Vec<f64> = centers.iter().map(|p| p.x).collect();
        let cy: Vec<f64> = centers.iter().map(|p| p.y).collect();
        let queries = points(2000, 6);
        g.bench_with_input(BenchmarkId::new("scan", k), &queries, |b, qs| {
            b.iter(|| {
                let mut acc = 0usize;
                for q in qs {
                    acc ^= nearest_scan_l1(&cx, &cy, q.x, q.y);
                }
                acc
            })
        });
        g.bench_with_input(BenchmarkId::new("grid", k), &queries, |b, qs| {
            let grid = CenterGrid::build(&cx, &cy);
            b.iter(|| {
                let mut acc = 0usize;
                for q in qs {
                    acc ^= grid.nearest_l1(q.x, q.y);
                }
                acc
            })
        });
    }
    g.finish();
}

/// Balanced K-means whose capacity assignment repairs overflow from
/// the nearest-centre seed every balance round.
fn bench_warm_assign(c: &mut Criterion) {
    let mut g = c.benchmark_group("balanced_kmeans_assign");
    g.sample_size(15);
    let cfg = KmeansConfig::default();
    for n in [300usize, 900] {
        let pts = points(n, 11);
        let k = n.div_ceil(32);
        g.bench_with_input(BenchmarkId::new("warm", n), &pts, |b, pts| {
            b.iter(|| balanced_kmeans_cfg(std::hint::black_box(pts), k, 32, 1, &cfg))
        });
    }
    g.finish();
}

/// Scored restarts at one worker: the serial baseline the parallel
/// fan-out is measured against (the pool is bit-identical, so worker
/// scaling is pure wall-clock).
fn bench_restarts(c: &mut Criterion) {
    let pts = points(400, 17);
    let k = 400usize.div_ceil(32);
    let cfg = KmeansConfig::default();
    let score =
        |p: &sllt_partition::Partition| -> f64 { p.centers.iter().map(|c| c.x + c.y).sum::<f64>() };
    c.bench_function("restarts_scored_400x4", |b| {
        b.iter(|| {
            balanced_kmeans_restarts_scored(
                std::hint::black_box(&pts),
                k,
                32,
                1,
                4,
                1,
                &cfg,
                &score,
                &|| false,
            )
        })
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().measurement_time(Duration::from_secs(3)).warm_up_time(Duration::from_secs(1));
    targets = bench_nearest, bench_warm_assign, bench_restarts
}
criterion_main!(benches);
