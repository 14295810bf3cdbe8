//! Criterion micro-benchmarks of the geometry cases that
//! `apf_bench::experiments::time_kernels` does not time: shifted-set
//! detection on a shifted ring (`time_kernels` runs it on E9's asymmetric
//! input only) and similarity testing. SEC, symmetricity, views and
//! regular-set detection are timed by `time_kernels`, which E9,
//! `apf-cli perf-snapshot` and `apf-cli profile --kernels` share.

use apf_geometry::symmetry::find_shifted_regular;
use apf_geometry::{are_similar, Configuration, Point, Tol};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::f64::consts::TAU;

fn shifted_ring(n: usize) -> Vec<Point> {
    let alpha = TAU / n as f64;
    (0..n)
        .map(|i| {
            let mut a = alpha * i as f64 + 0.3;
            if i == 1 {
                a += alpha / 8.0;
            }
            Point::new(a.cos(), a.sin())
        })
        .collect()
}

fn bench_kernels(c: &mut Criterion) {
    let tol = Tol::default();
    let mut group = c.benchmark_group("geometry");
    for &n in &[8usize, 32, 128] {
        let shifted = Configuration::new(shifted_ring(n));
        group.bench_with_input(BenchmarkId::new("shifted_detect", n), &shifted, |b, cfg| {
            b.iter(|| find_shifted_regular(std::hint::black_box(cfg), &tol))
        });

        let pts = apf_patterns::asymmetric_configuration(n, n as u64);
        let pat = apf_patterns::random_pattern(n, 2 * n as u64);
        group.bench_with_input(BenchmarkId::new("similarity", n), &(pts, pat), |b, (p, f)| {
            b.iter(|| are_similar(std::hint::black_box(p), std::hint::black_box(f), &tol))
        });
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench_kernels
}
criterion_main!(benches);
