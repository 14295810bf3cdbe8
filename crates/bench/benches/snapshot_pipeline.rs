//! Criterion benchmark of one full Compute call: the entire per-Look
//! analysis pipeline of the paper's algorithm (analysis + dispatch).
//!
//! One `FormPattern` serves every iteration, so its pattern memo is filled
//! by the first call and the benchmark measures a warm Compute: the
//! per-Look work, without the once-per-pattern analysis a robot's first
//! Look pays. The algorithm keeps no decision between calls (it is the
//! world that reuses a robot's decision while nothing has moved), so every
//! iteration is timed whole.

use apf_core::FormPattern;
use apf_geometry::{Point, Tol};
use apf_sim::{NullBits, RobotAlgorithm, Snapshot};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

/// Robot `me`'s snapshot of `pts`, translated to put it at the origin.
fn snapshot_for(pts: &[Point], me: usize, pattern: &[Point]) -> Snapshot {
    let off = pts[me];
    let local: Vec<Point> = pts.iter().map(|&p| (p - off).to_point()).collect();
    Snapshot::new(local, pattern.to_vec(), false, Tol::default())
}

fn bench_compute(c: &mut Criterion) {
    let alg = FormPattern::new();
    let mut group = c.benchmark_group("compute");
    for &n in &[8usize, 16, 32, 64] {
        // Asymmetric configuration: exercises the ψ_RSB|Qc branch.
        let pts = apf_patterns::asymmetric_configuration(n, 77 + n as u64);
        let pat = apf_patterns::random_pattern(n, 99 + n as u64);
        let snap = snapshot_for(&pts, 0, &pat);
        group.bench_with_input(BenchmarkId::new("qc_branch", n), &snap, |b, snap| {
            b.iter(|| alg.compute(std::hint::black_box(snap), &mut NullBits).unwrap())
        });

        // Symmetric configuration: exercises the election branch.
        let rho = if n % 4 == 0 { 4 } else { 2 };
        let sym = apf_patterns::symmetric_configuration(n, rho, 55 + n as u64);
        let snap_sym = snapshot_for(&sym, 0, &pat);
        group.bench_with_input(BenchmarkId::new("election_branch", n), &snap_sym, |b, snap| {
            b.iter(|| alg.compute(std::hint::black_box(snap), &mut NullBits).unwrap())
        });
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench_compute
}
criterion_main!(benches);
