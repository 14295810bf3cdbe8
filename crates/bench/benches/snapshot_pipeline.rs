//! Criterion benchmark of one full Compute call: the entire per-Look
//! analysis pipeline of the paper's algorithm (analysis + dispatch).
//!
//! One `FormPattern` serves every iteration, so its pattern memo is filled
//! by the first call and the benchmark measures a warm Compute: the
//! per-Look work, without the once-per-pattern analysis a robot's first
//! Look pays. Its decision memo would answer a snapshot it saw among its
//! last `2n` bit-free Computes without any analysis, so the iterations
//! cycle through `3n` rotations of the robots' local frame (the pattern's
//! copy stays fixed): every Compute misses that memo and is timed whole.

use apf_core::FormPattern;
use apf_geometry::{Point, Tol};
use apf_sim::{NullBits, RobotAlgorithm, Snapshot};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::f64::consts::TAU;

/// Robot `me`'s snapshots of `pts` in `3 · pts.len()` local frames, rotated
/// by equal steps about the robot.
fn snapshots_for(pts: &[Point], me: usize, pattern: &[Point]) -> Vec<Snapshot> {
    let off = pts[me];
    let frames = 3 * pts.len();
    (0..frames)
        .map(|k| {
            let angle = TAU * k as f64 / frames as f64;
            let local: Vec<Point> = pts
                .iter()
                .map(|&p| (p - off).to_point().rotate_around(Point::ORIGIN, angle))
                .collect();
            Snapshot::new(local, pattern.to_vec(), false, Tol::default())
        })
        .collect()
}

fn bench_compute(c: &mut Criterion) {
    let alg = FormPattern::new();
    let mut group = c.benchmark_group("compute");
    for &n in &[8usize, 16, 32, 64] {
        // Asymmetric configuration: exercises the ψ_RSB|Qc branch.
        let pts = apf_patterns::asymmetric_configuration(n, 77 + n as u64);
        let pat = apf_patterns::random_pattern(n, 99 + n as u64);
        let snaps = snapshots_for(&pts, 0, &pat);
        group.bench_with_input(BenchmarkId::new("qc_branch", n), &snaps, |b, snaps| {
            let mut next = snaps.iter().cycle();
            b.iter(|| {
                let snap = next.next().expect("a cycle never ends");
                alg.compute(std::hint::black_box(snap), &mut NullBits).unwrap()
            })
        });

        // Symmetric configuration: exercises the election branch.
        let rho = if n % 4 == 0 { 4 } else { 2 };
        let sym = apf_patterns::symmetric_configuration(n, rho, 55 + n as u64);
        let snaps_sym = snapshots_for(&sym, 0, &pat);
        group.bench_with_input(BenchmarkId::new("election_branch", n), &snaps_sym, |b, snaps| {
            let mut next = snaps.iter().cycle();
            b.iter(|| {
                let snap = next.next().expect("a cycle never ends");
                alg.compute(std::hint::black_box(snap), &mut NullBits).unwrap()
            })
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
