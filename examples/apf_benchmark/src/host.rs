//! Host speed, and the window's segments.
//!
//! The reference box is shared, and its cores change speed for many minutes
//! at a time: a fixed arithmetic loop took 0.21 s in one hour and 0.30 s in
//! the next, and every wall-clock metric moved with it (throughputs by
//! 1.45–1.6×). So an untraced run cuts its window into segments and, before
//! the first and after each one, times a fixed computation of the
//! benchmark's own on the engine's two threads (a probe). Each segment's
//! timings are scaled by the mean of its two probes over [`REFERENCE_S`].
//! The computation is never the program's: a speed-up of the program would
//! then cancel itself out.

use crate::stats::median;
use crate::workload::ENGINE_WORKERS;
use std::hint::black_box;
use std::time::Instant;

/// Seconds one probe round takes on the reference box at its usual
/// (faster) speed. It only fixes the units of the scaled metrics.
pub const REFERENCE_S: f64 = 0.08;

/// Rounds per probe; a probe reports their median.
const ROUNDS: u64 = 3;

/// Point sets each thread sorts in one round.
const SETS: u64 = 80_000;

/// One thread's round: small point sets sorted by angle and radius around
/// their centroid — float math, small allocations and sorts, the kind of
/// work the geometry kernels do, all inside the cache.
fn round(seed: u64) -> f64 {
    let mut x = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
    let mut next = || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        (x >> 11) as f64 / (1u64 << 53) as f64
    };
    let mut sum = 0.0;
    for _ in 0..SETS {
        let points: Vec<(f64, f64)> = (0..16).map(|_| (next(), next())).collect();
        let (cx, cy) = points.iter().fold((0.0, 0.0), |(a, b), p| (a + p.0 / 16.0, b + p.1 / 16.0));
        let mut polar: Vec<(f64, f64)> = points
            .iter()
            .map(|&(px, py)| ((py - cy).atan2(px - cx), (px - cx).hypot(py - cy)))
            .collect();
        polar.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.total_cmp(&b.1)));
        sum += polar[0].1;
    }
    sum
}

/// Median wall time of [`ROUNDS`] rounds, each run on one thread per
/// engine worker at once (the load the workers put on the cores).
fn probe() -> f64 {
    let times: Vec<f64> = (0..ROUNDS)
        .map(|r| {
            let t = Instant::now();
            std::thread::scope(|s| {
                for i in 0..ENGINE_WORKERS as u64 {
                    s.spawn(move || black_box(round(black_box(r * 64 + i))));
                }
            });
            t.elapsed().as_secs_f64()
        })
        .collect();
    median(&times)
}

/// The segments of one window: their wall times and the probes around
/// them. Without probing (traced runs, whose timings are not scaled) every
/// probe reads [`REFERENCE_S`].
#[derive(Debug, Default)]
pub struct Timeline {
    probing: bool,
    probes: Vec<f64>,
    walls: Vec<f64>,
}

impl Timeline {
    /// Takes the probe before the first segment when `probing`.
    pub fn start(probing: bool) -> Timeline {
        let mut t = Timeline { probing, ..Timeline::default() };
        t.probe();
        t
    }

    fn probe(&mut self) {
        self.probes.push(if self.probing { probe() } else { REFERENCE_S });
    }

    /// Ends a segment that took `wall` seconds, and probes again.
    pub fn close(&mut self, wall: f64) {
        self.walls.push(wall);
        self.probe();
    }

    fn probe_at(&self, i: usize) -> f64 {
        self.probes.get(i).copied().unwrap_or(REFERENCE_S)
    }

    /// How much slower than nominal the host ran during `segment`: the
    /// mean of its two probes over [`REFERENCE_S`].
    pub fn slow(&self, segment: usize) -> f64 {
        (self.probe_at(segment) + self.probe_at(segment + 1)) / 2.0 / REFERENCE_S
    }

    /// The same for the set-up, from the probe right after it.
    pub fn setup_slow(&self) -> f64 {
        self.probe_at(0) / REFERENCE_S
    }

    /// The window's wall seconds.
    pub fn wall_s(&self) -> f64 {
        self.walls.iter().sum()
    }

    /// The window's seconds at nominal host speed.
    pub fn nominal_s(&self) -> f64 {
        self.walls.iter().enumerate().map(|(s, w)| w / self.slow(s)).sum()
    }

    /// One line for the run's log: every probe and segment.
    pub fn describe(&self) -> String {
        let list = |v: &[f64]| v.iter().map(|x| format!("{x:.4}")).collect::<Vec<_>>().join(" ");
        format!(
            "host probes {} s (nominal {REFERENCE_S} s); segments {} s",
            list(&self.probes),
            list(&self.walls)
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn segments_scale_by_the_mean_of_their_probes() {
        let r = REFERENCE_S;
        let t =
            Timeline { probing: false, probes: vec![r, 2.0 * r, 3.0 * r], walls: vec![3.0, 5.0] };
        assert_eq!(t.slow(0), 1.5);
        assert_eq!(t.slow(1), 2.5);
        assert_eq!(t.setup_slow(), 1.0);
        assert_eq!(t.wall_s(), 8.0);
        assert_eq!(t.nominal_s(), 3.0 / 1.5 + 5.0 / 2.5);
        // Without probing every segment runs at nominal speed.
        let mut plain = Timeline::start(false);
        plain.close(4.0);
        assert_eq!((plain.slow(0), plain.nominal_s()), (1.0, 4.0));
    }
}
