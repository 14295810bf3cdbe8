//! Decisions kept across Computes, keyed by the exact bits of the snapshot.
//!
//! A robot often Looks again before any robot has moved — under a
//! round-robin schedule, every robot that decided to stay does — and then
//! sees the same snapshot, bit for bit. Without a random bit, `formPattern`
//! is a pure function of the snapshot, so [`DecisionMemo`] answers such a
//! repeat with the decision and phase tag the earlier Compute returned,
//! without rebuilding its analysis. A Compute that drew a bit is never
//! stored: its decision depends on the coin, and a repeat must flip a coin
//! of its own. The draw is seen through [`WatchedBits`], by the call, so a
//! probe's stubbed coin ([`apf_sim::NullBits`]) counts too. Errors are
//! never stored either. A hit therefore returns exactly what recomputation
//! would, and every decision is still a function of the current snapshot
//! alone.

use crate::memo_key::BitsKey;
use apf_sim::{BitSource, ComputeError, Decision, PhaseKind, Snapshot, WatchedBits};
use std::cell::RefCell;
use std::collections::VecDeque;

/// A bounded FIFO of `(Decision, PhaseKind)` results of recent bit-free
/// Computes, keyed by the exact bits of their snapshots.
///
/// Keys hold the bits of every coordinate, of the tolerance and of the
/// multiplicity flag — not values compared with `==`, which equates `-0.0`
/// with `0.0` although the two normalize to different angles. A lookup
/// compares them in place, behind their fingerprints. While the memo holds
/// `2·n` entries for an `n`-point snapshot, storing a result first evicts
/// the oldest.
#[derive(Debug, Default)]
pub(crate) struct DecisionMemo {
    entries: RefCell<VecDeque<(BitsKey, Decision, PhaseKind)>>,
}

impl DecisionMemo {
    /// The result of `compute` on `snapshot`: an earlier bit-free result
    /// for the same bits, or `compute`'s own, which is stored when it is
    /// `Ok` and `compute` drew nothing from `bits`.
    ///
    /// # Errors
    ///
    /// Those of `compute`.
    pub(crate) fn get_or_compute(
        &self,
        snapshot: &Snapshot,
        bits: &mut dyn BitSource,
        compute: impl FnOnce(&mut dyn BitSource) -> Result<(Decision, PhaseKind), ComputeError>,
    ) -> Result<(Decision, PhaseKind), ComputeError> {
        let fingerprint = BitsKey::fingerprint(snapshot_key(snapshot));
        if let Some((_, decision, phase)) = self
            .entries
            .borrow()
            .iter()
            .find(|(k, ..)| k.matches(fingerprint, snapshot_key(snapshot)))
        {
            return Ok((decision.clone(), *phase));
        }
        let mut watched = WatchedBits::new(bits);
        let (decision, phase) = compute(&mut watched)?;
        if !watched.drew() {
            let mut entries = self.entries.borrow_mut();
            while entries.len() >= 2 * snapshot.len() {
                entries.pop_front();
            }
            let key = BitsKey::new(fingerprint, snapshot_key(snapshot));
            entries.push_back((key, decision.clone(), phase));
        }
        Ok((decision, phase))
    }
}

/// The exact bits of everything a Compute reads from `snapshot`: the
/// tolerance, the multiplicity flag, the robot count, then every robot
/// coordinate and every pattern coordinate.
fn snapshot_key(snapshot: &Snapshot) -> impl Iterator<Item = u64> + '_ {
    let tol = snapshot.tol();
    let (robots, pattern) = (snapshot.robots(), snapshot.pattern());
    [
        tol.eps.to_bits(),
        tol.angle_eps.to_bits(),
        u64::from(snapshot.multiplicity_detection()),
        robots.len() as u64,
    ]
    .into_iter()
    .chain(robots.iter().chain(pattern).flat_map(|p| [p.x.to_bits(), p.y.to_bits()]))
}

#[cfg(test)]
mod tests {
    use super::*;
    use apf_geometry::{Point, Tol};
    use apf_sim::{CountingBits, NullBits};
    use std::cell::Cell;

    fn snapshot(robots: &[Point], tol: Tol) -> Snapshot {
        let pattern = vec![Point::new(1.0, 0.0), Point::new(0.0, 1.0), Point::new(-1.0, 0.0)];
        Snapshot::new(robots.to_vec(), pattern, false, tol)
    }

    fn base() -> Vec<Point> {
        vec![Point::ORIGIN, Point::new(0.5, 0.25), Point::new(-0.75, 1.0)]
    }

    /// Asks `memo` for `snap` with a compute that counts its calls in
    /// `calls` and draws `draws` bits.
    fn run(memo: &DecisionMemo, snap: &Snapshot, calls: &Cell<usize>, draws: usize) {
        let mut bits = CountingBits::new(1);
        memo.get_or_compute(snap, &mut bits, |bits| {
            calls.set(calls.get() + 1);
            for _ in 0..draws {
                bits.bit();
            }
            Ok((Decision::Stay, PhaseKind::Terminal))
        })
        .unwrap();
    }

    #[test]
    fn hits_only_on_identical_bits() {
        let (memo, calls) = (DecisionMemo::default(), Cell::new(0));
        let tol = Tol::default();
        run(&memo, &snapshot(&base(), tol), &calls, 0);
        run(&memo, &snapshot(&base(), tol), &calls, 0);
        assert_eq!(calls.get(), 1, "a repeated snapshot is answered from the memo");

        // `-0.0 == 0.0`, so a key compared with `==` would hit here.
        let mut signed = base();
        signed[1].y = -0.0;
        let mut zero = base();
        zero[1].y = 0.0;
        run(&memo, &snapshot(&zero, tol), &calls, 0);
        run(&memo, &snapshot(&signed, tol), &calls, 0);
        // One ulp apart.
        let mut ulp = base();
        ulp[2].x = f64::from_bits(ulp[2].x.to_bits() + 1);
        run(&memo, &snapshot(&ulp, tol), &calls, 0);
        // The tolerance and the multiplicity flag are part of the key.
        run(&memo, &snapshot(&base(), Tol::new(1e-6)), &calls, 0);
        let flagged = Snapshot::new(base(), snapshot(&base(), tol).pattern().to_vec(), true, tol);
        run(&memo, &flagged, &calls, 0);
        assert_eq!(calls.get(), 6);
    }

    #[test]
    fn results_that_drew_a_bit_are_not_stored() {
        let (memo, calls) = (DecisionMemo::default(), Cell::new(0));
        let snap = snapshot(&base(), Tol::default());
        run(&memo, &snap, &calls, 1);
        run(&memo, &snap, &calls, 1);
        assert_eq!(calls.get(), 2);
        assert!(memo.entries.borrow().is_empty());
    }

    #[test]
    fn errors_are_not_stored() {
        let memo = DecisionMemo::default();
        let snap = snapshot(&base(), Tol::default());
        let fail = |_: &mut dyn BitSource| Err(ComputeError::new("rejected"));
        assert!(memo.get_or_compute(&snap, &mut NullBits, fail).is_err());
        assert!(memo.get_or_compute(&snap, &mut NullBits, fail).is_err());
        assert!(memo.entries.borrow().is_empty());
    }

    #[test]
    fn evicts_the_oldest_entry_at_twice_the_robot_count() {
        let (memo, calls) = (DecisionMemo::default(), Cell::new(0));
        let tol = Tol::default();
        let shifted = |k: usize| {
            let mut robots = base();
            robots[1].x += k as f64;
            snapshot(&robots, tol)
        };
        // Three robots: the memo keeps six entries.
        for k in 0..7 {
            run(&memo, &shifted(k), &calls, 0);
        }
        assert_eq!(memo.entries.borrow().len(), 6);
        run(&memo, &shifted(6), &calls, 0);
        run(&memo, &shifted(1), &calls, 0);
        assert_eq!(calls.get(), 7, "the six newest entries still hit");
        run(&memo, &shifted(0), &calls, 0);
        assert_eq!(calls.get(), 8, "the oldest entry was evicted");
    }
}
