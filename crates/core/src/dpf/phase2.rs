//! Phase 2: populate every target circle with exactly the right number of
//! robots, outside-in, preserving `C(P)`, the `Z`-order, and the frame.
//!
//! Procedures (evaluated as "first failing condition acts"):
//!
//! * `clear_zero_ray` — pre-phase: no robot other than `r_max` may sit on
//!   the `Z` zero ray;
//! * `fix_enclosing_circle` — special pre-phase when exactly two pattern
//!   points lie on `C(F)`: those two positions must be taken (by the two
//!   extremal robots of `C(P)`) before anyone else may leave `C(P)`,
//!   because two robots cannot hold the enclosing circle by committee;
//! * `populate_circles` — for each circle `C_i` (outermost first):
//!   `cleanExterior(i)` drops strays between `C_{i−1}` and `C_i` onto
//!   `C_i`, `locateEnoughRobots(i)` raises interior robots onto `C_i`
//!   until `m_i` sit there, and `removeRobotsInExcess(i)` drops the excess
//!   below (on `C_1` only after the `m_1` greatest robots form a regular
//!   `m_1`-gon that holds `C(P)` by itself).
//!
//! `r_max` is special: it anchors the frame, so it only ever moves
//! *radially* (its `Z`-angle 0 is preserved), and it is reserved for
//! `f_max`'s circle.

use crate::analysis::Analysis;
use crate::dpf::index::Index;
use crate::dpf::phase1::ZFrame;
use crate::dpf::TargetPlan;
use apf_geometry::{path, Point};
use apf_sim::{ComputeError, Decision};
use std::f64::consts::{PI, TAU};

/// Pre-phase: robots (other than `r_max`) sitting on the zero ray rotate off
/// it. Robots standing exactly at a *zero-ray target position* (a pattern
/// point collinear with `f_max` — typically a multiplicity duplicate of
/// `f_max`) are exempt: evicting them would undo legitimate placements and
/// livelock the formation. Returns `Some` while any offender exists.
pub fn clear_zero_ray(
    a: &Analysis,
    ix: &Index,
    rs: usize,
    zf: &ZFrame,
    plan: &TargetPlan,
) -> Option<Decision> {
    let tol = &a.tol;
    let at_zero_ray_target = |i: usize| {
        let r = a.radius(i);
        plan.targets.iter().any(|t| {
            (t.angle <= tol.angle_eps || TAU - t.angle <= tol.angle_eps) && tol.eq(t.radius, r)
        })
    };
    let offends = |i: usize| {
        let z = ix.z(i);
        i != rs
            && i != zf.rmax
            && (z <= tol.angle_eps || TAU - z <= tol.angle_eps)
            && !at_zero_ray_target(i)
    };
    if !(0..a.n()).any(offends) {
        return None;
    }
    if !offends(a.me) {
        return Some(Decision::Stay);
    }
    // Rotate off the ray by half the gap to the next robot on my circle (or
    // a small default), in the direct orientation.
    let my_r = a.radius(a.me);
    let mut dz = PI / 16.0;
    for i in 0..a.n() {
        if i == a.me || i == rs {
            continue;
        }
        if tol.eq(a.radius(i), my_r) {
            let z = ix.z(i);
            if z > tol.angle_eps && z / 2.0 < dz {
                dz = z / 2.0;
            }
        }
    }
    let p = zf.rotate(a.my_pos(), dz);
    Some(Decision::Move(a.denormalize_path(&p)))
}

/// Special pre-phase for `|C(F) ∩ F'| = 2`. Returns `Ok(Some)` while the
/// two `C(P)` positions are not finalized, `Ok(None)` when not applicable or
/// complete.
pub fn fix_enclosing_circle(
    a: &Analysis,
    ix: &Index,
    rs: usize,
    zf: &ZFrame,
    plan: &TargetPlan,
) -> Result<Option<Decision>, ComputeError> {
    let Some(&[t_lo, t_hi]) = plan.circle_targets.first().map(Vec::as_slice) else {
        return Ok(None);
    };
    let tol = &a.tol;
    let on_c1 = ix.on_z(0);

    // Satisfied: exactly two robots, at the two target angles.
    if on_c1.len() == 2 {
        let a_lo = ix.z(on_c1[0]);
        let a_hi = ix.z(on_c1[1]);
        if ang_close(a_lo, t_lo, tol) && ang_close(a_hi, t_hi, tol) {
            return Ok(None);
        }
        // Exactly two robots hold C(P): neither may move yet. Raise the
        // greatest interior robot to C(P) first.
        return Ok(Some(raise_to_circle(a, ix, rs, zf, plan, 0, usize::MAX)));
    }
    if on_c1.len() < 2 {
        return Err(ComputeError::new("C(P) lost its supporting robots"));
    }

    // Three or more robots on C(P): the extremal two head for the targets,
    // the middle ones spread out between them.
    let r_lo = on_c1[0];
    // apf-lint: allow(panic-policy) — this branch is only reached with ≥ 3 robots on C(P)
    let r_hi = *on_c1.last().expect("non-empty");
    let a_lo = ix.z(r_lo);
    let a_hi = ix.z(r_hi);
    if ang_close(a_lo, t_lo, tol) && ang_close(a_hi, t_hi, tol) {
        // The two anchors are in place: the second smallest robot steps
        // inward (the anchors are diametral, so C(P) survives).
        let mover = on_c1[1];
        if a.me != mover {
            return Ok(Some(Decision::Stay));
        }
        return Ok(Some(nudge_inward(a, rs, mover, plan, None)));
    }
    // Assign destinations: extremes to the targets; middles map their
    // *current* angle proportionally into the target span. Proportional
    // mapping is injective in the robot's own position, so no two robots —
    // across any pair of (possibly stale) assignment epochs — ever share a
    // destination, which count-dependent "even spacing" cannot guarantee.
    let k = on_c1.len();
    let span = (a_hi - a_lo).max(1e-9);
    let dest: Vec<f64> = (0..k)
        .map(|idx| {
            if idx == 0 {
                t_lo
            } else if idx == k - 1 {
                t_hi
            } else {
                let ang = ix.z(on_c1[idx]);
                t_lo + (t_hi - t_lo) * ((ang - a_lo) / span).clamp(0.01, 0.99)
            }
        })
        .collect();
    let Some(my_idx) = on_c1.iter().position(|&i| i == a.me) else {
        return Ok(Some(Decision::Stay));
    };
    Ok(Some(move_on_circle(a, ix, zf, rs, dest[my_idx], on_c1, true, false)))
}

/// The main outside-in circle population loop. Returns `Ok(Some)` while any
/// circle is incomplete, `Ok(None)` when every circle holds exactly its
/// target count.
pub fn populate_circles(
    a: &Analysis,
    ix: &Index,
    rs: usize,
    zf: &ZFrame,
    plan: &TargetPlan,
) -> Result<Option<Decision>, ComputeError> {
    for (i, targets) in plan.circle_targets.iter().enumerate() {
        // --- cleanExterior(i): strays between C_{i-1} and C_i ---
        let stray = ix
            .band(i)
            .iter()
            .copied()
            .filter(|&r| r != zf.rmax)
            .min_by(|&x, &y| cmp_z(a, ix, x, y));
        if let Some(r) = stray {
            if a.me != r {
                return Ok(Some(Decision::Stay));
            }
            return Ok(Some(drop_to_circle(a, ix, rs, zf, plan, r, i)));
        }

        let on_ci = ix.on(i);

        // --- locateEnoughRobots(i) ---
        if on_ci.len() < targets.len() {
            // r_max is reserved for f_max's circle and climbs radially.
            if i == plan.fmax_circle && !on_ci.contains(&zf.rmax) {
                if a.me != zf.rmax {
                    return Ok(Some(Decision::Stay));
                }
                let p = path::radial_to(Point::ORIGIN, a.my_pos(), plan.circles[i]);
                return Ok(Some(Decision::Move(a.denormalize_path(&p))));
            }
            return Ok(Some(raise_to_circle(a, ix, rs, zf, plan, i, zf.rmax)));
        }

        // --- removeRobotsInExcess(i) ---
        if on_ci.len() > targets.len() {
            if i == 0 {
                return Ok(Some(excess_on_c1(a, ix, rs, zf, plan)));
            }
            let mover = on_ci
                .iter()
                .copied()
                .filter(|&r| r != zf.rmax)
                .min_by(|&x, &y| cmp_z(a, ix, x, y))
                .ok_or_else(|| ComputeError::new("excess circle contains only r_max"))?;
            if a.me != mover {
                return Ok(Some(Decision::Stay));
            }
            return Ok(Some(nudge_inward(a, rs, mover, plan, Some(i))));
        }
    }
    Ok(None)
}

/// Tolerant `Z`-order comparison of two robots: radius first (radii within
/// tolerance count as equal — symmetric workloads place robots at *exactly*
/// equal radii, and raw `f64` ordering would let per-frame normalization
/// noise make robots disagree on who acts), then `Z`-angle.
fn cmp_z(a: &Analysis, ix: &Index, x: usize, y: usize) -> std::cmp::Ordering {
    a.tol.cmp(a.radius(x), a.radius(y)).then_with(|| ix.z(x).total_cmp(&ix.z(y)))
}

fn ang_close(x: f64, y: f64, tol: &apf_geometry::Tol) -> bool {
    apf_geometry::angle::angle_dist(x, y) <= tol.angle_eps.max(1e-6)
}

/// `cleanExterior`'s action for the chosen stray robot `r` above circle
/// `k`: isolate on its own circle, swing past the occupied arc, then drop
/// radially onto circle `k` (one leg per activation).
fn drop_to_circle(
    a: &Analysis,
    ix: &Index,
    rs: usize,
    zf: &ZFrame,
    plan: &TargetPlan,
    r: usize,
    k: usize,
) -> Decision {
    debug_assert_eq!(a.me, r);
    let tol = &a.tol;
    let ci = plan.circles[k];
    let my_pos = a.my_pos();
    let my_r = a.radius(r);
    // Shared circle? Step down between my circle and the next thing below.
    let shared = (0..a.n()).any(|i| i != r && i != rs && tol.eq(a.radius(i), my_r));
    if shared {
        let floor = (0..a.n())
            .filter(|&i| i != r && i != rs)
            .map(|i| a.radius(i))
            .filter(|&x| tol.lt(x, my_r) && tol.le(ci, x))
            .fold(ci, f64::max);
        let target = (my_r + floor) / 2.0;
        let p = path::radial_to(Point::ORIGIN, my_pos, target);
        return Decision::Move(a.denormalize_path(&p));
    }
    let a_max = ix.on(k).iter().map(|&i| ix.z(i)).fold(0.0_f64, f64::max);
    let upper = zf.upper_bound();
    let my_z = ix.z(r);
    if my_z > a_max + tol.angle_eps && my_z < upper {
        let p = path::radial_to(Point::ORIGIN, my_pos, ci);
        return Decision::Move(a.denormalize_path(&p));
    }
    // Swing to the parking angle past everyone on the target circle.
    let target_angle = (a_max + upper) / 2.0;
    rotate_toward(a, ix, zf, target_angle)
}

/// `locateEnoughRobots`'s action: the greatest interior robot (excluding
/// `skip`, normally `r_max`) rises onto circle `k` below everyone already
/// there.
fn raise_to_circle(
    a: &Analysis,
    ix: &Index,
    rs: usize,
    zf: &ZFrame,
    plan: &TargetPlan,
    k: usize,
    skip: usize,
) -> Decision {
    let tol = &a.tol;
    let ci = plan.circles[k];
    let Some(r) = (0..a.n())
        .filter(|&r| r != rs && r != skip && tol.lt(a.radius(r), ci))
        .max_by(|&x, &y| cmp_z(a, ix, x, y))
    else {
        return Decision::Stay;
    };
    if a.me != r {
        return Decision::Stay;
    }
    let my_pos = a.my_pos();
    let my_r = a.radius(r);
    let shared = (0..a.n()).any(|i| i != r && i != rs && tol.eq(a.radius(i), my_r));
    if shared {
        // Step outward between my circle and the next thing above.
        let ceil = (0..a.n())
            .filter(|&i| i != r && i != rs)
            .map(|i| a.radius(i))
            .filter(|&x| tol.lt(my_r, x) && tol.le(x, ci))
            .fold(ci, f64::min);
        let target = (my_r + ceil) / 2.0;
        let p = path::radial_to(Point::ORIGIN, my_pos, target);
        return Decision::Move(a.denormalize_path(&p));
    }
    let a_min = ix.on(k).iter().map(|&i| ix.z(i)).fold(zf.upper_bound(), f64::min);
    let my_z = ix.z(r);
    if my_z + tol.angle_eps < a_min && my_z > tol.angle_eps {
        let p = path::radial_to(Point::ORIGIN, my_pos, ci);
        return Decision::Move(a.denormalize_path(&p));
    }
    // Swing to half the smallest occupied angle (staying off the zero ray).
    let target_angle = (a_min / 2.0).max(tol.angle_eps * 32.0);
    rotate_toward(a, ix, zf, target_angle)
}

/// `removeRobotsInExcess` off `C_1`: the chosen robot steps a little inward,
/// strictly between its circle and the next constraint below.
fn nudge_inward(
    a: &Analysis,
    rs: usize,
    mover: usize,
    plan: &TargetPlan,
    circle_idx: Option<usize>,
) -> Decision {
    debug_assert_eq!(a.me, mover);
    let tol = &a.tol;
    let my_pos = a.my_pos();
    let my_r = my_pos.dist(Point::ORIGIN);
    let next_circle = circle_idx.and_then(|i| plan.circles.get(i + 1)).copied().unwrap_or(0.0);
    let floor = (0..a.n())
        .filter(|&i| i != mover && i != rs)
        .map(|i| a.radius(i))
        .filter(|&x| tol.lt(x, my_r))
        .fold(next_circle, f64::max);
    let target = (my_r + floor) / 2.0;
    let p = path::radial_to(Point::ORIGIN, my_pos, target);
    Decision::Move(a.denormalize_path(&p))
}

/// Excess robots on `C_1 = C(P)`: first the `m_1` greatest robots form the
/// regular `m_1`-gon mirror-symmetric about the zero ray (so they hold
/// `C(P)` alone) while the others park evenly in the `(0, π/m_1)` arc; then
/// the smallest robot steps inward.
fn excess_on_c1(a: &Analysis, ix: &Index, rs: usize, zf: &ZFrame, plan: &TargetPlan) -> Decision {
    let tol = &a.tol;
    let m1 = plan.circle_targets[0].len();
    let sorted = ix.on_z(0);
    let k = sorted.len();
    let keepers = &sorted[k - m1..];
    let parked = &sorted[..k - m1];

    // Polygon vertices: (2j+1)·π/m1 — symmetric about the zero ray, none on
    // it.
    let mut poly: Vec<f64> = (0..m1).map(|j| (2 * j + 1) as f64 * PI / m1 as f64).collect();
    poly.sort_by(f64::total_cmp);
    let keepers_placed = keepers
        .iter()
        // apf-lint: allow(zip-length-mismatch) — keepers (&sorted[k - m1..]) and poly (0..m1) are both exactly m1 long
        .zip(poly.iter())
        .all(|(&r, &t)| ang_close(ix.z(r), t, tol));
    if keepers_placed {
        // The m1-gon holds C(P): the smallest robot leaves.
        let mover = sorted[0];
        if a.me != mover {
            return Decision::Stay;
        }
        return nudge_inward(a, rs, mover, plan, Some(0));
    }
    // Everyone on C1 heads for its slot (keepers → polygon, parked → arc).
    let arc_slots: Vec<f64> = (1..=parked.len())
        .map(|j| j as f64 * (PI / m1 as f64) / (parked.len() + 1) as f64)
        .collect();
    let my_idx = sorted.iter().position(|&i| i == a.me);
    let Some(my_idx) = my_idx else { return Decision::Stay };
    let dest = if my_idx < parked.len() { arc_slots[my_idx] } else { poly[my_idx - parked.len()] };
    move_on_circle(a, ix, zf, rs, dest, sorted, true, false)
}

/// Rotation helper without same-circle blocking context (recomputes it).
fn rotate_toward(a: &Analysis, ix: &Index, zf: &ZFrame, dest: f64) -> Decision {
    let tol = &a.tol;
    let my_r = a.radius(a.me);
    let same: Vec<usize> = (0..a.n()).filter(|&i| i != a.me && tol.eq(a.radius(i), my_r)).collect();
    move_on_circle(a, ix, zf, usize::MAX, dest, &same, false, false)
}

/// Moves the observer along its circle toward `dest` (a `Z`-angle), never
/// crossing the zero ray, never passing another robot on the same circle,
/// and (when `preserve_sec`) never opening a gap wider than π between
/// consecutive `C(P)` robots.
#[allow(clippy::too_many_arguments)]
pub fn move_on_circle(
    a: &Analysis,
    ix: &Index,
    zf: &ZFrame,
    rs: usize,
    dest: f64,
    same_circle: &[usize],
    preserve_sec: bool,
    allow_stack: bool,
) -> Decision {
    let my_z = ix.z(a.me);
    let tol = &a.tol;
    if (my_z - dest).abs() <= tol.angle_eps {
        return Decision::Stay;
    }
    // Move without wrapping through the zero ray, at most 0.3 rad per
    // cycle: short arcs bound how stale an in-flight path can get, which is
    // what keeps reassignment races (two robots converging on one slot
    // around a phase transition) from colliding — a robot always re-observes
    // the slot's occupancy before its final approach.
    let increasing = dest > my_z;
    let mut target = if increasing { dest.min(my_z + 0.3) } else { dest.max(my_z - 0.3) };

    // Blocking: a robot between me and the target caps my travel at 45% of
    // the gap to it — deliberately *less* than the paper's midpoint rule, so
    // two robots approaching each other simultaneously (each capping
    // against the other's stale position) can never meet at the shared
    // midpoint. When `allow_stack` (the destination is a genuine
    // multiplicity target, Section 5), a robot standing exactly *at* the
    // target is exempt — robots sharing a destination may stack; otherwise a
    // robot at the target blocks like any other.
    // Minimum angular separation maintained from any blocker. This must be
    // *macroscopic* (≫ the ordering tolerance): creeping asymptotically
    // toward an occupied slot would bring two robots within
    // ordering-noise of each other, after which different observers
    // disagree on their ranks and the formation deadlocks.
    const MIN_SEPARATION: f64 = 1e-3;
    for &i in same_circle {
        if i == a.me || i == rs {
            continue;
        }
        let z = ix.z(i);
        let at_target = (z - target).abs() <= tol.angle_eps;
        let between = if increasing {
            z > my_z + tol.angle_eps && (z < target - tol.angle_eps || (at_target && !allow_stack))
        } else {
            z < my_z - tol.angle_eps && (z > target + tol.angle_eps || (at_target && !allow_stack))
        };
        if between {
            let capped = if increasing {
                (my_z + 0.45 * (z - my_z)).min(z - MIN_SEPARATION)
            } else {
                (my_z + 0.45 * (z - my_z)).max(z + MIN_SEPARATION)
            };
            target = if increasing {
                target.min(capped.max(my_z))
            } else {
                target.max(capped.min(my_z))
            };
        }
    }

    if preserve_sec {
        // Keep every angular gap on C(P) at most π: cap the travel so the
        // gap to the neighbor I am moving away from never exceeds π. A gap
        // of exactly π still holds C(P) (two diametral points), and the
        // |C(F) ∩ F'| = 2 case *requires* reaching exactly-diametral
        // positions, so the margin is only numerical.
        let margin = 1e-9;
        let mut neighbors: Vec<f64> =
            same_circle.iter().filter(|&&i| i != a.me && i != rs).map(|&i| ix.z(i)).collect();
        neighbors.sort_by(f64::total_cmp);
        if !neighbors.is_empty() {
            if increasing {
                // Neighbor behind me (largest angle below my_z, cyclically).
                let behind = neighbors
                    .iter()
                    .copied()
                    .filter(|&z| z < my_z)
                    .fold(f64::NEG_INFINITY, f64::max);
                let behind = if behind.is_finite() {
                    behind
                } else {
                    // apf-lint: allow(panic-policy) — guarded by !neighbors.is_empty() above
                    neighbors.last().copied().unwrap() - TAU
                };
                target = target.min(behind + PI - margin);
                if target <= my_z {
                    return Decision::Stay;
                }
            } else {
                let ahead =
                    neighbors.iter().copied().filter(|&z| z > my_z).fold(f64::INFINITY, f64::min);
                let ahead = if ahead.is_finite() {
                    ahead
                } else {
                    // apf-lint: allow(panic-policy) — guarded by !neighbors.is_empty() above
                    neighbors.first().copied().unwrap() + TAU
                };
                target = target.max(ahead - PI + margin);
                if target >= my_z {
                    return Decision::Stay;
                }
            }
        }
    }

    let dz = target - my_z;
    if dz.abs() <= tol.angle_eps {
        return Decision::Stay;
    }
    let p = zf.rotate(a.my_pos(), dz);
    Decision::Move(a.denormalize_path(&p))
}
