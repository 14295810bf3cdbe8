//! Phase 3: rotate the robots on their circles into the exact pattern
//! positions.
//!
//! Every circle now carries exactly the right number of robots. On each
//! circle, robots and targets are matched in `Z`-angle order (so the
//! matching is agreed upon by everyone), and each robot moves along the arc
//! toward its target that does **not** contain the zero ray — no robot ever
//! crosses another (the "waiting" relation has no cycle because the circle
//! minus the zero ray is a line segment). On `C_1 = C(P)` movements are
//! additionally capped so the enclosing circle never changes.

use crate::analysis::Analysis;
use crate::dpf::index::Index;
use crate::dpf::phase1::ZFrame;
use crate::dpf::phase2::move_on_circle;
use crate::dpf::TargetPlan;
use apf_sim::{ComputeError, Decision};

/// Rotates robots to their targets. Returns `Ok(None)` when every robot of
/// `P' = P − {r_s}` stands on its pattern position.
pub fn rotate_to_targets(
    a: &Analysis,
    ix: &Index,
    rs: usize,
    zf: &ZFrame,
    plan: &TargetPlan,
) -> Result<Option<Decision>, ComputeError> {
    let tol = &a.tol;
    let mut all_placed = true;
    let mut my_move: Option<Decision> = None;

    for (ci_idx, targets) in plan.circle_targets.iter().enumerate() {
        // Robots and targets on this circle, both sorted by Z-angle.
        let robots = ix.on_z(ci_idx);
        if robots.len() != targets.len() {
            return Err(ComputeError::new("phase 3 invoked before circles were populated"));
        }

        for (pos, &r) in robots.iter().enumerate() {
            let my_z = ix.z(r);
            let dest = targets[pos];
            if apf_geometry::angle::angle_dist(my_z, dest) <= tol.angle_eps.max(1e-7) {
                continue;
            }
            all_placed = false;
            if r == a.me {
                // Stacking onto the destination is legal only when the
                // pattern genuinely has several targets there.
                let dup = targets.iter().filter(|&&t| (t - dest).abs() <= tol.angle_eps).count();
                my_move = Some(move_on_circle(a, ix, zf, rs, dest, robots, ci_idx == 0, dup >= 2));
            }
        }
    }

    if all_placed {
        return Ok(None);
    }
    Ok(Some(my_move.unwrap_or(Decision::Stay)))
}
