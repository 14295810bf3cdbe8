//! The symmetry classifiers' tolerance constants, in one place.
//!
//! These bands and slack factors used to live as inline literals spread
//! across `rho.rs`, `regular.rs`, and `shifted.rs`; any drift between two
//! copies of the same epsilon is a latent classification bug, and the
//! geometry-space fuzzer (`apf-conformance::geometry_fuzz`) needs a single
//! addressable source of truth to aim perturbations at classifier
//! boundaries. Every constant documents which decision it parameterizes.

use crate::tol::Tol;

/// Multiplier applied to `Tol::angle_eps` for the coarse Weber-point
/// pre-check in [`super::regular::find_regular_center`]: the Weber point is
/// only an approximation of the true regular center, so the angular test is
/// loosened by this factor before the center is polished to full tolerance.
pub const COARSE_ANGLE_FACTOR: f64 = 1e3;

/// Absolute cap on the coarse angular tolerance (radians). Keeps the
/// pre-check meaningful even when the caller passes an unusually loose
/// `Tol` whose scaled angular epsilon would otherwise accept anything.
pub const COARSE_ANGLE_CAP: f64 = 1e-3;

/// Stall exit of the Gauss–Newton slot fit
/// ([`super::regular::fit_slot_model`]): once a step moves the iterate by
/// less than 1e-12 while the largest angular residual still exceeds this
/// factor times `Tol::angle_eps`, the fit gives up. At a stalled iterate the
/// phase (and the bi-angled gap) are the linear least-squares fit for the
/// current center, so a center the caller's `angle_eps` check would accept
/// leaves a largest residual of about `n^{3/2} · angle_eps` — at most
/// `512 · angle_eps` for `n ≤ 64`, well under this factor. A looser `Tol`
/// raises the bound, so the exit fires less often, never more.
pub const SLOT_FIT_STALL_FACTOR: f64 = 1e4;

/// Radius band for whole-configuration shifted-regular candidates
/// ([`super::shifted::find_shifted_regular`]): a robot is a candidate
/// shifted robot when its Weber-point radius is within this factor of the
/// minimum radius. Generous because the Weber point of the *shifted*
/// configuration only approximates the true center.
pub const SHIFTED_RADIUS_BAND: f64 = 1.25;

/// Loose pre-filter for the equiangular completion in
/// [`super::shifted::find_shifted_regular`]: under an approximate center,
/// each angular gap must be within this fraction of the equiangular gap
/// `alpha_eq` of its target (with the merged gap at the insertion or the
/// one after it) before the Gauss–Newton slot fit is attempted.
pub const EQUIANGULAR_LOOSE_GAP_FRAC: f64 = 0.45;

/// Loose band for the biangular completion in
/// [`super::shifted::find_shifted_regular`]: gap estimates must agree with
/// the alternating means `a`, `b` within this fraction of `a + b` when the
/// center is approximate (full `Tol::angle_eps` once the center is exact).
pub const BIANGULAR_LOOSE_BAND_FRAC: f64 = 0.2;

/// The paper's upper bound on the shift fraction ε of an ε-shifted regular
/// set (Definition 3): ε ∈ (0, 1/4].
pub const EPSILON_MAX: f64 = 0.25;

/// Slack factor on [`EPSILON_MAX`] in units of `Tol::angle_eps`: a
/// recovered ε may exceed 1/4 by up to `EPSILON_SLACK_FACTOR * angle_eps`
/// to absorb the error of the numerically refined center.
pub const EPSILON_SLACK_FACTOR: f64 = 16.0;

/// The coarse tolerance used for the Weber-point pre-check: same linear
/// epsilon, angular epsilon loosened by [`COARSE_ANGLE_FACTOR`] and capped
/// at [`COARSE_ANGLE_CAP`].
pub fn coarse_tol(tol: &Tol) -> Tol {
    Tol { eps: tol.eps, angle_eps: (tol.angle_eps * COARSE_ANGLE_FACTOR).min(COARSE_ANGLE_CAP) }
}

/// Radius-aware angular slack for polar multiset matching
/// ([`super::rho::symmetricity`] and friends): at radius `r`, a linear
/// displacement of `Tol::eps` subtends an angle of `eps / r`, so the
/// angular comparison must accept at least that much; `Tol::angle_eps` is
/// the floor for large radii.
pub fn angular_slack(tol: &Tol, radius: f64) -> f64 {
    tol.angle_eps.max(tol.eps / radius)
}

/// The maximum ε accepted by shifted-regular verification under `tol`:
/// [`EPSILON_MAX`] plus the angular-slack allowance.
pub fn epsilon_cap(tol: &Tol) -> f64 {
    EPSILON_MAX + EPSILON_SLACK_FACTOR * tol.angle_eps
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn coarse_tol_scales_and_caps() {
        let t = Tol::default();
        let c = coarse_tol(&t);
        assert_eq!(c.eps, t.eps);
        assert_eq!(c.angle_eps, t.angle_eps * COARSE_ANGLE_FACTOR);

        let loose = Tol { eps: 1e-5, angle_eps: 1e-5 };
        let c = coarse_tol(&loose);
        assert_eq!(c.angle_eps, COARSE_ANGLE_CAP, "cap must bound a loose Tol");
    }

    #[test]
    fn angular_slack_grows_at_small_radii() {
        let t = Tol::default();
        // Large radius: the floor wins.
        assert_eq!(angular_slack(&t, 10.0), t.angle_eps);
        // Tiny radius: the subtended angle of a linear eps wins.
        assert!(angular_slack(&t, 1e-3) > t.angle_eps);
        assert_eq!(angular_slack(&t, 1e-3), t.eps / 1e-3);
    }

    #[test]
    fn epsilon_cap_is_quarter_plus_slack() {
        let t = Tol::default();
        assert!(epsilon_cap(&t) > EPSILON_MAX);
        assert!(epsilon_cap(&t) - EPSILON_MAX <= EPSILON_SLACK_FACTOR * t.angle_eps + 1e-18);
    }
}
