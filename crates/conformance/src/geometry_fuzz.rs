//! Geometry-space adversarial fuzzing: the *instance* space, not the
//! schedule space.
//!
//! The schedule fuzzer ([`crate::fuzz`]) adversaries activation order but
//! always runs on well-separated asymmetric instances. The paper's
//! Algorithm 1, however, hinges on exact symmetry classification — ρ(P),
//! reg(P), SEC membership, multiplicity detection — and classifiers break
//! on *degenerate geometry*: configurations that straddle a tolerance
//! boundary. This module generates seeded instances from four degenerate
//! families:
//!
//! * [`GeoFamily::PerturbedRho`] — a ρ=k configuration with one robot's
//!   angle perturbed by a multiple of the classifier's angular slack
//!   ([`angular_slack`]), straddling the symmetry tolerance;
//! * [`GeoFamily::Collinear`] — collinear and near-collinear clusters
//!   (transverse offsets around `Tol::eps`);
//! * [`GeoFamily::SecBoundary`] — a robot ε-inside / on / ε-outside the
//!   smallest enclosing circle;
//! * [`GeoFamily::NearMultiplicity`] — a pair separated by a distance just
//!   above / below the multiplicity threshold.
//!
//! Each instance records its unperturbed **template**, the perturbation
//! magnitude, the classifier threshold it straddles, and a
//! correct-by-construction [`Expectation`]: clearly inside the tolerance
//! the degenerate property MUST be classified as holding, clearly outside
//! it MUST NOT, and in the gray band around the boundary either answer is
//! legal. A pure-geometry oracle ([`check_instance`]) enforces the
//! expectation plus unconditional invariants (SEC soundness, classifier
//! determinism); the ρ classifier is injectable so a deliberately broken
//! tolerance is caught by the same oracle (see the injected-bug test).
//!
//! Instances are also run end-to-end under the FSYNC / SSYNC / ASYNC
//! scheduler matrix with the schedule fuzzer's trace oracles
//! (stream-legality, ≤ 1 bit per election cycle, phase legality, rigid
//! motion). Violations shrink over *both* spaces: schedules with the
//! existing ddmin machinery, geometry by dropping template-preserving robot
//! groups and snapping coordinates toward the template, emitting a minimal
//! `(initial positions, ScriptedScheduler)` reproducer.

use crate::fuzz::{check_events, script_to_text, FuzzConfig, Violation};
use apf_bench::engine::trial_seed;
use apf_geometry::symmetry::consts::angular_slack;
use apf_geometry::symmetry::symmetricity;
use apf_geometry::{smallest_enclosing_circle, Configuration, Point, Tol, Vector};
use apf_scheduler::{Action, PhaseView, Scheduler, SchedulerKind, ScriptedScheduler};
use apf_sim::{World, WorldConfig};
use apf_trace::VecSink;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// The degenerate instance families the classifiers must survive.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum GeoFamily {
    /// ρ=k configuration, one robot's angle perturbed around the symmetry
    /// tolerance.
    PerturbedRho,
    /// Collinear cluster with transverse offsets around `Tol::eps`.
    Collinear,
    /// A robot radially perturbed around the SEC circumference.
    SecBoundary,
    /// A pair separated around the multiplicity (coincidence) threshold.
    NearMultiplicity,
}

impl GeoFamily {
    /// Every family, in the order campaigns cycle through them.
    pub const ALL: [GeoFamily; 4] = [
        GeoFamily::PerturbedRho,
        GeoFamily::Collinear,
        GeoFamily::SecBoundary,
        GeoFamily::NearMultiplicity,
    ];

    /// Stable kebab-case label (reproducer headers, corpus case names).
    pub fn label(self) -> &'static str {
        match self {
            GeoFamily::PerturbedRho => "perturbed-rho",
            GeoFamily::Collinear => "collinear",
            GeoFamily::SecBoundary => "sec-boundary",
            GeoFamily::NearMultiplicity => "near-multiplicity",
        }
    }

    /// Parses a [`GeoFamily::label`].
    pub fn from_label(s: &str) -> Option<GeoFamily> {
        GeoFamily::ALL.into_iter().find(|f| f.label() == s)
    }
}

impl std::fmt::Display for GeoFamily {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// What the classifier must say about the instance's degenerate property,
/// decided at generation time from the perturbation / threshold ratio.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Expectation {
    /// Perturbation clearly inside the tolerance: the degenerate property
    /// (symmetry, multiplicity, on-SEC) must be detected.
    MustHold,
    /// Perturbation clearly outside: the property must NOT be detected.
    MustNotHold,
    /// Within the gray band around the boundary: either answer is legal;
    /// only unconditional invariants are checked.
    Boundary,
}

/// Perturbation magnitudes as multiples of the classifier threshold. The
/// ladder straddles the boundary: below 1 the property still holds, above
/// it does not, and the 0.9 / 1.1 rungs land within 2·ε of the boundary
/// (the acceptance criterion asserted in tests).
const LADDER: [f64; 9] = [0.0, 0.125, 0.25, 0.5, 0.9, 1.1, 2.0, 8.0, 32.0];

/// Ratio at or below which the perturbation is clearly inside tolerance.
const MUST_HOLD_MAX: f64 = 0.5;
/// Ratio at or above which the perturbation is clearly outside tolerance.
const MUST_NOT_HOLD_MIN: f64 = 8.0;

fn expectation_for(factor: f64) -> Expectation {
    if factor <= MUST_HOLD_MAX {
        Expectation::MustHold
    } else if factor >= MUST_NOT_HOLD_MIN {
        Expectation::MustNotHold
    } else {
        Expectation::Boundary
    }
}

/// One generated degenerate instance: the perturbed positions, the exact
/// unperturbed template they were derived from, and the ground truth the
/// generator knows by construction.
#[derive(Debug, Clone)]
pub struct GeoInstance {
    /// The family this instance belongs to.
    pub family: GeoFamily,
    /// The (perturbed) robot positions.
    pub positions: Vec<Point>,
    /// The unperturbed degenerate template (same length; shrinking snaps
    /// coordinates toward it).
    pub template: Vec<Point>,
    /// The classification center (template symmetry center for
    /// `PerturbedRho`; informational for the other families).
    pub center: Point,
    /// The template's symmetricity (1 for non-rho families).
    pub template_rho: usize,
    /// Indices of robots whose position differs from the template.
    pub perturbed: Vec<usize>,
    /// Indices that must never be dropped by the geometry shrinker (the
    /// perturbed robots plus their structural partners: the multiplicity
    /// partner, the SEC anchors).
    pub essential: Vec<usize>,
    /// Perturbation magnitude (radians for `PerturbedRho`, distance
    /// otherwise).
    pub perturbation: f64,
    /// The classifier threshold the perturbation straddles (the angular
    /// slack at the perturbed radius, or `Tol::eps`).
    pub threshold: f64,
    /// For `SecBoundary`: whether the robot was pushed outward.
    pub outward: bool,
    /// Ground truth by construction.
    pub expectation: Expectation,
}

impl GeoInstance {
    /// Distance of the perturbation from the classifier boundary (0 = on
    /// the boundary exactly). The acceptance criterion: every family
    /// produces instances with `boundary_distance() <= 2 * threshold`.
    pub fn boundary_distance(&self) -> f64 {
        (self.perturbation - self.threshold).abs()
    }

    /// Robot count.
    pub fn len(&self) -> usize {
        self.positions.len()
    }

    /// Never empty (generators require `n >= 4`).
    pub fn is_empty(&self) -> bool {
        self.positions.is_empty()
    }
}

/// Generates the degenerate instance of `family` for `(n, seed)`.
/// Deterministic: the same inputs always produce the same instance.
///
/// # Panics
///
/// Panics if `n < 4` (the families need room for anchors and partners).
pub fn degenerate_instance(family: GeoFamily, n: usize, seed: u64) -> GeoInstance {
    assert!(n >= 4, "degenerate families need at least 4 robots");
    let mut rng = StdRng::seed_from_u64(seed ^ 0x9E0F);
    let factor = LADDER[rng.gen_range(0..LADDER.len())];
    match family {
        GeoFamily::PerturbedRho => perturbed_rho(n, seed, factor, &mut rng),
        GeoFamily::Collinear => collinear(n, factor, &mut rng),
        GeoFamily::SecBoundary => sec_boundary(n, factor, &mut rng),
        GeoFamily::NearMultiplicity => near_multiplicity(n, seed, factor, &mut rng),
    }
}

/// Most orbits a `perturbed-rho` template may have.
/// `symmetric_configuration` draws orbit radii from [0.3, 1.5), each more
/// than 0.05 from the others, so every radius drawn rules out less than 0.1
/// of the range; with at most 11 orbits a free radius always remains.
const MAX_ORBITS: usize = 11;

/// The template's symmetricity: the smallest divisor `ρ >= 2` of `n` that
/// leaves at most [`MAX_ORBITS`] orbits (`n` itself when `n` is prime).
fn template_rho(n: usize) -> usize {
    (2..=n).find(|&d| n.is_multiple_of(d) && n / d <= MAX_ORBITS).unwrap_or(n)
}

fn perturbed_rho(n: usize, seed: u64, factor: f64, rng: &mut StdRng) -> GeoInstance {
    let tol = Tol::default();
    let rho = template_rho(n);
    let template = if rho == n {
        // A single orbit is a regular n-gon, which always has an axis, so
        // `symmetric_configuration` cannot build it.
        apf_patterns::regular_polygon(n, 1.0, 0.0)
    } else {
        apf_patterns::symmetric_configuration(n, rho, seed ^ 0x6E0)
    };
    let idx = rng.gen_range(0..n);
    let radius = template[idx].dist(Point::ORIGIN);
    let slack = angular_slack(&tol, radius);
    let phi = factor * slack * if rng.gen_bool(0.5) { 1.0 } else { -1.0 };
    let mut positions = template.clone();
    positions[idx] = positions[idx].rotate_around(Point::ORIGIN, phi);
    GeoInstance {
        family: GeoFamily::PerturbedRho,
        positions,
        template,
        center: Point::ORIGIN,
        template_rho: rho,
        perturbed: if factor > 0.0 { vec![idx] } else { Vec::new() },
        essential: vec![idx],
        perturbation: phi.abs(),
        threshold: slack,
        outward: false,
        expectation: expectation_for(factor),
    }
}

fn collinear(n: usize, factor: f64, rng: &mut StdRng) -> GeoInstance {
    let tol = Tol::default();
    let dir_angle = rng.gen_range(0.0..std::f64::consts::TAU);
    let dir = Vector::new(dir_angle.cos(), dir_angle.sin());
    let normal = Vector::new(-dir.y, dir.x);
    let anchor = Point::new(rng.gen_range(-1.0..1.0), rng.gen_range(-1.0..1.0));
    let spacing = rng.gen_range(0.2..0.5);
    let template: Vec<Point> = (0..n).map(|i| anchor + dir * (i as f64 * spacing)).collect();
    // Perturb one interior robot transversely; the endpoints stay exact so
    // the template's SEC (the endpoint diameter circle) is preserved.
    let idx = rng.gen_range(1..n - 1);
    let offset = factor * tol.eps * if rng.gen_bool(0.5) { 1.0 } else { -1.0 };
    let mut positions = template.clone();
    positions[idx] += normal * offset;
    GeoInstance {
        family: GeoFamily::Collinear,
        positions,
        template,
        center: anchor,
        template_rho: 1,
        perturbed: if factor > 0.0 { vec![idx] } else { Vec::new() },
        essential: vec![0, idx, n - 1],
        perturbation: offset.abs(),
        threshold: tol.eps,
        outward: false,
        expectation: expectation_for(factor),
    }
}

fn sec_boundary(n: usize, factor: f64, rng: &mut StdRng) -> GeoInstance {
    let tol = Tol::default();
    let ring_r = rng.gen_range(0.8..1.2);
    let center = Point::new(rng.gen_range(-0.5..0.5), rng.gen_range(-0.5..0.5));
    let at = |angle: f64, r: f64| center + Vector::new(angle.cos(), angle.sin()) * r;
    let mut template = Vec::with_capacity(n);
    // Three anchors spread over more than a semicircle pin the SEC to the
    // ring regardless of what the perturbed robot does inside it.
    for angle in [0.3, 2.5, 4.4] {
        template.push(at(angle, ring_r));
    }
    for _ in 3..n - 1 {
        template
            .push(at(rng.gen_range(0.0..std::f64::consts::TAU), rng.gen_range(0.1..0.6) * ring_r));
    }
    // The boundary robot sits exactly on the ring in the template.
    let angle = rng.gen_range(0.0..std::f64::consts::TAU);
    template.push(at(angle, ring_r));
    let idx = n - 1;
    let outward = rng.gen_bool(0.5);
    let d = factor * tol.eps;
    let mut positions = template.clone();
    positions[idx] = at(angle, if outward { ring_r + d } else { ring_r - d });
    // Pushed outward the robot still defines (and lies on) the SEC at any
    // distance; only an inward push can take it off the boundary.
    let expectation = if outward { Expectation::MustHold } else { expectation_for(factor) };
    GeoInstance {
        family: GeoFamily::SecBoundary,
        positions,
        template,
        center,
        template_rho: 1,
        perturbed: if factor > 0.0 { vec![idx] } else { Vec::new() },
        essential: vec![0, 1, 2, idx],
        perturbation: d,
        threshold: tol.eps,
        outward,
        expectation,
    }
}

fn near_multiplicity(n: usize, seed: u64, factor: f64, rng: &mut StdRng) -> GeoInstance {
    let tol = Tol::default();
    let base = apf_patterns::asymmetric_configuration(n - 1, seed ^ 0x3D7);
    let partner = rng.gen_range(0..n - 1);
    let dir_angle = rng.gen_range(0.0..std::f64::consts::TAU);
    let d = factor * tol.eps;
    let mut template = base.clone();
    template.push(base[partner]);
    let mut positions = base;
    positions.push(template[partner] + Vector::new(dir_angle.cos(), dir_angle.sin()) * d);
    GeoInstance {
        family: GeoFamily::NearMultiplicity,
        positions,
        template,
        center: Point::ORIGIN,
        template_rho: 1,
        perturbed: if factor > 0.0 { vec![n - 1] } else { Vec::new() },
        essential: vec![partner, n - 1],
        perturbation: d,
        threshold: tol.eps,
        outward: false,
        expectation: expectation_for(factor),
    }
}

/// The ρ classifier under test: injectable so a test can substitute a
/// deliberately broken tolerance and prove the oracle plus shrinker catch
/// and minimize it.
pub type RhoClassifier = fn(&Configuration, Point, &Tol) -> usize;

/// The pure-geometry oracle's configuration.
#[derive(Debug, Clone)]
pub struct GeoOracle {
    /// Tolerance the classifiers run under.
    pub tol: Tol,
    /// The ρ classifier (defaults to the real [`symmetricity`]).
    pub rho_of: RhoClassifier,
}

impl Default for GeoOracle {
    fn default() -> Self {
        GeoOracle { tol: Tol::default(), rho_of: symmetricity }
    }
}

/// Extra slack (in units of the family threshold) the oracle grants the
/// classifiers on unconditional geometric checks, absorbing the numerical
/// noise of center construction.
const ORACLE_SLACK: f64 = 4.0;

/// Checks the classifier invariants on one instance. Violation kinds:
/// `geometry-classifier` (the [`Expectation`] ground truth),
/// `sec-soundness` (the SEC must enclose every robot with at least two on
/// its boundary), and `geometry-determinism` (classifiers are pure).
pub fn check_instance(inst: &GeoInstance, oracle: &GeoOracle) -> Vec<Violation> {
    let mut violations = Vec::new();
    let tol = &oracle.tol;
    let cfg = Configuration::new(inst.positions.clone());

    // Determinism: classifiers are pure functions of the configuration.
    let rho1 = (oracle.rho_of)(&cfg, inst.center, tol);
    let rho2 = (oracle.rho_of)(&cfg, inst.center, tol);
    if rho1 != rho2 {
        violations.push(Violation {
            kind: "geometry-determinism",
            detail: format!("rho classifier returned {rho1} then {rho2} on the same input"),
        });
    }

    // SEC soundness: every robot inside (with slack), >= 2 on the boundary.
    let sec = smallest_enclosing_circle(&inst.positions);
    let slack = ORACLE_SLACK * tol.eps;
    for (i, p) in inst.positions.iter().enumerate() {
        let dist = p.dist(sec.center);
        if dist > sec.radius + slack {
            violations.push(Violation {
                kind: "sec-soundness",
                detail: format!("robot {i} lies {dist} from the SEC center, radius {}", sec.radius),
            });
        }
    }
    let on_boundary = inst
        .positions
        .iter()
        .filter(|p| (p.dist(sec.center) - sec.radius).abs() <= 1e-6 * (1.0 + sec.radius))
        .count();
    if inst.positions.len() >= 2 && on_boundary < 2 {
        violations.push(Violation {
            kind: "sec-soundness",
            detail: format!("only {on_boundary} robots on the SEC boundary (need >= 2)"),
        });
    }

    // The family's ground-truth band.
    match inst.family {
        GeoFamily::PerturbedRho => match inst.expectation {
            Expectation::MustHold if rho1 != inst.template_rho => violations.push(Violation {
                kind: "geometry-classifier",
                detail: format!(
                    "perturbation {:.3e} <= {:.1}x slack {:.3e} but rho = {rho1}, template {}",
                    inst.perturbation, MUST_HOLD_MAX, inst.threshold, inst.template_rho
                ),
            }),
            Expectation::MustNotHold if rho1 == inst.template_rho => violations.push(Violation {
                kind: "geometry-classifier",
                detail: format!(
                    "perturbation {:.3e} >= {:.0}x slack {:.3e} but rho still {} (n = {})",
                    inst.perturbation,
                    MUST_NOT_HOLD_MIN,
                    inst.threshold,
                    inst.template_rho,
                    inst.len()
                ),
            }),
            _ => {}
        },
        GeoFamily::NearMultiplicity => {
            let mult = cfg.has_multiplicity(tol);
            match inst.expectation {
                Expectation::MustHold if !mult => violations.push(Violation {
                    kind: "geometry-classifier",
                    detail: format!(
                        "pair {:.3e} apart (<= {:.1}x eps) but no multiplicity detected",
                        inst.perturbation, MUST_HOLD_MAX
                    ),
                }),
                Expectation::MustNotHold if mult => violations.push(Violation {
                    kind: "geometry-classifier",
                    detail: format!(
                        "pair {:.3e} apart (>= {:.0}x eps) but multiplicity detected",
                        inst.perturbation, MUST_NOT_HOLD_MIN
                    ),
                }),
                _ => {}
            }
        }
        GeoFamily::SecBoundary => {
            if let Some(&idx) = inst.essential.last() {
                let dist = inst.positions[idx].dist(sec.center);
                let on = (dist - sec.radius).abs() <= slack;
                match inst.expectation {
                    Expectation::MustHold if !on => violations.push(Violation {
                        kind: "geometry-classifier",
                        detail: format!(
                            "boundary robot {idx} at {dist}, SEC radius {} (expected on)",
                            sec.radius
                        ),
                    }),
                    Expectation::MustNotHold if dist > sec.radius - slack => {
                        violations.push(Violation {
                            kind: "geometry-classifier",
                            detail: format!(
                                "robot {idx} pushed {:.3e} inside but still on the SEC \
                                 (dist {dist}, radius {})",
                                inst.perturbation, sec.radius
                            ),
                        });
                    }
                    _ => {}
                }
            }
        }
        GeoFamily::Collinear => {
            // An exactly collinear template's SEC is the endpoint-diameter
            // circle; transverse noise within tolerance cannot grow it by
            // more than the slack.
            if inst.expectation == Expectation::MustHold {
                let span = inst.template[0].dist(inst.template[inst.template.len() - 1]);
                if (2.0 * sec.radius - span).abs() > slack {
                    violations.push(Violation {
                        kind: "geometry-classifier",
                        detail: format!(
                            "collinear SEC diameter {} differs from span {span}",
                            2.0 * sec.radius
                        ),
                    });
                }
            }
        }
    }
    violations
}

/// Whether `inst` still triggers a violation of `kind` under `oracle`.
fn geometry_violates(inst: &GeoInstance, oracle: &GeoOracle, kind: &str) -> bool {
    check_instance(inst, oracle).iter().any(|v| v.kind == kind)
}

/// Template-preserving droppable robot groups, by family: whole orbits for
/// `PerturbedRho`, single robots elsewhere; essential robots (perturbed,
/// multiplicity partner, SEC anchors) are never offered.
fn drop_candidates(inst: &GeoInstance) -> Vec<Vec<usize>> {
    let tol = Tol::default();
    let is_essential = |i: &usize| inst.essential.contains(i);
    match inst.family {
        GeoFamily::PerturbedRho => {
            // Orbits are radius classes around the center (distinct radii by
            // construction of `symmetric_configuration`).
            let mut orbits: Vec<(f64, Vec<usize>)> = Vec::new();
            for (i, p) in inst.template.iter().enumerate() {
                let r = p.dist(inst.center);
                match orbits.iter_mut().find(|(or, _)| tol.eq(*or, r)) {
                    Some((_, members)) => members.push(i),
                    None => orbits.push((r, vec![i])),
                }
            }
            orbits
                .into_iter()
                .map(|(_, members)| members)
                .filter(|m| !m.iter().any(&is_essential))
                .collect()
        }
        _ => (0..inst.len()).filter(|i| !is_essential(i)).map(|i| vec![i]).collect(),
    }
}

/// `inst` minus the robots in `removed` (sorted ascending), with perturbed
/// and essential indices remapped.
fn remove_robots(inst: &GeoInstance, removed: &[usize]) -> GeoInstance {
    let keep = |i: &usize| !removed.contains(i);
    let remap = |i: usize| i - removed.iter().filter(|&&r| r < i).count();
    let filter_points =
        |pts: &[Point]| pts.iter().enumerate().filter(|(i, _)| keep(i)).map(|(_, &p)| p).collect();
    GeoInstance {
        positions: filter_points(&inst.positions),
        template: filter_points(&inst.template),
        perturbed: inst.perturbed.iter().filter(|i| keep(i)).map(|&i| remap(i)).collect(),
        essential: inst.essential.iter().filter(|i| keep(i)).map(|&i| remap(i)).collect(),
        ..inst.clone()
    }
}

/// Shrinks a geometry-violating instance to a locally minimal reproducer of
/// `kind`: drop template-preserving robot groups, then snap perturbed
/// coordinates toward the template (full snap, then repeated halving while
/// the expectation band still applies). Returns the minimized instance and
/// the number of shrink candidates evaluated.
pub fn shrink_geometry(inst: &GeoInstance, oracle: &GeoOracle, kind: &str) -> (GeoInstance, u64) {
    let mut current = inst.clone();
    let mut steps = 0u64;

    // Drop robot groups while the violation persists.
    loop {
        let mut progressed = false;
        for group in drop_candidates(&current) {
            if group.len() >= current.len() {
                continue; // never empty the configuration
            }
            let mut sorted = group.clone();
            // apf-lint: allow(stable-sort-in-digest-paths) — distinct robot indices: keys are total
            sorted.sort_unstable();
            let candidate = remove_robots(&current, &sorted);
            steps += 1;
            if candidate.len() >= 2 && geometry_violates(&candidate, oracle, kind) {
                current = candidate;
                progressed = true;
                break;
            }
        }
        if !progressed {
            break;
        }
    }

    // Snap perturbed coordinates toward the template. A full snap removes
    // the perturbation entirely; halving keeps shrinking while the
    // recorded expectation band still applies. A MustNotHold instance is
    // never snapped below its band: a snapped-to-template configuration
    // genuinely has the symmetry, so the ground-truth label would go stale
    // and the minimized reproducer would accuse a correct classifier.
    for idx in current.perturbed.clone() {
        if current.expectation != Expectation::MustNotHold {
            let mut full = current.clone();
            full.positions[idx] = full.template[idx];
            full.perturbation = 0.0;
            steps += 1;
            if geometry_violates(&full, oracle, kind) {
                full.perturbed.retain(|&i| i != idx);
                current = full;
                continue;
            }
        }
        loop {
            let mut half = current.clone();
            half.positions[idx] = current.positions[idx].lerp(current.template[idx], 0.5);
            half.perturbation = current.perturbation * 0.5;
            if current.expectation == Expectation::MustNotHold
                && half.perturbation < MUST_NOT_HOLD_MIN * half.threshold
            {
                break;
            }
            steps += 1;
            if geometry_violates(&half, oracle, kind) {
                current = half;
            } else {
                break;
            }
        }
    }
    (current, steps)
}

/// Geometry-fuzz campaign knobs.
#[derive(Debug, Clone, Copy)]
pub struct GeoFuzzConfig {
    /// Robot count per instance (the paper's algorithm needs n >= 7).
    pub robots: usize,
    /// Recorded schedule prefix for shrinkable replays (engine steps).
    pub script_steps: u64,
    /// Step budget per world run.
    pub step_budget: u64,
    /// Scheduler matrix every instance runs under.
    pub schedulers: [SchedulerKind; 3],
    /// Whether to run instances end-to-end (pure-geometry checks always
    /// run; world runs dominate the cost).
    pub world_runs: bool,
}

impl Default for GeoFuzzConfig {
    fn default() -> Self {
        GeoFuzzConfig {
            robots: 8,
            script_steps: 300,
            step_budget: 300_000,
            schedulers: [SchedulerKind::Fsync, SchedulerKind::Ssync, SchedulerKind::Async],
            world_runs: true,
        }
    }
}

impl GeoFuzzConfig {
    /// The schedule-fuzzer view of these knobs (shared trace oracles).
    /// Multiplicity detection is on: degenerate instances may legitimately
    /// gather, and the oracle must not flag that as phase-illegal.
    fn fuzz_config(&self, robots: usize) -> FuzzConfig {
        FuzzConfig {
            robots,
            script_steps: self.script_steps,
            step_budget: self.step_budget,
            multiplicity: true,
            require_formation: false,
            ..FuzzConfig::default()
        }
    }
}

/// Records the first `limit` batches any wrapped scheduler emits, making
/// every matrix run replayable through [`ScriptedScheduler`].
struct RecordingScheduler {
    inner: Box<dyn Scheduler>,
    script: Arc<Mutex<Vec<Vec<Action>>>>,
    limit: u64,
    steps: u64,
}

impl RecordingScheduler {
    fn new(inner: Box<dyn Scheduler>, limit: u64) -> Self {
        RecordingScheduler { inner, script: Arc::new(Mutex::new(Vec::new())), limit, steps: 0 }
    }

    fn script_handle(&self) -> Arc<Mutex<Vec<Vec<Action>>>> {
        Arc::clone(&self.script)
    }
}

impl Scheduler for RecordingScheduler {
    fn next(&mut self, phases: &[PhaseView]) -> Vec<Action> {
        let batch = self.inner.next(phases);
        self.steps += 1;
        if self.steps <= self.limit {
            // apf-lint: allow(panic-policy) — single-threaded use; poisoning needs a prior panic
            self.script.lock().expect("geo script lock").push(batch.clone());
        }
        batch
    }

    fn name(&self) -> &'static str {
        "geo-recorder"
    }
}

/// The target pattern for a world run: derived from the case seed, sized to
/// the instance.
fn pattern_for(n: usize, seed: u64) -> Vec<Point> {
    apf_patterns::random_pattern(n, seed ^ 0x7E11)
}

fn world_on(
    inst_positions: Vec<Point>,
    pattern: Vec<Point>,
    fcfg: &FuzzConfig,
    scheduler: Box<dyn Scheduler>,
    seed: u64,
) -> World {
    let config =
        WorldConfig { multiplicity_detection: fcfg.multiplicity, ..WorldConfig::default() };
    World::new(inst_positions, pattern, (fcfg.algorithm)(), scheduler, config, seed)
}

/// Replays `script` on the instance's world and reports whether a violation
/// of `kind` recurs (the geometry analogue of [`crate::fuzz::replay_violates`]).
pub fn geo_replay_violates(
    cfg: &GeoFuzzConfig,
    positions: &[Point],
    seed: u64,
    script: &[Vec<Action>],
    kind: &str,
) -> bool {
    let fcfg = cfg.fuzz_config(positions.len());
    let scheduler = ScriptedScheduler::new(script.to_vec());
    let mut world = world_on(
        positions.to_vec(),
        pattern_for(positions.len(), seed),
        &fcfg,
        Box::new(scheduler),
        seed,
    );
    let sink = Arc::new(Mutex::new(VecSink::new()));
    world.set_sink(Box::new(Arc::clone(&sink)));
    let outcome = world.run(script.len() as u64);
    // apf-lint: allow(panic-policy) — single-threaded use; poisoning needs a prior panic
    let events = sink.lock().expect("geo sink lock").events().to_vec();
    if kind == "compute-error" {
        return matches!(outcome.reason, apf_sim::StopReason::AlgorithmError(_));
    }
    check_events(&fcfg, &events, outcome.formed, false).iter().any(|v| v.kind == kind)
}

/// Drops actions addressed to `removed` robots from a script and remaps the
/// surviving indices, so a geometry-shrunk instance can revalidate the same
/// schedule.
fn remap_script(script: &[Vec<Action>], removed: &[usize], old_n: usize) -> Vec<Vec<Action>> {
    let remap: Vec<Option<usize>> = (0..old_n)
        .map(|i| {
            if removed.contains(&i) {
                None
            } else {
                Some(i - removed.iter().filter(|&&r| r < i).count())
            }
        })
        .collect();
    script
        .iter()
        .map(|batch| {
            batch
                .iter()
                .filter_map(|action| {
                    let robot = remap.get(action.robot()).copied().flatten()?;
                    Some(match *action {
                        Action::Look { .. } => Action::Look { robot },
                        Action::Move { distance, end_phase, .. } => {
                            Action::Move { robot, distance, end_phase }
                        }
                    })
                })
                .collect::<Vec<Action>>()
        })
        .filter(|batch| !batch.is_empty())
        .collect()
}

/// A violating geometry-fuzz case, minimized over schedule and geometry.
#[derive(Debug, Clone)]
pub struct GeoCounterexample {
    /// Case index within its campaign.
    pub case_index: u64,
    /// The case's derived seed.
    pub seed: u64,
    /// The degenerate family.
    pub family: GeoFamily,
    /// The scheduler kind the violation occurred under (`None`: the
    /// pure-geometry oracle, no world run involved).
    pub scheduler: Option<SchedulerKind>,
    /// Violations of the original run.
    pub violations: Vec<Violation>,
    /// Minimized initial positions.
    pub positions: Vec<Point>,
    /// Minimized schedule script (empty for pure-geometry violations).
    pub script: Vec<Vec<Action>>,
    /// Robot count before geometry shrinking.
    pub original_robots: usize,
    /// Script length before schedule shrinking.
    pub original_len: usize,
    /// Shrink candidates evaluated (schedule + geometry).
    pub shrink_steps: u64,
}

/// Campaign outcome.
#[derive(Debug, Clone, Default)]
pub struct GeoFuzzReport {
    /// Cases executed (instance + scheduler matrix).
    pub cases: u64,
    /// Cases with no violation.
    pub clean: u64,
    /// Violating cases, minimized.
    pub counterexamples: Vec<GeoCounterexample>,
    /// Total shrink candidates evaluated.
    pub shrink_steps: u64,
}

impl GeoFuzzReport {
    /// Whether the campaign found no violations.
    pub fn is_clean(&self) -> bool {
        self.counterexamples.is_empty()
    }

    /// Folds another report into this one (timed campaigns run in rounds).
    pub fn merge(&mut self, other: GeoFuzzReport) {
        self.cases += other.cases;
        self.clean += other.clean;
        self.shrink_steps += other.shrink_steps;
        self.counterexamples.extend(other.counterexamples);
    }
}

/// Runs one geometry-fuzz case: generate the instance for `(family, seed)`,
/// check the pure-geometry oracle, then (when `world_runs`) execute the
/// scheduler matrix with the trace oracles. Violations are shrunk over
/// schedule and geometry. Deterministic per `(cfg, case_index, seed)`.
pub fn run_geo_case(
    cfg: &GeoFuzzConfig,
    oracle: &GeoOracle,
    case_index: u64,
    seed: u64,
) -> (u64, Vec<GeoCounterexample>) {
    let family = GeoFamily::ALL[(case_index % GeoFamily::ALL.len() as u64) as usize];
    let inst = degenerate_instance(family, cfg.robots, seed);
    let mut shrink_steps = 0u64;
    let mut counterexamples = Vec::new();

    // Layer 1: the pure-geometry classifier oracle.
    let geo_violations = check_instance(&inst, oracle);
    if let Some(first) = geo_violations.first() {
        let (minimized, steps) = shrink_geometry(&inst, oracle, first.kind);
        shrink_steps += steps;
        counterexamples.push(GeoCounterexample {
            case_index,
            seed,
            family,
            scheduler: None,
            violations: geo_violations,
            positions: minimized.positions,
            script: Vec::new(),
            original_robots: inst.len(),
            original_len: 0,
            shrink_steps: steps,
        });
    }

    // Layer 2: the scheduler matrix with the trace oracles. Instances with
    // genuine multiplicity are exercised by layer 1 only — the paper's
    // algorithm assumes multiplicity-free initial configurations.
    let initial_cfg = Configuration::new(inst.positions.clone());
    if cfg.world_runs && !initial_cfg.has_multiplicity(&oracle.tol) {
        let fcfg = cfg.fuzz_config(inst.len());
        for (k, kind) in cfg.schedulers.into_iter().enumerate() {
            let sched_seed = seed ^ (0xA11 + k as u64);
            let recorder = RecordingScheduler::new(kind.build(sched_seed), cfg.script_steps);
            let script_handle = recorder.script_handle();
            let mut world = world_on(
                inst.positions.clone(),
                pattern_for(inst.len(), seed),
                &fcfg,
                Box::new(recorder),
                seed,
            );
            let sink = Arc::new(Mutex::new(VecSink::new()));
            world.set_sink(Box::new(Arc::clone(&sink)));
            let outcome = world.run(cfg.step_budget);
            drop(world);
            // apf-lint: allow(panic-policy) — single-threaded use; poisoning needs a prior panic
            let events = sink.lock().expect("geo sink lock").events().to_vec();
            let mut violations = check_events(&fcfg, &events, outcome.formed, false);
            if let apf_sim::StopReason::AlgorithmError(e) = &outcome.reason {
                violations.insert(
                    0,
                    Violation {
                        kind: "compute-error",
                        detail: format!("algorithm rejected a snapshot: {e}"),
                    },
                );
            }
            if violations.is_empty() {
                continue;
            }
            // apf-lint: allow(panic-policy) — single-threaded use; poisoning needs a prior panic
            let script = script_handle.lock().expect("geo script lock").clone();
            let (positions, script, steps) =
                shrink_case(cfg, &inst, seed, script, violations[0].kind);
            shrink_steps += steps;
            counterexamples.push(GeoCounterexample {
                case_index,
                seed,
                family,
                scheduler: Some(kind),
                violations,
                positions,
                original_robots: inst.len(),
                original_len: cfg.script_steps as usize,
                script,
                shrink_steps: steps,
            });
        }
    }
    (shrink_steps, counterexamples)
}

/// Minimizes a world-run violation over both spaces: the schedule first
/// (the existing ddmin machinery, replayed on this instance's geometry),
/// then the geometry (drop non-essential robots with the script remapped,
/// snap perturbed coordinates to the template), revalidating every
/// candidate by scripted replay.
fn shrink_case(
    cfg: &GeoFuzzConfig,
    inst: &GeoInstance,
    seed: u64,
    script: Vec<Vec<Action>>,
    kind: &str,
) -> (Vec<Point>, Vec<Vec<Action>>, u64) {
    let mut steps = 0u64;

    // Schedule space: reuse the schedule fuzzer's shrinker shape — prefix
    // truncation then chunked ddmin — against this instance's replay.
    let mut current = inst.positions.clone();
    let mut script = {
        let violates = |s: &[Vec<Action>]| geo_replay_violates(cfg, &current, seed, s, kind);
        let mut s = script;
        let mut lo = 0usize;
        let mut hi = s.len();
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            steps += 1;
            if violates(&s[..mid]) {
                hi = mid;
            } else {
                lo = mid + 1;
            }
        }
        s.truncate(hi);
        let mut chunk = (s.len() / 2).max(1);
        while chunk >= 1 {
            let mut i = 0;
            while i < s.len() {
                let mut candidate = s.clone();
                candidate.drain(i..(i + chunk).min(candidate.len()));
                steps += 1;
                if !candidate.is_empty() && violates(&candidate) {
                    s = candidate;
                } else {
                    i += chunk;
                }
            }
            if chunk == 1 {
                break;
            }
            chunk /= 2;
        }
        s
    };

    // Geometry space: drop non-essential robots (script remapped), then
    // snap perturbed coordinates back to the template.
    let mut shrunk = inst.clone();
    loop {
        let mut progressed = false;
        for group in drop_candidates(&shrunk) {
            if shrunk.len() - group.len() < 2 {
                continue;
            }
            let mut sorted = group.clone();
            // apf-lint: allow(stable-sort-in-digest-paths) — distinct robot indices: keys are total
            sorted.sort_unstable();
            let candidate = remove_robots(&shrunk, &sorted);
            let candidate_script = remap_script(&script, &sorted, shrunk.len());
            steps += 1;
            if geo_replay_violates(cfg, &candidate.positions, seed, &candidate_script, kind) {
                shrunk = candidate;
                script = candidate_script;
                progressed = true;
                break;
            }
        }
        if !progressed {
            break;
        }
    }
    for idx in shrunk.perturbed.clone() {
        let mut candidate = shrunk.clone();
        candidate.positions[idx] = candidate.template[idx];
        steps += 1;
        if geo_replay_violates(cfg, &candidate.positions, seed, &script, kind) {
            candidate.perturbed.retain(|&i| i != idx);
            shrunk = candidate;
        }
    }
    current = shrunk.positions;
    (current, script, steps)
}

/// Runs `cases` geometry-fuzz cases with seeds derived from
/// `campaign_seed` on `jobs` worker threads. Like
/// [`crate::fuzz::fuzz_campaign`], the report is identical for any `jobs`
/// value: each case depends only on its index-derived seed and results are
/// collected in index order.
pub fn geo_fuzz_campaign(
    cfg: &GeoFuzzConfig,
    oracle: &GeoOracle,
    campaign_seed: u64,
    cases: u64,
    jobs: usize,
) -> GeoFuzzReport {
    geo_fuzz_rounds(cfg, oracle, campaign_seed, 0, cases, jobs)
}

/// Runs case indices `first..first + cases` (a shard of a larger campaign:
/// case `i` here is bit-identical to case `i` anywhere else).
pub fn geo_fuzz_rounds(
    cfg: &GeoFuzzConfig,
    oracle: &GeoOracle,
    campaign_seed: u64,
    first: u64,
    cases: u64,
    jobs: usize,
) -> GeoFuzzReport {
    type Slot = Mutex<Option<(u64, Vec<GeoCounterexample>)>>;
    let jobs = jobs.max(1);
    let n = cases as usize;
    let slots: Vec<Slot> = (0..n).map(|_| Mutex::new(None)).collect();
    let cursor = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        for _ in 0..jobs.min(n.max(1)) {
            scope.spawn(|| loop {
                let i = cursor.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                let index = first + i as u64;
                let seed = trial_seed(campaign_seed, index);
                let out = run_geo_case(cfg, oracle, index, seed);
                // apf-lint: allow(panic-policy) — each slot is touched by exactly one worker
                *slots[i].lock().expect("geo slot lock") = Some(out);
            });
        }
    });
    let mut report = GeoFuzzReport { cases, ..GeoFuzzReport::default() };
    for slot in slots {
        let (steps, ces) =
            // apf-lint: allow(panic-policy) — workers either fill every slot or panic the scope
            slot.into_inner().expect("geo slot lock").expect("every slot filled");
        report.shrink_steps += steps;
        if ces.is_empty() {
            report.clean += 1;
        } else {
            report.counterexamples.extend(ces);
        }
    }
    report
}

/// Runs rounds of cases until `budget` elapses (at least one round always
/// runs). Case indices are contiguous from 0, so every case is
/// deterministic; only the *count* of cases depends on wall time.
pub fn geo_fuzz_timed(
    cfg: &GeoFuzzConfig,
    oracle: &GeoOracle,
    campaign_seed: u64,
    budget: Duration,
    jobs: usize,
) -> GeoFuzzReport {
    let t0 = Instant::now();
    let round = (jobs.max(1) * 2) as u64;
    let mut report = GeoFuzzReport::default();
    let mut next = 0u64;
    loop {
        let r = geo_fuzz_rounds(cfg, oracle, campaign_seed, next, round, jobs);
        next += round;
        report.merge(r);
        if t0.elapsed() >= budget {
            return report;
        }
    }
}

/// Writes a geometry counterexample reproducer (`geo-<index>.repro`): a
/// header with the family, seed, scheduler, and violations; the minimal
/// initial positions (`position R X Y` lines); then the minimal schedule in
/// [`crate::fuzz::script_to_text`] format.
///
/// # Errors
///
/// I/O errors creating the directory or writing the file.
pub fn dump_geo_counterexample(dir: &Path, ce: &GeoCounterexample) -> std::io::Result<PathBuf> {
    std::fs::create_dir_all(dir)?;
    let path = dir.join(format!("geo-{}.repro", ce.case_index));
    let mut text = String::new();
    let _ = writeln!(
        text,
        "# geo-fuzz case {} family {} seed {:#018x} scheduler {}",
        ce.case_index,
        ce.family,
        ce.seed,
        ce.scheduler.map_or_else(|| "none (pure geometry)".to_string(), |k| k.to_string()),
    );
    let _ = writeln!(
        text,
        "# robots: {} (shrunk from {}); script: {} batches; {} shrink steps",
        ce.positions.len(),
        ce.original_robots,
        ce.script.len(),
        ce.shrink_steps
    );
    for v in &ce.violations {
        let _ = writeln!(text, "# violation[{}]: {}", v.kind, v.detail);
    }
    for (i, p) in ce.positions.iter().enumerate() {
        let _ = writeln!(text, "# position {i} {:?} {:?}", p.x, p.y);
    }
    text.push_str(&script_to_text(&ce.script));
    std::fs::write(&path, text)?;
    Ok(path)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn instances_are_deterministic_per_seed() {
        for family in GeoFamily::ALL {
            let a = degenerate_instance(family, 8, 42);
            let b = degenerate_instance(family, 8, 42);
            assert_eq!(a.positions, b.positions, "{family}");
            assert_eq!(a.expectation, b.expectation, "{family}");
            let c = degenerate_instance(family, 8, 43);
            assert_ne!(a.positions, c.positions, "{family}: seeds must differ");
        }
    }

    #[test]
    fn every_family_builds_for_every_soak_robot_count() {
        // Every robot count a soak accepts (7..=64) must generate, and in
        // bounded time: a prime count's template is a single orbit, and a
        // large count's template must leave its orbit radii room.
        let (done, finished) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            for n in 7..=64 {
                for seed in 0..4 {
                    for family in GeoFamily::ALL {
                        assert_eq!(degenerate_instance(family, n, seed).len(), n, "{family} n={n}");
                    }
                }
            }
            let _ = done.send(());
        });
        finished.recv_timeout(Duration::from_secs(60)).expect("every instance built within 60 s");
    }

    #[test]
    fn every_family_straddles_its_classifier_boundary() {
        // The acceptance criterion: each family produces, over a modest
        // seed sweep, (a) at least one instance within 2·ε of its
        // classifier boundary, and (b) instances on both sides of it.
        for family in GeoFamily::ALL {
            let mut near_boundary = false;
            let mut below = false;
            let mut above = false;
            for seed in 0..64 {
                let inst = degenerate_instance(family, 8, seed);
                if inst.boundary_distance() <= 2.0 * inst.threshold {
                    near_boundary = true;
                }
                if inst.perturbation > 0.0 && inst.perturbation < inst.threshold {
                    below = true;
                }
                if inst.perturbation > inst.threshold {
                    above = true;
                }
            }
            assert!(near_boundary, "{family}: no instance within 2·ε of the boundary");
            assert!(below, "{family}: no instance below the threshold");
            assert!(above, "{family}: no instance above the threshold");
        }
    }

    #[test]
    fn real_classifiers_pass_the_geometry_oracle() {
        let oracle = GeoOracle::default();
        for family in GeoFamily::ALL {
            for seed in 0..48 {
                let inst = degenerate_instance(family, 8, seed);
                let violations = check_instance(&inst, &oracle);
                assert!(
                    violations.is_empty(),
                    "{family} seed {seed} ({:?}, perturbation {:.3e}, threshold {:.3e}): {violations:?}",
                    inst.expectation,
                    inst.perturbation,
                    inst.threshold
                );
            }
        }
    }

    /// A ρ classifier with a deliberately broken (10^4× inflated)
    /// tolerance: it still accepts grossly perturbed configurations as
    /// symmetric.
    fn broken_rho(cfg: &Configuration, center: Point, tol: &Tol) -> usize {
        let fat = Tol { eps: tol.eps * 1e4, angle_eps: tol.angle_eps * 1e4 };
        symmetricity(cfg, center, &fat)
    }

    #[test]
    fn injected_broken_rho_tolerance_is_caught_and_geometry_shrunk() {
        let oracle = GeoOracle { rho_of: broken_rho, ..GeoOracle::default() };
        // Sweep seeds until a MustNotHold perturbed-rho instance appears:
        // the broken tolerance still classifies it as symmetric.
        let mut caught = None;
        for seed in 0..256 {
            let inst = degenerate_instance(GeoFamily::PerturbedRho, 12, seed);
            if inst.expectation != Expectation::MustNotHold {
                continue;
            }
            let violations = check_instance(&inst, &oracle);
            if violations.iter().any(|v| v.kind == "geometry-classifier") {
                caught = Some((inst, violations));
                break;
            }
        }
        let (inst, violations) = caught.expect("the broken tolerance must be caught");
        assert!(violations.iter().any(|v| v.kind == "geometry-classifier"), "{violations:?}");

        // The shrinker must minimize the *geometry*: orbits drop away until
        // only the perturbed robot's orbit remains.
        let (minimized, steps) = shrink_geometry(&inst, &oracle, "geometry-classifier");
        assert!(steps > 0);
        assert!(
            minimized.len() <= 6,
            "shrunk to {} robots (from {}), expected <= 6",
            minimized.len(),
            inst.len()
        );
        assert!(
            geometry_violates(&minimized, &oracle, "geometry-classifier"),
            "minimized instance must still violate"
        );
        // And the real classifier agrees the minimized instance is the
        // bug's fault, not the oracle's.
        assert!(check_instance(&minimized, &GeoOracle::default()).is_empty());
    }

    #[test]
    fn campaign_is_jobs_independent() {
        let cfg = GeoFuzzConfig { world_runs: false, ..GeoFuzzConfig::default() };
        let oracle = GeoOracle::default();
        let a = geo_fuzz_campaign(&cfg, &oracle, 99, 12, 1);
        let b = geo_fuzz_campaign(&cfg, &oracle, 99, 12, 4);
        assert_eq!(a.cases, b.cases);
        assert_eq!(a.clean, b.clean);
        assert_eq!(a.counterexamples.len(), b.counterexamples.len());
    }

    #[test]
    fn script_remap_drops_and_reindexes() {
        let script = vec![
            vec![Action::Look { robot: 0 }, Action::Look { robot: 2 }],
            vec![Action::Move { robot: 3, distance: 0.5, end_phase: true }],
            vec![Action::Look { robot: 1 }],
        ];
        let remapped = remap_script(&script, &[1], 4);
        assert_eq!(
            remapped,
            vec![
                vec![Action::Look { robot: 0 }, Action::Look { robot: 1 }],
                vec![Action::Move { robot: 2, distance: 0.5, end_phase: true }],
            ]
        );
    }

    #[test]
    fn world_matrix_runs_clean_on_degenerate_families() {
        // One representative instance per family through the full
        // scheduler matrix: the stack must survive degenerate geometry.
        let cfg = GeoFuzzConfig { step_budget: 200_000, ..GeoFuzzConfig::default() };
        let oracle = GeoOracle::default();
        for (i, _) in GeoFamily::ALL.iter().enumerate() {
            let seed = trial_seed(7, i as u64);
            let (_, ces) = run_geo_case(&cfg, &oracle, i as u64, seed);
            assert!(
                ces.is_empty(),
                "case {i}: {:?}",
                ces.iter().map(|c| &c.violations).collect::<Vec<_>>()
            );
        }
    }
}
