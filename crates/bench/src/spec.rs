//! The canonical campaign spec shared by every front end.
//!
//! [`CanonicalSpec`] is the single description of "a campaign of generated
//! trials" used by the HTTP service (`apf-serve`'s `JobSpec` wraps it), the
//! CLI (`apf-cli job-digest` / `spec-digest`), and the engine itself: each
//! trial becomes a [`RunSpec`] — the same per-trial type the conformance
//! corpus and fuzz reproducers use — via [`CanonicalSpec::trial_spec`].
//! Before this type existed, the CLI and the service each mirrored the E1
//! campaign construction by hand; now there is exactly one code path from a
//! spec to a campaign, so HTTP runs, CLI runs, and cache keys cannot drift.
//!
//! # Canonical form and content addressing
//!
//! [`CanonicalSpec::canonical_json`] renders the spec as compact JSON with
//! alphabetically sorted keys, every field present (defaults included), and
//! integer tokens exactly as Rust formats them. Because the form is a pure
//! function of the *values* — not of the submitted field order, whitespace,
//! or which optional fields were spelled out — two submissions describing
//! the same campaign render identically, and
//! [`CanonicalSpec::digest`] (FNV-1a 64 over the canonical bytes) is a
//! stable content address. The result cache in `apf-serve` keys on it, and
//! `GET /v1/spec-digest` exposes it for clients.
//!
//! The engine's determinism (see `engine` module docs) closes the loop:
//! equal digests ⇒ equal specs ⇒ bit-identical campaign results, which is
//! what makes answering a repeated spec from a cache sound at all.

use crate::engine::{trial_seed, Campaign, RunSpec};
/// The type of [`CanonicalSpec::scheduler`]; its wire labels are
/// [`SchedulerKind::label`] and [`SchedulerKind::from_label`].
pub use apf_scheduler::SchedulerKind;
use apf_trace::json::Json;

/// Upper bound on trials per spec (bounds service queue memory and shard
/// payload sizes).
pub const MAX_TRIALS: u64 = 4096;
/// Upper bound on robots per trial.
pub const MAX_ROBOTS: usize = 64;
/// Upper bound on the per-trial step budget.
pub const MAX_BUDGET: u64 = 20_000_000;

/// Which instance generator seeds the initial configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Generator {
    /// `apf_patterns::symmetric_configuration(n, rho, 1000 + i)` — the
    /// worst-case election path (experiment E1's generator).
    Symmetric,
    /// `apf_patterns::asymmetric_configuration(n, 1000 + i)`.
    Asymmetric,
}

impl Generator {
    /// Lowercase wire label.
    pub fn label(self) -> &'static str {
        match self {
            Generator::Symmetric => "symmetric",
            Generator::Asymmetric => "asymmetric",
        }
    }

    /// Parses a wire label.
    pub fn from_label(s: &str) -> Option<Generator> {
        match s {
            "symmetric" => Some(Generator::Symmetric),
            "asymmetric" => Some(Generator::Asymmetric),
            _ => None,
        }
    }
}

/// A validated, canonicalizable campaign description.
#[derive(Debug, Clone, PartialEq)]
pub struct CanonicalSpec {
    /// Campaign name (reports, metrics labels; part of the canonical form).
    pub name: String,
    /// Campaign seed (per-trial seeds derive from it).
    pub seed: u64,
    /// Number of trials.
    pub trials: u64,
    /// Robots per trial.
    pub n: usize,
    /// Symmetricity parameter for the symmetric generator.
    pub rho: usize,
    /// Initial-configuration generator.
    pub generator: Generator,
    /// Scheduler kind.
    pub scheduler: SchedulerKind,
    /// Per-trial engine-step budget.
    pub budget: u64,
}

impl Default for CanonicalSpec {
    /// The defaults mirror one row of experiment E1 in `--quick` mode:
    /// `n = 8`, `rho = 4`, 8 trials, campaign seed 1, RoundRobin, a 2 M-step
    /// budget.
    fn default() -> Self {
        CanonicalSpec {
            name: "job".to_string(),
            seed: 1,
            trials: 8,
            n: 8,
            rho: 4,
            generator: Generator::Symmetric,
            scheduler: SchedulerKind::RoundRobin,
            budget: 2_000_000,
        }
    }
}

impl CanonicalSpec {
    /// Checks every field's range and the generator's precondition, without
    /// building a trial: `apf_core::validate_instance` refuses only n < 7,
    /// unequal sizes and points within `eps` of each other, and both
    /// generators return n points at least 0.05 apart. The test
    /// `accepted_specs_build_every_trial` builds every trial of specs at
    /// the precondition's edges.
    ///
    /// # Errors
    ///
    /// Returns a human-readable message (servable as a 400 body).
    pub fn validate(&self) -> Result<(), String> {
        if self.name.is_empty() || self.name.len() > 128 {
            return Err("\"name\" must be 1..=128 chars".to_string());
        }
        if self.trials == 0 || self.trials > MAX_TRIALS {
            return Err(format!("\"trials\" must be 1..={MAX_TRIALS}"));
        }
        if self.n < 7 || self.n > MAX_ROBOTS {
            return Err(format!("\"n\" must be 7..={MAX_ROBOTS} (the paper needs n >= 7)"));
        }
        match self.generator {
            Generator::Symmetric => apf_patterns::symmetric_precondition(self.n, self.rho)
                .map_err(|why| format!("symmetric generator: {why}"))?,
            Generator::Asymmetric => apf_patterns::asymmetric_precondition(self.n)
                .map_err(|why| format!("asymmetric generator: {why}"))?,
        }
        if self.budget == 0 || self.budget > MAX_BUDGET {
            return Err(format!("\"budget\" must be 1..={MAX_BUDGET}"));
        }
        Ok(())
    }

    /// Trial `i` of the campaign as a [`RunSpec`] — the per-trial spec type
    /// shared with the conformance corpus and fuzz reproducers. The
    /// generator offsets (`1000 + i`, `2000 + i`) and derived seed are
    /// functions of the *absolute* trial index, so any sub-range of trials
    /// reproduces exactly the specs a full run would build.
    ///
    /// # Panics
    ///
    /// Panics if the generator cannot build trial `i`. No spec that
    /// [`CanonicalSpec::validate`] accepts is known to do so.
    pub fn trial_spec(&self, i: u64) -> RunSpec {
        let initial = match self.generator {
            Generator::Symmetric => {
                apf_patterns::try_symmetric_configuration(self.n, self.rho, 1000 + i)
                    .unwrap_or_else(|why| panic!("trial {i}: {why}"))
            }
            Generator::Asymmetric => apf_patterns::asymmetric_configuration(self.n, 1000 + i),
        };
        RunSpec::new(initial, apf_patterns::random_pattern(self.n, 2000 + i))
            .scheduler(self.scheduler)
            .budget(self.budget)
            .seed(trial_seed(self.seed, i))
    }

    /// The spec's full campaign — identical construction to the historical
    /// CLI/E1 path (`Campaign::add_trials` with the same offsets).
    pub fn to_campaign(&self) -> Campaign {
        self.to_campaign_range(0, self.trials)
    }

    /// The campaign restricted to trials `lo..hi` (a shard). Trial `lo + k`
    /// of the returned campaign is bit-identical to trial `lo + k` of
    /// [`CanonicalSpec::to_campaign`], so per-trial results and digests of a
    /// shard equal the corresponding slice of a full run.
    ///
    /// # Panics
    ///
    /// Panics if `lo > hi` or `hi > self.trials`.
    pub fn to_campaign_range(&self, lo: u64, hi: u64) -> Campaign {
        assert!(lo <= hi && hi <= self.trials, "invalid trial range {lo}..{hi}");
        let mut c = Campaign::new(self.name.clone(), self.seed);
        for i in lo..hi {
            c.push(self.trial_spec(i));
        }
        c
    }

    /// The canonical form as a JSON object: every field present, integer
    /// tokens exact. Its rendering is [`CanonicalSpec::canonical_json`].
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("budget", Json::u64(self.budget)),
            ("generator", Json::str(self.generator.label())),
            ("n", Json::usize(self.n)),
            ("name", Json::str(&self.name)),
            ("rho", Json::usize(self.rho)),
            ("scheduler", Json::str(self.scheduler.label())),
            ("seed", Json::u64(self.seed)),
            ("trials", Json::u64(self.trials)),
        ])
    }

    /// The canonical compact-JSON form: alphabetically sorted keys, every
    /// field present, integer tokens exact. Submitting the same values in
    /// any field order yields byte-identical output.
    pub fn canonical_json(&self) -> String {
        self.to_json().render()
    }

    /// The spec's content address: FNV-1a 64 over the canonical JSON bytes.
    /// Equal digests ⇒ equal canonical forms ⇒ (by engine determinism)
    /// bit-identical campaign results.
    pub fn digest(&self) -> u64 {
        apf_trace::fnv1a_64(self.canonical_json().as_bytes())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn full_campaign_matches_historical_add_trials_construction() {
        // The canonical path must *construct* campaigns exactly like the
        // historical CLI/serve mirror of E1: Campaign::add_trials with
        // derived seeds and the 1000+i / 2000+i generator offsets.
        let spec = CanonicalSpec::default();
        let c = spec.to_campaign();
        assert_eq!(c.len(), 8);
        let mut reference = Campaign::new("job", 1);
        reference.add_trials(8, |i, _seed| {
            RunSpec::new(
                apf_patterns::symmetric_configuration(8, 4, 1000 + i),
                apf_patterns::random_pattern(8, 2000 + i),
            )
            .scheduler(SchedulerKind::RoundRobin)
            .budget(2_000_000)
        });
        for (a, b) in c.specs().iter().zip(reference.specs()) {
            assert_eq!(format!("{a:?}"), format!("{b:?}"));
        }
    }

    #[test]
    fn range_specs_equal_full_campaign_slice() {
        let spec = CanonicalSpec { trials: 6, ..CanonicalSpec::default() };
        let full = spec.to_campaign();
        let shard = spec.to_campaign_range(2, 5);
        assert_eq!(shard.len(), 3);
        for (k, s) in shard.specs().iter().enumerate() {
            assert_eq!(format!("{s:?}"), format!("{:?}", full.specs()[2 + k]));
        }
        assert!(spec.to_campaign_range(3, 3).is_empty());
    }

    #[test]
    fn canonical_json_is_stable_and_digest_separates_specs() {
        let spec = CanonicalSpec::default();
        assert_eq!(
            spec.canonical_json(),
            "{\"budget\":2000000,\"generator\":\"symmetric\",\"n\":8,\"name\":\"job\",\
             \"rho\":4,\"scheduler\":\"round_robin\",\"seed\":1,\"trials\":8}"
        );
        let other = CanonicalSpec { seed: 2, ..CanonicalSpec::default() };
        assert_ne!(spec.digest(), other.digest());
        assert_eq!(spec.digest(), CanonicalSpec::default().digest());
    }

    #[test]
    fn hostile_name_canonical_bytes_and_digest_are_pinned() {
        // Quote, backslash, newline, a raw control character and non-ASCII:
        // the escaper's every branch. Bytes and digest as the hand-built
        // writer produced them before the spec moved onto the shared codec.
        let spec = CanonicalSpec {
            name: "q\"b\\s\nn\u{1}c\u{e9}".to_string(),
            ..CanonicalSpec::default()
        };
        assert_eq!(
            spec.canonical_json(),
            "{\"budget\":2000000,\"generator\":\"symmetric\",\"n\":8,\
             \"name\":\"q\\\"b\\\\s\\nn\\u0001c\u{e9}\",\"rho\":4,\
             \"scheduler\":\"round_robin\",\"seed\":1,\"trials\":8}"
        );
        assert_eq!(spec.digest(), 0x3540_c12e_20ac_54d8);
    }

    #[test]
    fn validate_rejects_out_of_range_specs() {
        for (mutate, why) in [
            ((|s: &mut CanonicalSpec| s.trials = 0) as fn(&mut CanonicalSpec), "zero trials"),
            (|s| s.trials = MAX_TRIALS + 1, "too many trials"),
            (|s| s.n = 4, "too few robots"),
            (|s| s.rho = 3, "rho does not divide n"),
            (|s| s.rho = 8, "one orbit, a regular polygon"),
            (|s| (s.n, s.rho) = (36, 2), "18 orbits jam the radius draw"),
            (|s| s.budget = 0, "zero budget"),
            (|s| s.name = String::new(), "empty name"),
        ] {
            let mut spec = CanonicalSpec::default();
            mutate(&mut spec);
            assert!(spec.validate().is_err(), "accepted {why}");
        }
        assert!(CanonicalSpec::default().validate().is_ok());
    }

    #[test]
    fn accepted_specs_build_every_trial() {
        // `validate` builds no trial, so the precondition alone must rule
        // out every unbuildable instance. Its edges: n = 8, 12 and 64; 2 and
        // 16 orbits; rho = 2 and n / 2; both generators.
        let mut specs = Vec::new();
        for n in [8, 12, 32, 64] {
            let asymmetric = Generator::Asymmetric;
            specs.push(CanonicalSpec { n, generator: asymmetric, ..CanonicalSpec::default() });
            for rho in [2, n / 16, n / 2] {
                specs.push(CanonicalSpec { n, rho, ..CanonicalSpec::default() });
            }
        }
        specs.retain(|s| s.validate().is_ok());
        specs.dedup();
        let shapes: Vec<(usize, usize)> = specs
            .iter()
            .filter(|s| s.generator == Generator::Symmetric)
            .map(|s| (s.n, s.rho))
            .collect();
        assert_eq!(
            shapes,
            [(8, 2), (8, 4), (12, 2), (12, 6), (32, 2), (32, 16), (64, 4), (64, 32)]
        );
        for spec in &specs {
            let spec = CanonicalSpec { trials: 32, ..spec.clone() };
            for i in 0..spec.trials {
                if let Err(e) = spec.trial_spec(i).build_world() {
                    panic!("{spec:?} trial {i}: {e}");
                }
            }
        }
    }
}
