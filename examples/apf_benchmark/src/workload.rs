//! The four workloads, their sizes, and the seeded input generators.
//!
//! Every input the program under test sees is generated here from the
//! `--seed` argument: direct workloads get [`Campaign`]s of [`RunSpec`]s,
//! served workloads get [`CanonicalSpec`]s (the service's wire format).

use apf_bench::engine::{trial_seed, Campaign, RunSpec};
use apf_bench::spec::{CanonicalSpec, Generator};
use apf_scheduler::SchedulerKind;
use SchedulerKind::{Fsync, RoundRobin as Rr, Ssync};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Symmetric starts on the direct engine: ψ_RSB election and
    /// shifted-set matching dominate.
    DirectElection,
    /// Asymmetric starts on the direct engine: no election; views, SEC and
    /// ψ_DPF dominate. The bypass workload for shifted-set changes.
    DirectFormation,
    /// One in-process server with a cache, two closed-loop clients, every
    /// third submission a repeat.
    ServedMixed,
    /// An in-process coordinator over two in-process backends, one client.
    ServedSharded,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::DirectElection,
        Workload::DirectFormation,
        Workload::ServedMixed,
        Workload::ServedSharded,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::DirectElection => "direct-election",
            Workload::DirectFormation => "direct-formation",
            Workload::ServedMixed => "served-mixed",
            Workload::ServedSharded => "served-sharded",
        }
    }

    pub fn from_name(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }

    pub fn is_served(self) -> bool {
        matches!(self, Workload::ServedMixed | Workload::ServedSharded)
    }
}

/// How much work one run does.
#[derive(Debug, Clone, Copy)]
pub struct Scale {
    /// Length of the timed window (halved in a traced run, which spends the
    /// other half on the attribution pass).
    pub seconds: f64,
    /// Jobs every run completes whatever the clock says (per client for
    /// served workloads). Their digests make up `output_digest`, so it is
    /// identical for every run of one seed.
    pub min_jobs: usize,
    /// Jobs the traced attribution pass re-runs, untraced and traced.
    pub attrib_jobs: usize,
    /// Inputs generated and validated during set-up (per client for served
    /// workloads); a run that outlasts the pool repeats it.
    pub pool: usize,
    /// Set-up repetitions; `setup_s` is their median.
    pub setup_reps: usize,
    /// Segments of the window, with a host probe between each two.
    pub segments: usize,
}

impl Scale {
    pub fn full(w: Workload, seconds: f64) -> Scale {
        let (min_jobs, attrib_jobs, pool) = match w {
            Workload::DirectElection => (16, 8, 256),
            Workload::DirectFormation => (16, 8, 256),
            Workload::ServedMixed => (24, 32, 256),
            Workload::ServedSharded => (16, 16, 256),
        };
        Scale { seconds, min_jobs, attrib_jobs, pool, setup_reps: 9, segments: 5 }
    }

    /// About 1/20 of a full run, for `--smoke`. `served-mixed` clients
    /// still make three submissions (they stop on a multiple of three), one
    /// of them a cache repeat.
    pub fn smoke() -> Scale {
        Scale { seconds: 0.5, min_jobs: 1, attrib_jobs: 1, pool: 8, setup_reps: 1, segments: 1 }
    }
}

/// Engine worker threads for direct runs and re-runs. The reference box has
/// two cores, and the load generator stays within them.
pub const ENGINE_WORKERS: usize = 2;

/// Step budget of every trial. The direct-election shapes formed in every
/// one of 3,500 probe trials, within 3,800 steps (12 robots) or 1,500 (the
/// rest); the budget only bounds what a start that never forms would cost.
const BUDGET: u64 = 5_000;

/// Salts that keep the seed-derived streams apart.
const GEOMETRY_SALT: u64 = 0x6765_6f6d;
const SPEC_SALT: u64 = 0x7370_6563;
pub const REPEAT_SALT: u64 = 0x7265_7065;

/// One trial's shape: robots, symmetricity (1 = asymmetric start),
/// scheduler.
type Shape = (usize, usize, SchedulerKind);

/// The trials of every direct job, largest first so the two workers end
/// close together. Elections: symmetric starts under round-robin. A
/// 12-robot ρ=3 start is left out: now and then one runs to the step
/// budget at about twenty times a normal trial's cost, and a seed whose
/// jobs hold one reads about a sixth slower. Formation: asymmetric starts
/// of 20 and 16 robots under SSYNC and FSYNC.
fn direct_shapes(w: Workload) -> [Shape; 4] {
    match w {
        Workload::DirectElection => [(12, 4, Rr), (12, 4, Rr), (9, 3, Rr), (8, 4, Rr)],
        _ => [(20, 1, Ssync), (16, 1, Ssync), (16, 1, Fsync), (16, 1, Fsync)],
    }
}

/// Direct job `k` of the seed's stream: a campaign of four trials.
pub fn direct_job(w: Workload, seed: u64, k: usize) -> Campaign {
    let mut c = Campaign::new(format!("{}-{k}", w.name()), trial_seed(seed, k as u64));
    for (i, (n, rho, kind)) in direct_shapes(w).into_iter().enumerate() {
        let g = trial_seed(seed ^ GEOMETRY_SALT, (k * 8 + i) as u64);
        let initial = if rho > 1 {
            apf_patterns::symmetric_configuration(n, rho, g)
        } else {
            apf_patterns::asymmetric_configuration(n, g)
        };
        let trial_seed = c.seed_for(i as u64);
        c.push(
            RunSpec::new(initial, apf_patterns::random_pattern(n, g.wrapping_add(1)))
                .scheduler(kind)
                .budget(BUDGET)
                .seed(trial_seed),
        );
    }
    c
}

/// New spec `j` of client `client` on a served workload.
///
/// `served-mixed` mixes three starts (symmetric ρ=4 or ρ=2, asymmetric)
/// with three schedulers over 2-trial jobs of 8 robots; `served-sharded`
/// submits 4-trial symmetric round-robin jobs that the coordinator splits
/// into one shard per trial.
pub fn served_spec(w: Workload, seed: u64, client: usize, j: usize) -> CanonicalSpec {
    let h = trial_seed(seed ^ SPEC_SALT, ((client as u64) << 32) | j as u64);
    let base = CanonicalSpec {
        name: format!("{}-c{client}-{j}", w.name()),
        seed: h,
        budget: BUDGET,
        n: 8,
        ..CanonicalSpec::default()
    };
    match w {
        Workload::ServedSharded => CanonicalSpec {
            trials: 4,
            rho: 4,
            generator: Generator::Symmetric,
            scheduler: Rr,
            ..base
        },
        _ => {
            // The nine start × scheduler classes take turns, so every
            // stretch of the window carries the same mix.
            let (generator, rho) = match j % 3 {
                0 => (Generator::Symmetric, 4),
                1 => (Generator::Symmetric, 2),
                _ => (Generator::Asymmetric, 4),
            };
            let scheduler = [Fsync, Ssync, Rr][j / 3 % 3];
            CanonicalSpec { trials: 2, rho, generator, scheduler, ..base }
        }
    }
}
