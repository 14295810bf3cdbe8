//! Property tests for the wire formats the content-addressed cache and the
//! coordinator's bitwise merge depend on.
//!
//! Two load-bearing claims are checked here under adversarial inputs:
//!
//! 1. **Content-address stability** — `CanonicalSpec::canonical_json` is a
//!    pure function of the spec's *values*: submitting the same values in
//!    any field order (and with arbitrary inter-token whitespace) parses to
//!    a spec whose canonical form is byte-identical, so the FNV digest the
//!    result cache keys on cannot be perturbed by serialization choices.
//! 2. **Bitwise float round-trips** — every `f64` that crosses the wire
//!    (`JobOutcome` aggregates, per-trial `distance`, `SoakOutcome`
//!    wall-clock) survives render → parse with `to_bits` equality, even for
//!    adversarial values: `-0.0`, subnormals, and values needing the full
//!    17 significant digits. The coordinator's shard merge and the cache
//!    verifier both compare these bit for bit.

use apf_bench::spec::{scheduler_from_label, CanonicalSpec, Generator};
use apf_bench::RunResult;
use apf_serve::json::{self, Json};
use apf_serve::{JobOutcome, JobSpec, SoakOutcome};
use apf_trace::PhaseKind;
use proptest::prelude::*;

/// Finite `f64`s biased toward the adversarial corners: signed zeros,
/// subnormals (including the smallest positive value `5e-324`), values
/// whose shortest decimal form needs the full 17 significant digits, and
/// uniformly random bit patterns (non-finite patterns fall back to a fixed
/// 17-digit stress value rather than rejecting the whole draw).
fn adversarial_f64() -> impl Strategy<Value = f64> {
    (0u8..8, any::<u64>()).prop_map(|(which, bits)| match which {
        0 => 0.0,
        1 => -0.0,
        // Subnormal: zero exponent field, random non-zero mantissa.
        2 => f64::from_bits((bits % ((1 << 52) - 1)) + 1),
        3 => -f64::from_bits((bits % ((1 << 52) - 1)) + 1),
        4 => 5e-324,
        // 0.1 + 0.2: the classic shortest-repr 17-digit stress value.
        5 => 0.300_000_000_000_000_04,
        6 => f64::MAX,
        _ => {
            let x = f64::from_bits(bits);
            if x.is_finite() {
                x
            } else {
                2.225_073_858_507_201e-308
            }
        }
    })
}

/// A spec whose values satisfy `CanonicalSpec::validate` (n ≥ 7, rho ≥ 2
/// dividing n for the symmetric generator), kept small so the validation
/// pass that builds every trial's world stays cheap.
fn valid_spec() -> impl Strategy<Value = CanonicalSpec> {
    const CHARSET: &[u8] = b"abcXYZ059 _-\"\\/";
    // rho < n throughout: one orbit of n equally spaced points (rho = n)
    // is a regular n-gon, which always has an axis of symmetry, and the
    // symmetric generator rejects axially symmetric configurations.
    const SHAPES: [(usize, usize); 4] = [(8, 2), (8, 4), (9, 3), (12, 4)];
    const SCHEDULERS: [&str; 4] = ["fsync", "ssync", "async", "round_robin"];
    (
        proptest::collection::vec(0usize..CHARSET.len(), 1..=24),
        any::<u64>(),
        1u64..=3,
        (0usize..SHAPES.len(), 0usize..SCHEDULERS.len(), 0u8..2),
        1u64..=2_000_000,
    )
        .prop_map(|(name_idx, seed, trials, (shape, sched, gen), budget)| {
            let (n, rho) = SHAPES[shape];
            CanonicalSpec {
                name: name_idx.iter().map(|&i| CHARSET[i] as char).collect(),
                seed,
                trials,
                n,
                rho,
                generator: if gen == 0 { Generator::Symmetric } else { Generator::Asymmetric },
                scheduler: scheduler_from_label(SCHEDULERS[sched])
                    .expect("label table matches the parser"),
                budget,
            }
        })
}

/// A permutation of `0..n` derived from `seed` (Fisher–Yates with a
/// splitmix-style step; the vendored proptest has no `prop_shuffle`).
fn permutation(n: usize, mut seed: u64) -> Vec<usize> {
    let mut order: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        seed = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(0xD1B5_4A32_D192_ED03);
        let j = (seed >> 33) as usize % (i + 1);
        order.swap(i, j);
    }
    order
}

/// Renders `spec` as a submission body with the given field order and
/// per-boundary whitespace — the degrees of freedom a client has that must
/// NOT affect the canonical form.
fn render_submission(spec: &CanonicalSpec, order: &[usize], pad: &str) -> String {
    let scheduler = apf_bench::spec::scheduler_label(spec.scheduler);
    let fields: [(&str, String); 8] = [
        ("name", Json::str(&spec.name).render()),
        ("seed", spec.seed.to_string()),
        ("trials", spec.trials.to_string()),
        ("n", spec.n.to_string()),
        ("rho", spec.rho.to_string()),
        ("generator", format!("\"{}\"", spec.generator.label())),
        ("scheduler", format!("\"{scheduler}\"")),
        ("budget", spec.budget.to_string()),
    ];
    let mut out = String::from("{");
    for (k, &i) in order.iter().enumerate() {
        if k > 0 {
            out.push(',');
        }
        let (key, value) = &fields[i];
        out.push_str(pad);
        out.push('"');
        out.push_str(key);
        out.push_str("\":");
        out.push_str(pad);
        out.push_str(value);
    }
    out.push_str(pad);
    out.push('}');
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn float_fields_round_trip_bitwise(x in adversarial_f64()) {
        let body = Json::obj([("x", Json::f64(x))]).render();
        let v = json::parse(&body).expect("rendered JSON parses");
        let back = v.get("x").and_then(Json::as_f64).expect("x is a number");
        prop_assert_eq!(
            back.to_bits(),
            x.to_bits(),
            "float {} re-read as {} ({})",
            x,
            back,
            body
        );
    }

    #[test]
    fn job_outcome_round_trips_bitwise(
        aggregates in (
            adversarial_f64(),
            adversarial_f64(),
            adversarial_f64(),
            adversarial_f64(),
            adversarial_f64(),
            adversarial_f64(),
        ),
        distance in adversarial_f64(),
        wall in adversarial_f64(),
        digests in proptest::collection::vec(any::<u64>(), 0..4),
        cached in 0u8..2,
    ) {
        let (success, mean_cycles, median_cycles, p95_cycles, mean_bits, bits_per_cycle) =
            aggregates;
        let outcome = JobOutcome {
            trials: 3,
            requested: 4,
            formed: 2,
            success,
            mean_cycles,
            median_cycles,
            p95_cycles,
            mean_bits,
            bits_per_cycle,
            digests,
            wall_secs: wall,
            detail: Some(vec![RunResult {
                formed: true,
                steps: 11,
                cycles: 7,
                bits: 3,
                distance,
                phase_cycles: [1; PhaseKind::COUNT],
                phase_bits: [0; PhaseKind::COUNT],
            }]),
            cached: cached == 1,
        };
        let v = json::parse(&outcome.to_json().render()).expect("rendered JSON parses");
        let back = JobOutcome::from_json(&v).expect("outcome parses back");
        prop_assert_eq!(back.success.to_bits(), success.to_bits());
        prop_assert_eq!(back.mean_cycles.to_bits(), mean_cycles.to_bits());
        prop_assert_eq!(back.median_cycles.to_bits(), median_cycles.to_bits());
        prop_assert_eq!(back.p95_cycles.to_bits(), p95_cycles.to_bits());
        prop_assert_eq!(back.mean_bits.to_bits(), mean_bits.to_bits());
        prop_assert_eq!(back.bits_per_cycle.to_bits(), bits_per_cycle.to_bits());
        prop_assert_eq!(back.wall_secs.to_bits(), wall.to_bits());
        let detail = back.detail.as_ref().expect("detail survives");
        prop_assert_eq!(detail[0].distance.to_bits(), distance.to_bits());
        prop_assert_eq!(&back.digests, &outcome.digests);
        prop_assert_eq!((back.trials, back.requested, back.formed), (3, 4, 2));
        prop_assert_eq!(back.cached, cached == 1);
    }

    #[test]
    fn soak_outcome_wall_clock_round_trips_bitwise(wall in adversarial_f64()) {
        let outcome = SoakOutcome {
            cases: 9,
            clean: 8,
            violations: 1,
            shrink_steps: 40,
            wall_secs: wall,
        };
        let v = json::parse(&outcome.to_json().render()).expect("rendered JSON parses");
        let back = SoakOutcome::from_json(&v).expect("outcome parses back");
        prop_assert_eq!(back.wall_secs.to_bits(), wall.to_bits());
        prop_assert_eq!(
            (back.cases, back.clean, back.violations, back.shrink_steps),
            (9, 8, 1, 40)
        );
    }

    #[test]
    fn canonical_form_ignores_field_order_and_whitespace(
        spec in valid_spec(),
        order_seed in any::<u64>(),
        pad_pick in 0usize..3,
    ) {
        let order = permutation(8, order_seed);
        let pad = ["", " ", "\n\t "][pad_pick];
        let body = render_submission(&spec, &order, pad);
        let parsed = JobSpec::from_json_bytes(body.as_bytes())
            .unwrap_or_else(|e| panic!("valid spec rejected: {e}\n{body}"));
        prop_assert_eq!(parsed.canonical.canonical_json(), spec.canonical_json());
        prop_assert_eq!(parsed.canonical.digest(), spec.digest());
        prop_assert!(parsed.cacheable());

        // Idempotence: the canonical form re-parses to itself byte for byte.
        let again = JobSpec::from_json_bytes(spec.canonical_json().as_bytes())
            .expect("canonical form parses");
        prop_assert_eq!(again.canonical.canonical_json(), spec.canonical_json());
    }
}
