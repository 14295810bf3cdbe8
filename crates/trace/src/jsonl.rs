//! JSONL serialization of trace events, and its parser.
//!
//! One event per line, a flat JSON object whose `"ev"` key names the
//! variant. The writer is hand-rolled: it is the tracing hot path, and its
//! fixed member order (`"ev"` first) is what every trace digest hashes. The
//! parser reads each line through the workspace's one JSON codec
//! ([`crate::json`]). Floats are printed with Rust's shortest round-trip
//! `{}` formatting, so a parsed trace is bit-identical to the emitted one.

use crate::event::{PhaseKind, TraceEvent};
use crate::json::{self, Json};
use std::fmt::Write as _;

/// Serializes one event as a single JSON line (no trailing newline).
pub fn to_json_line(ev: &TraceEvent) -> String {
    let mut s = String::with_capacity(96);
    write_json_line(ev, &mut s);
    s
}

/// Serializes one event into `out` (no trailing newline). The buffer is
/// cleared first, so sinks can reuse one allocation for the whole stream.
pub fn write_json_line(ev: &TraceEvent, out: &mut String) {
    out.clear();
    match *ev {
        TraceEvent::TrialStart { robots, seed } => {
            let _ = write!(out, "{{\"ev\":\"trial_start\",\"robots\":{robots},\"seed\":{seed}}}");
        }
        TraceEvent::StepBegin { step, looks, moves } => {
            let _ = write!(
                out,
                "{{\"ev\":\"step\",\"step\":{step},\"looks\":{looks},\"moves\":{moves}}}"
            );
        }
        TraceEvent::Look { step, robot } => {
            let _ = write!(out, "{{\"ev\":\"look\",\"step\":{step},\"robot\":{robot}}}");
        }
        TraceEvent::CoinFlip { step, robot, heads } => {
            let _ = write!(
                out,
                "{{\"ev\":\"coin\",\"step\":{step},\"robot\":{robot},\"heads\":{heads}}}"
            );
        }
        TraceEvent::RandomWord { step, robot, bits } => {
            let _ = write!(
                out,
                "{{\"ev\":\"word\",\"step\":{step},\"robot\":{robot},\"bits\":{bits}}}"
            );
        }
        TraceEvent::Decide { step, robot, phase, moved, path_len } => {
            let _ = write!(
                out,
                "{{\"ev\":\"decide\",\"step\":{step},\"robot\":{robot},\"phase\":\"{}\",\"moved\":{moved},\"path_len\":{}}}",
                phase.label(),
                JsonF64(path_len)
            );
        }
        TraceEvent::PhaseChange { step, robot, from, to } => {
            let _ = write!(
                out,
                "{{\"ev\":\"phase\",\"step\":{step},\"robot\":{robot},\"from\":\"{}\",\"to\":\"{}\"}}",
                from.label(),
                to.label()
            );
        }
        TraceEvent::MoveSlice { step, robot, advanced, traveled, length, end_phase, arrived } => {
            let _ = write!(
                out,
                "{{\"ev\":\"move\",\"step\":{step},\"robot\":{robot},\"advanced\":{},\"traveled\":{},\"length\":{},\"end_phase\":{end_phase},\"arrived\":{arrived}}}",
                JsonF64(advanced),
                JsonF64(traveled),
                JsonF64(length)
            );
        }
        TraceEvent::Interrupt { step, robot, traveled, length } => {
            let _ = write!(
                out,
                "{{\"ev\":\"interrupt\",\"step\":{step},\"robot\":{robot},\"traveled\":{},\"length\":{}}}",
                JsonF64(traveled),
                JsonF64(length)
            );
        }
        TraceEvent::Formed { step } => {
            let _ = write!(out, "{{\"ev\":\"formed\",\"step\":{step}}}");
        }
        TraceEvent::TrialEnd { step, formed, cycles, bits } => {
            let _ = write!(
                out,
                "{{\"ev\":\"trial_end\",\"step\":{step},\"formed\":{formed},\"cycles\":{cycles},\"bits\":{bits}}}"
            );
        }
    }
}

/// A float field, written straight into the line buffer (no allocation).
/// Finite floats print with round-trip precision; NaN/inf (not valid JSON)
/// become `null` and parse back as an error — a trace must not contain them.
struct JsonF64(f64);

impl std::fmt::Display for JsonF64 {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.0.is_finite() {
            write!(f, "{}", self.0)
        } else {
            f.write_str("null")
        }
    }
}

/// Why a line failed to parse.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// Human-readable explanation.
    pub message: String,
}

impl ParseError {
    fn new(message: impl Into<String>) -> Self {
        ParseError { message: message.into() }
    }
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "malformed trace line: {}", self.message)
    }
}

impl std::error::Error for ParseError {}

/// Typed member access on one parsed trace line.
struct Fields(Json);

impl Fields {
    fn read<'a, T>(
        &'a self,
        key: &str,
        what: &str,
        convert: impl FnOnce(&'a Json) -> Option<T>,
    ) -> Result<T, ParseError> {
        let v = self.0.get(key).ok_or_else(|| ParseError::new(format!("missing key {key:?}")))?;
        convert(v)
            .ok_or_else(|| ParseError::new(format!("key {key:?} is not a {what}: {}", v.render())))
    }

    fn str(&self, key: &str) -> Result<&str, ParseError> {
        self.read(key, "string", Json::as_str)
    }

    fn u64(&self, key: &str) -> Result<u64, ParseError> {
        self.read(key, "u64", Json::as_u64)
    }

    fn u32(&self, key: &str) -> Result<u32, ParseError> {
        self.read(key, "u32", |v| v.as_u64().and_then(|x| u32::try_from(x).ok()))
    }

    fn f64(&self, key: &str) -> Result<f64, ParseError> {
        self.read(key, "finite f64", |v| v.as_f64().filter(|x| x.is_finite()))
    }

    fn bool(&self, key: &str) -> Result<bool, ParseError> {
        self.read(key, "bool", |v| match v {
            Json::Bool(b) => Some(*b),
            _ => None,
        })
    }

    fn phase(&self, key: &str) -> Result<PhaseKind, ParseError> {
        let label = self.str(key)?;
        PhaseKind::from_label(label)
            .ok_or_else(|| ParseError::new(format!("unknown phase label {label:?}")))
    }
}

/// Parses one JSONL line back into a [`TraceEvent`].
///
/// # Errors
///
/// Returns [`ParseError`] on anything that [`write_json_line`] would not
/// emit — the inspector treats that as a corrupted trace.
pub fn parse_line(line: &str) -> Result<TraceEvent, ParseError> {
    let f = Fields(json::parse(line).map_err(|e| ParseError::new(e.to_string()))?);
    match f.str("ev")? {
        "trial_start" => {
            Ok(TraceEvent::TrialStart { robots: f.u32("robots")?, seed: f.u64("seed")? })
        }
        "step" => Ok(TraceEvent::StepBegin {
            step: f.u64("step")?,
            looks: f.u32("looks")?,
            moves: f.u32("moves")?,
        }),
        "look" => Ok(TraceEvent::Look { step: f.u64("step")?, robot: f.u32("robot")? }),
        "coin" => Ok(TraceEvent::CoinFlip {
            step: f.u64("step")?,
            robot: f.u32("robot")?,
            heads: f.bool("heads")?,
        }),
        "word" => Ok(TraceEvent::RandomWord {
            step: f.u64("step")?,
            robot: f.u32("robot")?,
            bits: f.u32("bits")?,
        }),
        "decide" => Ok(TraceEvent::Decide {
            step: f.u64("step")?,
            robot: f.u32("robot")?,
            phase: f.phase("phase")?,
            moved: f.bool("moved")?,
            path_len: f.f64("path_len")?,
        }),
        "phase" => Ok(TraceEvent::PhaseChange {
            step: f.u64("step")?,
            robot: f.u32("robot")?,
            from: f.phase("from")?,
            to: f.phase("to")?,
        }),
        "move" => Ok(TraceEvent::MoveSlice {
            step: f.u64("step")?,
            robot: f.u32("robot")?,
            advanced: f.f64("advanced")?,
            traveled: f.f64("traveled")?,
            length: f.f64("length")?,
            end_phase: f.bool("end_phase")?,
            arrived: f.bool("arrived")?,
        }),
        "interrupt" => Ok(TraceEvent::Interrupt {
            step: f.u64("step")?,
            robot: f.u32("robot")?,
            traveled: f.f64("traveled")?,
            length: f.f64("length")?,
        }),
        "formed" => Ok(TraceEvent::Formed { step: f.u64("step")? }),
        "trial_end" => Ok(TraceEvent::TrialEnd {
            step: f.u64("step")?,
            formed: f.bool("formed")?,
            cycles: f.u64("cycles")?,
            bits: f.u64("bits")?,
        }),
        other => Err(ParseError::new(format!("unknown event kind {other:?}"))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn samples() -> Vec<TraceEvent> {
        vec![
            TraceEvent::TrialStart { robots: 8, seed: u64::MAX },
            TraceEvent::StepBegin { step: 1, looks: 8, moves: 0 },
            TraceEvent::Look { step: 1, robot: 0 },
            TraceEvent::CoinFlip { step: 1, robot: 0, heads: true },
            TraceEvent::RandomWord { step: 2, robot: 7, bits: 64 },
            TraceEvent::Decide {
                step: 1,
                robot: 0,
                phase: PhaseKind::RsbElection,
                moved: true,
                path_len: 0.12345678901234567,
            },
            TraceEvent::PhaseChange {
                step: 3,
                robot: 2,
                from: PhaseKind::RsbShift,
                to: PhaseKind::DpfFrame,
            },
            TraceEvent::MoveSlice {
                step: 4,
                robot: 1,
                advanced: 1e-3,
                traveled: 0.25,
                length: 1.5,
                end_phase: true,
                arrived: false,
            },
            TraceEvent::Interrupt { step: 4, robot: 1, traveled: 0.25, length: 1.5 },
            TraceEvent::Formed { step: 9 },
            TraceEvent::TrialEnd { step: 10, formed: true, cycles: 42, bits: 7 },
        ]
    }

    #[test]
    fn round_trips_bit_identically() {
        for ev in samples() {
            let line = to_json_line(&ev);
            let back = parse_line(&line).unwrap_or_else(|e| panic!("{line}: {e}"));
            assert_eq!(back, ev, "line: {line}");
            // Serializing the parsed event reproduces the exact line.
            assert_eq!(to_json_line(&back), line);
        }
    }

    #[test]
    fn lines_are_single_line_json_objects() {
        for ev in samples() {
            let line = to_json_line(&ev);
            assert!(line.starts_with('{') && line.ends_with('}'));
            assert!(!line.contains('\n'));
        }
    }

    #[test]
    fn malformed_lines_are_rejected() {
        for bad in [
            "",
            "not json",
            "{}",
            "{\"ev\":\"nope\",\"step\":1}",
            "{\"ev\":\"look\",\"step\":1}",                    // missing robot
            "{\"ev\":\"look\",\"step\":-1,\"robot\":0}",       // negative step
            "{\"ev\":\"look\",\"step\":1,\"robot\":\"zero\"}", // wrong type
            "{\"ev\":\"decide\",\"step\":1,\"robot\":0,\"phase\":\"bogus\",\"moved\":true,\"path_len\":0}",
            "{\"ev\":\"formed\",\"step\":1",                   // unterminated
            "{\"ev\":\"move\",\"step\":1,\"robot\":0,\"advanced\":null,\"traveled\":0,\"length\":1,\"end_phase\":false,\"arrived\":false}",
        ] {
            assert!(parse_line(bad).is_err(), "accepted: {bad}");
        }
    }

    #[test]
    fn parser_tolerates_whitespace() {
        let line = "{ \"ev\": \"look\", \"step\": 3, \"robot\": 2 }";
        assert_eq!(parse_line(line).unwrap(), TraceEvent::Look { step: 3, robot: 2 });
    }
}
