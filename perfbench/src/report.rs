//! What one benchmark run reports: named metrics with units, an
//! attempted/failed ledger per phase, and the correctness mismatches it
//! found.

use std::collections::BTreeMap;
use std::fmt::Display;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

/// One named figure.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

/// Attempted and failed operations per phase. An operation fails when it
/// returns a typed error (a `Saturated` refusal included) or panics.
#[derive(Debug, Default)]
pub struct Ledger {
    phases: BTreeMap<&'static str, (u64, u64)>,
    errors: Vec<String>,
}

/// Error messages kept for the report; later ones are only counted.
const KEPT_ERRORS: usize = 8;

impl Ledger {
    /// Runs one operation of `phase`, counting it and its failure.
    pub fn op<T, E: Display>(
        &mut self,
        phase: &'static str,
        f: impl FnOnce() -> Result<T, E>,
    ) -> Option<T> {
        let entry = self.phases.entry(phase).or_insert((0, 0));
        entry.0 += 1;
        let message = match catch_unwind(AssertUnwindSafe(f)) {
            Ok(Ok(value)) => return Some(value),
            Ok(Err(e)) => format!("{phase}: {e}"),
            Err(panic) => {
                let what = panic
                    .downcast_ref::<String>()
                    .cloned()
                    .or_else(|| panic.downcast_ref::<&str>().map(|s| s.to_string()))
                    .unwrap_or_default();
                format!("{phase}: panicked: {what}")
            }
        };
        entry.1 += 1;
        if self.errors.len() < KEPT_ERRORS {
            self.errors.push(message);
        }
        None
    }

    /// [`Ledger::op`], also returning the operation's wall time.
    pub fn timed<T, E: Display>(
        &mut self,
        phase: &'static str,
        f: impl FnOnce() -> Result<T, E>,
    ) -> (Option<T>, Duration) {
        let start = Instant::now();
        let out = self.op(phase, f);
        (out, start.elapsed())
    }

    /// Operations attempted across all phases.
    pub fn attempted(&self) -> u64 {
        self.phases.values().map(|p| p.0).sum()
    }

    /// Operations failed across all phases.
    pub fn failed(&self) -> u64 {
        self.phases.values().map(|p| p.1).sum()
    }

    /// One `phase attempted failed` line per phase, then the kept errors.
    pub fn lines(&self) -> Vec<String> {
        let mut out: Vec<String> = self
            .phases
            .iter()
            .map(|(phase, (a, f))| {
                format!(
                    "phase {phase}: attempted {a}, failed {f} (failed_frac {:.4})",
                    *f as f64 / (*a).max(1) as f64
                )
            })
            .collect();
        out.extend(self.errors.iter().map(|e| format!("error {e}")));
        out
    }
}

/// Everything one run prints.
#[derive(Debug, Default)]
pub struct Report {
    pub ledger: Ledger,
    pub metrics: Vec<Metric>,
    /// Human-readable lines printed before the result line.
    pub notes: Vec<String>,
    pub mismatches: Vec<String>,
}

impl Report {
    pub fn metric(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push(Metric { name, value, unit });
    }

    pub fn note(&mut self, line: impl Into<String>) {
        self.notes.push(line.into());
    }

    /// Records a correctness mismatch when `ok` is false.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.mismatches.push(what());
        }
    }

    /// Whether every check held and no operation failed.
    pub fn correct(&self) -> bool {
        self.mismatches.is_empty() && self.ledger.failed() == 0
    }

    /// The result line: one JSON object with `correct`, `attempted`,
    /// `failed` and `metrics`.
    pub fn result_line(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name,
                    json_number(m.value),
                    m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.ledger.attempted().max(1),
            self.ledger.failed(),
            metrics.join(", ")
        )
    }
}

/// A finite number in JSON, with every digit Rust's shortest round-trip
/// formatting gives; non-finite values become `null`.
fn json_number(x: f64) -> String {
    if x.is_finite() {
        format!("{x:?}")
    } else {
        "null".into()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ledger_counts_errors_and_panics_per_phase() {
        let mut ledger = Ledger::default();
        assert_eq!(ledger.op("step", || Ok::<_, String>(1)), Some(1));
        assert_eq!(ledger.op("step", || Err::<u8, _>("boom")), None);
        let panicked = ledger.op("evaluate", || -> Result<u8, String> { panic!("bad") });
        assert_eq!(panicked, None);
        assert_eq!((ledger.attempted(), ledger.failed()), (3, 2));
        let lines = ledger.lines();
        assert!(lines[0].starts_with("phase evaluate: attempted 1, failed 1"));
        assert!(lines.iter().any(|l| l.contains("panicked: bad")));
    }

    #[test]
    fn result_line_is_one_json_object() {
        let mut r = Report::default();
        r.ledger.op("step", || Ok::<_, String>(()));
        r.metric("loop_s", 1.25, "s");
        r.metric("setup_s", 0.5, "s");
        assert_eq!(
            r.result_line(),
            "{\"correct\": true, \"attempted\": 1, \"failed\": 0, \"metrics\": \
             {\"loop_s\": {\"value\": 1.25, \"unit\": \"s\"}, \
             \"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}}}"
        );
        r.check(false, || "drifted".into());
        assert!(!r.correct());
        assert_eq!(json_number(f64::NAN), "null");
        assert_eq!(json_number(3.0), "3.0");
    }
}
