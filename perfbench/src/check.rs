//! Output checks, run outside the timed phase: bit-exact release
//! comparison and the ε-ledger model.

use privid::query::exec::ReleaseValue;
use privid::QueryResult;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// A canonical rendering of a result in which every `f64` appears as its
/// bit pattern, so two results render equal iff they are equal bit for bit
/// (unlike `PartialEq`, which equates `0.0` with `-0.0`).
pub fn fingerprint(result: &QueryResult) -> String {
    let mut out = format!(
        "eps={:016x};chunks={};",
        result.epsilon_spent.to_bits(),
        result.chunks_processed
    );
    for r in &result.releases {
        let _ = write!(out, "[{}|{:?}|", r.label, r.group_key);
        match r.value.as_number() {
            Some(n) => {
                let _ = write!(out, "n{:016x}", n.to_bits());
            }
            None => {
                let _ = write!(out, "{:?}", r.value);
            }
        }
        match &r.raw {
            ReleaseValue::Number(n) => {
                let _ = write!(out, "|raw{:016x}", n.to_bits());
            }
            ReleaseValue::Candidates(cands) => {
                for (k, v) in cands {
                    let _ = write!(out, "|{k}={:016x}", v.to_bits());
                }
            }
        }
        let _ = write!(
            out,
            "|{:016x}|{:016x}|{:016x}]",
            r.sensitivity.to_bits(),
            r.noise_scale.to_bits(),
            r.epsilon.to_bits()
        );
    }
    out
}

/// The expected ledger: every camera starts each 1 s slot at `initial` ε,
/// and each succeeded admission debits its ε from the slots of its window
/// (`floor(begin)` to `ceil(end)`, the ledger's slot rule).
#[derive(Debug, Default)]
pub struct LedgerModel {
    debits: BTreeMap<String, Vec<(u64, u64, f64)>>,
}

impl LedgerModel {
    /// Record one succeeded admission of `epsilon` over `[begin, end)`.
    pub fn debit(&mut self, camera: &str, begin: f64, end: f64, epsilon: f64) {
        let lo = begin.floor().max(0.0) as u64;
        let hi = (end.ceil() as u64).max(lo + 1);
        self.debits
            .entry(camera.to_string())
            .or_default()
            .push((lo, hi, epsilon));
    }

    /// The expected remaining ε of `camera` at `slot`.
    pub fn remaining(&self, camera: &str, slot: u64, initial: f64) -> f64 {
        let spent: f64 = self
            .debits
            .get(camera)
            .map(|d| {
                d.iter()
                    .filter(|(lo, hi, _)| *lo <= slot && slot < *hi)
                    .map(|(_, _, e)| e)
                    .sum()
            })
            .unwrap_or(0.0);
        initial - spent
    }
}

/// Collects check failures; a run with any failure exits non-zero.
#[derive(Debug, Default)]
pub struct Checks {
    /// Checks made.
    pub made: u64,
    /// Human-readable failures.
    pub failures: Vec<String>,
}

impl Checks {
    /// Record one check.
    pub fn expect(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.made += 1;
        if !ok {
            self.failures.push(what());
        }
    }

    /// Compare two results bit for bit.
    pub fn same_bits(&mut self, what: &str, got: &QueryResult, want: &QueryResult) {
        let (g, w) = (fingerprint(got), fingerprint(want));
        self.expect(g == w, || {
            format!("{what}: release differs\n  got  {g}\n  want {w}")
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use privid::{NoisyRelease, NoisyValue};

    fn result(value: f64) -> QueryResult {
        QueryResult {
            releases: vec![NoisyRelease {
                label: "COUNT(*)".into(),
                group_key: None,
                value: NoisyValue::Number(value),
                raw: ReleaseValue::Number(3.0),
                sensitivity: 1.0,
                noise_scale: 2.0,
                epsilon: 0.5,
            }],
            epsilon_spent: 0.5,
            chunks_processed: 3,
        }
    }

    #[test]
    fn fingerprints_distinguish_signed_zeros() {
        assert_eq!(fingerprint(&result(1.5)), fingerprint(&result(1.5)));
        assert_ne!(fingerprint(&result(0.0)), fingerprint(&result(-0.0)));
    }

    #[test]
    fn ledger_model_debits_covered_slots_only() {
        let mut m = LedgerModel::default();
        m.debit("a", 10.0, 20.0, 0.25);
        m.debit("a", 15.5, 30.0, 0.5);
        assert_eq!(m.remaining("a", 9, 4.0), 4.0);
        assert_eq!(m.remaining("a", 10, 4.0), 3.75);
        assert_eq!(m.remaining("a", 15, 4.0), 3.25);
        assert_eq!(m.remaining("a", 29, 4.0), 3.5);
        assert_eq!(m.remaining("b", 15, 4.0), 4.0);
    }
}
