//! Self-contained, replayable counterexample documents.
//!
//! When an oracle fails, the engine shrinks the instance (fewer
//! targets, smaller fault mask, no schedule, targets pulled toward the
//! origin) while the failure persists, shrinks any embedded simulator
//! trace with the PR-1 trace shrinker, and persists the result as a
//! JSON document that `faultline conformance replay <file>` reproduces
//! bit-for-bit. Expected/observed values are stored as `f64` bit
//! patterns so non-finite mismatches round-trip losslessly through
//! plain JSON.

use faultline_core::coverage::Fleet;
use faultline_core::{Error, Result};
use faultline_sim::RunTrace;
use serde::{Deserialize, Serialize};

use crate::instance::Instance;
use crate::oracles::{oracle_by_name, Mismatch, Oracle, Verdict, REL_TOL};

/// Document-format version; bump on incompatible schema changes.
pub(crate) const COUNTEREXAMPLE_VERSION: u32 = 1;

/// A persisted conformance failure: the shrunk instance, the violated
/// oracle, both sides of the relation (as exact bit patterns), and an
/// optional shrunk simulator trace.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Counterexample {
    /// Document-format version.
    pub(crate) version: u32,
    /// Name of the violated oracle.
    pub oracle: String,
    /// The run seed the instance was generated under.
    pub run_seed: u64,
    /// Whether the failure was produced by the test-only injected
    /// skew (replay re-applies it).
    pub injected: bool,
    /// The shrunk instance that still fails the oracle.
    pub instance: Instance,
    /// Bit pattern (`f64::to_bits`) of the expected side.
    pub(crate) expected_bits: u64,
    /// Bit pattern (`f64::to_bits`) of the observed side.
    pub(crate) observed_bits: u64,
    /// Human-readable description of the violated sub-check.
    pub detail: String,
    /// Shrunk simulator trace backing the failure, when the oracle ran
    /// the discrete-event engine.
    pub(crate) trace: Option<RunTrace>,
}

impl Counterexample {
    /// Shrinks `instance` against `oracle` and packages the final
    /// mismatch as a document.
    #[must_use]
    pub(crate) fn build(
        oracle: &Oracle,
        instance: &Instance,
        mismatch: &Mismatch,
        run_seed: u64,
        injected: bool,
    ) -> Counterexample {
        let shrunk = shrink_instance(oracle, instance, injected);
        // Re-check the shrunk instance so the stored mismatch matches
        // what replay will observe (shrinking may move the failure to
        // a different target or sub-check).
        let final_mismatch = match oracle.check(&shrunk, injected) {
            Verdict::Fail(m) => *m,
            // Unreachable by construction (shrinking only keeps
            // still-failing candidates), but degrade gracefully.
            _ => mismatch.clone(),
        };
        let trace = final_mismatch.trace.map(|t| shrink_trace(&shrunk, t));
        Counterexample {
            version: COUNTEREXAMPLE_VERSION,
            oracle: oracle.name.to_owned(),
            run_seed,
            injected,
            instance: shrunk,
            expected_bits: final_mismatch.expected.to_bits(),
            observed_bits: final_mismatch.observed.to_bits(),
            detail: final_mismatch.detail,
            trace,
        }
    }

    /// The expected side of the violated relation.
    #[must_use]
    pub fn expected(&self) -> f64 {
        f64::from_bits(self.expected_bits)
    }

    /// The observed side of the violated relation.
    #[must_use]
    pub fn observed(&self) -> f64 {
        f64::from_bits(self.observed_bits)
    }

    /// Re-runs the oracle on the embedded instance and confirms the
    /// failure reproduces bit-for-bit; also verifies any embedded
    /// trace against its recorded outcome.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Domain`] when the document version is
    /// unsupported, the oracle is unknown, the oracle no longer fails,
    /// the reproduced mismatch differs in any bit, or the embedded
    /// trace fails verification.
    pub fn replay(&self) -> Result<()> {
        if self.version != COUNTEREXAMPLE_VERSION {
            return Err(Error::domain(format!(
                "unsupported counterexample version {} (this build reads version {COUNTEREXAMPLE_VERSION})",
                self.version
            )));
        }
        let oracle = oracle_by_name(&self.oracle)
            .ok_or_else(|| Error::domain(format!("unknown oracle `{}`", self.oracle)))?;
        let mismatch = match oracle.check(&self.instance, self.injected) {
            Verdict::Fail(m) => *m,
            verdict => {
                return Err(Error::domain(format!(
                    "oracle `{}` no longer fails on the stored instance: {verdict:?}",
                    self.oracle
                )));
            }
        };
        if mismatch.expected.to_bits() != self.expected_bits
            || mismatch.observed.to_bits() != self.observed_bits
        {
            return Err(Error::domain(format!(
                "reproduced mismatch differs from the stored one: stored (expected {}, observed {}), reproduced (expected {}, observed {})",
                self.expected(),
                self.observed(),
                mismatch.expected,
                mismatch.observed,
            )));
        }
        if let Some(trace) = &self.trace {
            trace.verify()?;
        }
        Ok(())
    }

    /// Serializes the document to pretty-printed JSON.
    ///
    /// # Errors
    ///
    /// Propagates serializer failures as [`Error::Domain`].
    pub fn to_json(&self) -> Result<String> {
        serde_json::to_string_pretty(self)
            .map(|mut s| {
                s.push('\n');
                s
            })
            .map_err(|e| Error::domain(format!("counterexample serialization failed: {e}")))
    }

    /// Parses a document from JSON.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Domain`] describing the parse failure.
    pub fn from_json(text: &str) -> Result<Counterexample> {
        serde_json::from_str(text)
            .map_err(|e| Error::domain(format!("counterexample parse failed: {e}")))
    }
}

/// Greedy instance shrinking: each step keeps a candidate only if the
/// oracle still fails on it. Deterministic (no randomness), so replay
/// of the same run re-derives the same document.
fn shrink_instance(oracle: &Oracle, instance: &Instance, injected: bool) -> Instance {
    let still_failing = |cand: &Instance| oracle.check(cand, injected).is_fail();
    let mut best = instance.clone();

    // 1. A single target, preferring the earliest that still fails.
    if best.targets.len() > 1 {
        for &x in &instance.targets {
            let mut cand = best.clone();
            cand.targets = vec![x];
            if still_failing(&cand) {
                best = cand;
                break;
            }
        }
    }

    // 2. Drop the free schedule if the failure does not need it.
    if best.schedule.is_some() {
        let mut cand = best.clone();
        cand.schedule = None;
        if still_failing(&cand) {
            best = cand;
        }
    }

    // 3. Remove fault-mask entries to a fixed point.
    loop {
        let mut improved = false;
        for i in 0..best.mask.len() {
            let mut cand = best.clone();
            cand.mask.remove(i);
            if still_failing(&cand) {
                best = cand;
                improved = true;
                break;
            }
        }
        if !improved {
            break;
        }
    }

    // 4. Pull each target toward the unit magnitude while the failure
    // persists (halving the excess, bounded pass count).
    for _ in 0..16 {
        let mut improved = false;
        let targets = best.targets.clone();
        for (i, &x) in targets.iter().enumerate() {
            let excess = x.abs() - 1.0;
            if excess <= 1e-3 {
                continue;
            }
            let mut cand = best.clone();
            cand.targets[i] = x.signum() * (1.0 + excess / 2.0);
            if still_failing(&cand) {
                best = cand;
                improved = true;
            }
        }
        if !improved {
            break;
        }
    }

    best
}

/// Shrinks an embedded trace with the PR-1 shrinker. The predicate
/// re-derives the coverage bound from the candidate's own trajectories
/// (the shrinker halves the target's excess but leaves `bound` stale),
/// so a candidate is kept only if it genuinely still violates
/// adversary dominance.
fn shrink_trace(instance: &Instance, trace: RunTrace) -> RunTrace {
    let required = instance.f + 1;
    trace.shrunk(|cand| {
        let Ok(fleet) = Fleet::new(cand.trajectories.clone()) else {
            return false;
        };
        match (cand.outcome.detection.as_ref(), fleet.visit_time(cand.target, required)) {
            (None, _) | (_, None) => true,
            (Some(d), Some(bound)) => d.time > bound * (1.0 + REL_TOL),
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instance::GenCaps;
    use crate::oracles::all_oracles;

    const CAPS: GenCaps = GenCaps { grid_lo: 16, grid_hi: 24, targets: 3, explicit_turns: 4 };

    fn first_injected_failure() -> (&'static Oracle, Instance, Mismatch) {
        for oracle in all_oracles() {
            for index in 0..6u64 {
                let instance = Instance::generate(11, index, &CAPS);
                if let Verdict::Fail(m) = oracle.check(&instance, true) {
                    return (oracle, instance, *m);
                }
            }
        }
        panic!("no oracle failed under injection");
    }

    #[test]
    fn injected_failures_shrink_and_replay() {
        let (oracle, instance, mismatch) = first_injected_failure();
        let doc = Counterexample::build(oracle, &instance, &mismatch, 11, true);
        assert!(doc.instance.targets.len() <= instance.targets.len());
        assert!(doc.instance.mask.len() <= instance.mask.len());
        doc.replay().expect("shrunk counterexample replays bit-for-bit");
        let round_trip = Counterexample::from_json(&doc.to_json().unwrap()).unwrap();
        assert_eq!(round_trip, doc);
        round_trip.replay().expect("round-tripped counterexample replays");
    }

    #[test]
    fn replay_rejects_tampered_documents() {
        let (oracle, instance, mismatch) = first_injected_failure();
        let mut doc = Counterexample::build(oracle, &instance, &mismatch, 11, true);
        doc.observed_bits ^= 1;
        assert!(doc.replay().is_err(), "a flipped observed bit must fail replay");
        doc.observed_bits ^= 1;
        doc.version += 1;
        assert!(doc.replay().is_err(), "an unknown version must fail replay");
        doc.version -= 1;
        doc.injected = false;
        assert!(doc.replay().is_err(), "dropping the injection flag must fail replay");
    }
}
