//! Seeded generation of randomized conformance instances.
//!
//! An [`Instance`] is the complete, self-contained input of one
//! differential-testing case: an `(n, f)` pair, a target set, a fault
//! mask, a registry strategy name, and optionally a [`FreeSchedule`]
//! lowered from (or perturbed around) the proportional seed. Every
//! field is derived deterministically from `(run_seed, index)` through
//! a SplitMix64 stream, so a case can be regenerated — and a persisted
//! counterexample replayed — from two integers.

use faultline_core::{Algorithm, FreeRobot, FreeSchedule, Params, ProportionalSchedule, Result};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

/// Generation knobs derived from the engine's budget tier: how finely
/// instances scan, not what they assert.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct GenCaps {
    /// Smallest supremum-scan grid an instance may draw.
    pub(crate) grid_lo: usize,
    /// Largest supremum-scan grid an instance may draw.
    pub(crate) grid_hi: usize,
    /// Number of random targets per instance.
    pub(crate) targets: usize,
    /// Largest explicit-turn count for generated free schedules.
    pub(crate) explicit_turns: usize,
}

/// One randomized differential-testing case, serializable so a
/// counterexample document can embed its exact input.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Instance {
    /// Position of this case in the run (also the generation stream).
    pub index: u64,
    /// The per-instance SplitMix64 stream seed (drives the simulator's
    /// coin streams too, so sim-involving oracles are replayable).
    pub(crate) seed: u64,
    /// Number of robots.
    pub(crate) n: usize,
    /// Fault tolerance.
    pub(crate) f: usize,
    /// Registry strategy name exercised by strategy-level oracles.
    pub(crate) strategy: String,
    /// Half-width of the supremum-scan window.
    pub(crate) xmax: f64,
    /// Log-grid points per side for supremum scans.
    pub(crate) grid_points: usize,
    /// Signed target positions, all with `|x| > 1`.
    pub targets: Vec<f64>,
    /// Faulty robot indices, at most `f` of them, strictly increasing.
    pub(crate) mask: Vec<usize>,
    /// A free schedule lowered from the proportional seed (sometimes
    /// perturbed); `None` in the two-group regime, which has no
    /// proportional schedule to lower.
    pub schedule: Option<FreeSchedule>,
    /// Lie rate for Byzantine-regime cases (`index % 5 == 3`): the
    /// masked robots become `Byzantine { lie_rate }` under the
    /// claim-quorum oracles. `None` for every other case; defaulted on
    /// deserialization so pre-Byzantine counterexample documents still
    /// load.
    #[serde(default)]
    pub(crate) lie_rate: Option<f64>,
    /// Per-visit detection probability for p-faulty cases
    /// (`index % 5 == 4`), driving the expected-CR oracles. `None`
    /// otherwise.
    #[serde(default)]
    pub(crate) detect_probability: Option<f64>,
    /// Per-robot speeds for heterogeneous-fleet cases
    /// (`index % 7 == 2`), in `[0.5, 2.0)`: exercised by the
    /// scenario-DSL oracles' generalized path. `None` otherwise;
    /// defaulted on deserialization so earlier counterexample
    /// documents still load.
    #[serde(default)]
    pub(crate) speeds: Option<Vec<f64>>,
    /// Per-robot activation delays for staggered-start cases
    /// (`index % 7 == 5`), in `[0, 2)`. `None` otherwise.
    #[serde(default)]
    pub(crate) activation_delays: Option<Vec<f64>>,
}

/// SplitMix64 finalizer: decorrelates per-instance streams drawn from
/// a single run seed (same construction as the optimizer's
/// per-`(seed, start, round)` streams).
fn stream_seed(seed: u64, index: u64) -> u64 {
    let mut z = seed ^ index.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl Instance {
    /// Deterministically generates case `index` of the run seeded by
    /// `run_seed`. Cycles through the three parameter regimes —
    /// single-robot reduction (`n = f + 1`), proportional with an open
    /// Theorem 1 / Theorem 2 gap, and two-group (`n >= 2f + 2`) — so
    /// every regime appears in any run of three or more cases.
    #[must_use]
    pub(crate) fn generate(run_seed: u64, index: u64, caps: &GenCaps) -> Instance {
        let seed = stream_seed(run_seed, index);
        let mut rng = StdRng::seed_from_u64(seed);
        let (n, f) = match index % 3 {
            0 => {
                let f = rng.random_range(1..=3usize);
                (f + 1, f)
            }
            1 => {
                let f = rng.random_range(1..=4usize);
                let lo = f + 2;
                let hi = (2 * f + 1).min(7).max(lo);
                (rng.random_range(lo..=hi), f)
            }
            _ => {
                let f = rng.random_range(1..=2usize);
                (2 * f + 2 + rng.random_range(0..=2usize), f)
            }
        };
        let xmax: f64 = rng.random_range(16.0..48.0);
        let grid_points = rng.random_range(caps.grid_lo..=caps.grid_hi);

        let registry = faultline_strategies::all_strategies();
        let strategy = registry[rng.random_range(0..registry.len())].name().to_owned();

        // Log-uniform magnitudes in (1, 0.9 * xmax], random signs.
        let hi = 0.9 * xmax;
        let mut targets = Vec::with_capacity(caps.targets);
        for _ in 0..caps.targets {
            let mag = (1.0 + 1e-6) * (hi / (1.0 + 1e-6)).powf(rng.random_range(0.0..1.0));
            let sign = if rng.random_bool(0.5) { 1.0 } else { -1.0 };
            targets.push(sign * mag);
        }
        targets.sort_by(f64::total_cmp);
        targets.dedup();

        // A uniformly random fault set of size 0..=f (partial
        // Fisher-Yates over the robot indices).
        let mask_size = rng.random_range(0..=f);
        let mut indices: Vec<usize> = (0..n).collect();
        for i in 0..mask_size {
            let j = rng.random_range(i..n);
            indices.swap(i, j);
        }
        indices.truncate(mask_size);
        indices.sort_unstable();

        let schedule = Params::new(n, f)
            .ok()
            .and_then(|params| Algorithm::design(params).ok())
            .and_then(|alg| {
                let proportional = alg.schedule()?;
                let explicit = rng.random_range(4..=caps.explicit_turns.max(4));
                let lowered = FreeSchedule::from_proportional(proportional, explicit).ok()?;
                if rng.random_bool(0.5) {
                    // Exact lowering: oracles can hold it to the
                    // closed-form Theorem 1 value.
                    Some(lowered)
                } else {
                    perturbed(proportional, explicit, &mut rng).or(Some(lowered))
                }
            });

        // Fault-regime add-ons draw last so every pre-existing field
        // of every pre-existing case is unchanged by their
        // introduction. Two of every five cases get a probabilistic
        // regime: Byzantine liars (the masked robots) or p-faulty
        // sensors.
        let (lie_rate, detect_probability) = match index % 5 {
            3 => (Some(0.25 + 0.75 * rng.random_range(0.0..1.0)), None),
            4 => (None, Some(rng.random_range(0.05..0.95))),
            _ => (None, None),
        };

        // Heterogeneous-fleet add-ons draw after (never between) all
        // earlier draws, preserving every pre-existing field of every
        // pre-existing case bit-for-bit.
        let speeds: Option<Vec<f64>> =
            (index % 7 == 2).then(|| (0..n).map(|_| rng.random_range(0.5..2.0)).collect());
        let activation_delays: Option<Vec<f64>> =
            (index % 7 == 5).then(|| (0..n).map(|_| rng.random_range(0.0..2.0)).collect());

        Instance {
            index,
            seed,
            n,
            f,
            strategy,
            xmax,
            grid_points,
            targets,
            mask: indices,
            schedule,
            lie_rate,
            detect_probability,
            speeds,
            activation_delays,
        }
    }

    /// The instance's `(n, f)` as validated [`Params`].
    ///
    /// # Errors
    ///
    /// Rejects hand-edited instances with `n <= f` or `n = 0`.
    pub(crate) fn params(&self) -> Result<Params> {
        Params::new(self.n, self.f)
    }

    /// The regime label used in the conformance matrix: the paper's
    /// two regimes, with the single-robot reduction `n = f + 1`
    /// (where `A(n, f)` degenerates to doubling) split out.
    #[must_use]
    pub fn regime_label(&self) -> &'static str {
        if self.n == self.f + 1 {
            "single-robot"
        } else if self.n >= 2 * self.f + 2 {
            "two-group"
        } else {
            "proportional"
        }
    }

    /// The largest target magnitude (at least 1).
    #[must_use]
    pub(crate) fn max_target(&self) -> f64 {
        self.targets.iter().fold(1.0f64, |m, x| m.max(x.abs()))
    }
}

/// Jitters the proportional lowering: each robot keeps its seed and
/// side, but the gap between consecutive explicit turns is raised to a
/// random power near 1 (floored away from 1 so the sequence stays
/// strictly increasing). Returns `None` when validation rejects the
/// perturbation, in which case the caller falls back to the exact
/// lowering.
fn perturbed(
    schedule: &ProportionalSchedule,
    explicit: usize,
    rng: &mut StdRng,
) -> Option<FreeSchedule> {
    let cone = schedule.cone();
    let mut robots = Vec::with_capacity(schedule.n());
    for i in 0..schedule.n() {
        let seed = schedule.seed_for_robot(i);
        let mut exact = Vec::with_capacity(explicit);
        let mut p = seed;
        exact.push(p.x.abs());
        for _ in 1..explicit {
            p = cone.next_turning_point(p);
            exact.push(p.x.abs());
        }
        let mut turns = Vec::with_capacity(explicit);
        let mut prev = exact[0] * (1.0 + 0.1 * (rng.random_range(0.0..1.0) - 0.5));
        turns.push(prev);
        for k in 1..explicit {
            let ratio = (exact[k] / exact[k - 1]).max(1.02);
            let exponent = 0.9 + 0.2 * rng.random_range(0.0..1.0);
            prev *= ratio.powf(exponent).max(1.02);
            turns.push(prev);
        }
        // Rescale the seed's arrival time with the first turn so the
        // unit-speed bound `first_turn_time >= turns[0]` is preserved.
        let first_turn_time = (seed.t * turns[0] / exact[0]).max(turns[0]);
        robots.push(FreeRobot::new(seed.x.signum(), turns, first_turn_time).ok()?);
    }
    FreeSchedule::new(robots).ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    const CAPS: GenCaps = GenCaps { grid_lo: 24, grid_hi: 48, targets: 4, explicit_turns: 6 };

    #[test]
    fn generation_is_deterministic_and_valid() {
        for index in 0..24u64 {
            let a = Instance::generate(7, index, &CAPS);
            let b = Instance::generate(7, index, &CAPS);
            assert_eq!(a, b, "case {index} must be a pure function of (seed, index)");
            let params = a.params().expect("generated (n, f) is valid");
            assert!(a.mask.len() <= params.f());
            assert!(a.mask.iter().all(|&i| i < params.n()));
            assert!(a.targets.iter().all(|x| x.abs() > 1.0 && x.abs() <= a.xmax));
            if let Some(schedule) = &a.schedule {
                // Deserializing re-runs every robot's invariants.
                let json = serde_json::to_string(schedule).expect("serialize");
                serde_json::from_str::<FreeSchedule>(&json).expect("generated schedules validate");
                assert_eq!(schedule.n(), a.n);
            }
        }
    }

    #[test]
    fn all_three_regimes_appear() {
        let labels: Vec<&str> =
            (0..6u64).map(|i| Instance::generate(1, i, &CAPS).regime_label()).collect();
        for want in ["single-robot", "proportional", "two-group"] {
            assert!(labels.contains(&want), "missing {want} in {labels:?}");
        }
    }

    #[test]
    fn probabilistic_regimes_cycle_with_valid_parameters() {
        let mut saw_byzantine = false;
        let mut saw_pfaulty = false;
        for index in 0..20u64 {
            let instance = Instance::generate(9, index, &CAPS);
            match index % 5 {
                3 => {
                    let rate = instance.lie_rate.expect("index % 5 == 3 draws a lie rate");
                    assert!((0.25..1.0).contains(&rate), "lie rate {rate} out of range");
                    assert_eq!(instance.detect_probability, None);
                    saw_byzantine = true;
                }
                4 => {
                    let p = instance.detect_probability.expect("index % 5 == 4 draws p");
                    assert!((0.05..0.95).contains(&p), "detect probability {p} out of range");
                    assert_eq!(instance.lie_rate, None);
                    saw_pfaulty = true;
                }
                _ => {
                    assert_eq!(instance.lie_rate, None);
                    assert_eq!(instance.detect_probability, None);
                }
            }
        }
        assert!(saw_byzantine && saw_pfaulty);
    }

    #[test]
    fn pre_byzantine_documents_still_deserialize() {
        let plain = Instance::generate(9, 0, &CAPS);
        let json = serde_json::to_string(&plain).unwrap();
        let back: Instance = serde_json::from_str(&json).unwrap();
        assert_eq!(plain, back, "new fields round-trip");
        // A document written before the probabilistic regimes existed
        // has neither field; `#[serde(default)]` fills in None.
        let stripped = json
            .replace("\"lie_rate\":null,", "")
            .replace("\"detect_probability\":null,", "")
            .replace(",\"lie_rate\":null", "")
            .replace(",\"detect_probability\":null", "");
        assert!(!stripped.contains("lie_rate") && !stripped.contains("detect_probability"));
        let legacy: Instance = serde_json::from_str(&stripped).unwrap();
        assert_eq!(plain, legacy);
    }

    #[test]
    fn different_seeds_give_different_cases() {
        let a = Instance::generate(1, 5, &CAPS);
        let b = Instance::generate(2, 5, &CAPS);
        assert_ne!(a, b);
    }

    #[test]
    fn heterogeneous_addons_cycle_with_valid_parameters() {
        let mut saw_speeds = false;
        let mut saw_delays = false;
        for index in 0..28u64 {
            let instance = Instance::generate(9, index, &CAPS);
            if index % 7 == 2 {
                let speeds = instance.speeds.as_ref().expect("index % 7 == 2 draws speeds");
                assert_eq!(speeds.len(), instance.n);
                assert!(speeds.iter().all(|s| (0.5..2.0).contains(s)));
                saw_speeds = true;
            } else {
                assert_eq!(instance.speeds, None);
            }
            if index % 7 == 5 {
                let delays = instance
                    .activation_delays
                    .as_ref()
                    .expect("index % 7 == 5 draws activation delays");
                assert_eq!(delays.len(), instance.n);
                assert!(delays.iter().all(|d| (0.0..2.0).contains(d)));
                saw_delays = true;
            } else {
                assert_eq!(instance.activation_delays, None);
            }
        }
        assert!(saw_speeds && saw_delays);
    }

    #[test]
    fn pre_heterogeneous_documents_still_deserialize() {
        let plain = Instance::generate(9, 1, &CAPS);
        let json = serde_json::to_string(&plain).unwrap();
        let stripped = json
            .replace("\"speeds\":null,", "")
            .replace(",\"speeds\":null", "")
            .replace("\"activation_delays\":null,", "")
            .replace(",\"activation_delays\":null", "");
        assert!(!stripped.contains("speeds") && !stripped.contains("activation_delays"));
        let legacy: Instance = serde_json::from_str(&stripped).unwrap();
        assert_eq!(plain, legacy);
    }
}
