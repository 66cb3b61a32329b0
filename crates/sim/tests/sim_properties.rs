//! Property-based tests tying the simulator to the analytic machinery.

use faultline_core::coverage::Fleet;
use faultline_core::{Algorithm, Params, PiecewiseTrajectory};
use faultline_sim::{
    worst_case_outcome, FaultKind, FaultPlan, QuorumConfig, RunTrace, SimConfig, Simulation, Target,
};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn proportional_params() -> impl Strategy<Value = Params> {
    (1usize..10).prop_flat_map(|f| {
        ((f + 1)..(2 * f + 2)).prop_map(move |n| Params::new(n, f).expect("valid by range"))
    })
}

/// Proportional-regime pairs with n <= 5: small enough to enumerate
/// every fault mask exhaustively.
fn small_proportional_params() -> impl Strategy<Value = Params> {
    (1usize..5).prop_flat_map(|f| {
        ((f + 1)..(2 * f + 2).min(6)).prop_map(move |n| Params::new(n, f).expect("valid by range"))
    })
}

fn fault_kind() -> impl Strategy<Value = FaultKind> {
    prop_oneof![
        Just(FaultKind::Reliable),
        Just(FaultKind::Sensor),
        (0.0f64..1.0).prop_map(|p| FaultKind::Intermittent { miss_probability: p }),
        (0.0f64..4.0).prop_map(|l| FaultKind::Delayed { latency: l }),
        (0.25f64..1.0).prop_map(|s| FaultKind::SpeedDegraded { factor: s }),
        (0.0f64..1.0).prop_map(|r| FaultKind::Byzantine { lie_rate: r }),
        (0.0f64..1.0).prop_map(|p| FaultKind::PFaulty { detect_probability: p }),
    ]
}

fn materialize(alg: &Algorithm, xmax: f64) -> Vec<PiecewiseTrajectory> {
    let horizon = alg.required_horizon(xmax).unwrap();
    alg.plans().iter().map(|p| p.materialize(horizon).unwrap()).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The simulated worst-case detection time equals the analytic
    /// T_(f+1)(x) computed from coverage, for random targets on both
    /// sides: two completely independent code paths must agree.
    #[test]
    fn simulation_matches_coverage(
        params in proportional_params(),
        x in 1.0f64..20.0,
        negative in any::<bool>(),
    ) {
        let target_pos = if negative { -x } else { x };
        let alg = Algorithm::design(params).unwrap();
        let trajectories = materialize(&alg, 21.0);
        let fleet = Fleet::new(trajectories.clone()).unwrap();

        let outcome = worst_case_outcome(
            &trajectories,
            Target::new(target_pos).unwrap(),
            params.f(),
            SimConfig::default(),
        ).unwrap();
        let analytic = fleet.visit_time(target_pos, params.required_visits());

        prop_assert!(outcome.detection.is_some(), "{params}: target {target_pos} undetected");
        let sim_t = outcome.detection.unwrap().time;
        let cov_t = analytic.unwrap();
        prop_assert!(
            (sim_t - cov_t).abs() <= 1e-9 * cov_t.max(1.0),
            "{params}, x = {target_pos}: sim {sim_t} vs coverage {cov_t}"
        );
    }

    /// No fault assignment of at most f faults can beat the worst-case
    /// adversary: the adversarial detection time dominates any random
    /// mask's detection time.
    #[test]
    fn adversary_dominates_random_masks(
        params in proportional_params(),
        x in 1.0f64..15.0,
        seed in any::<u64>(),
    ) {
        let alg = Algorithm::design(params).unwrap();
        let trajectories = materialize(&alg, 16.0);
        let target = Target::new(x).unwrap();

        let worst = worst_case_outcome(
            &trajectories,
            target,
            params.f(),
            SimConfig::default(),
        ).unwrap();
        prop_assert!(worst.detection.is_some());
        let worst_time = worst.detection.unwrap().time;

        // Each robot is faulty with probability 1/2, at most f of them.
        let mut rng = StdRng::seed_from_u64(seed);
        let mut faulty = Vec::new();
        for robot in 0..trajectories.len() {
            if faulty.len() < params.f() && rng.random_bool(0.5) {
                faulty.push(robot);
            }
        }
        let plan = FaultPlan::sensor_faults(trajectories.len(), &faulty).unwrap();
        let config = SimConfig::default();
        let outcome = Simulation::new(&trajectories, target, &plan, &[], 0, config, None)
            .unwrap()
            .run();
        prop_assert!(outcome.detection.is_some());
        prop_assert!(
            outcome.detection.unwrap().time <= worst_time + 1e-9,
            "random mask beat the adversary"
        );
    }

    /// The adversary-dominance invariant, checked exhaustively: for
    /// every valid small (n, f) and a random target on either side,
    /// *every* fault mask with at most f faults detects no later than
    /// the adversarial bound T_(f+1)(x).
    #[test]
    fn every_mask_respects_the_adversarial_bound(
        params in small_proportional_params(),
        x in 1.0f64..12.0,
        negative in any::<bool>(),
    ) {
        let alg = Algorithm::design(params).unwrap();
        let trajectories = materialize(&alg, 13.0);
        let target = Target::new(if negative { -x } else { x }).unwrap();
        let (n, f) = (params.n(), params.f());
        let bound = worst_case_outcome(&trajectories, target, f, SimConfig::default())
            .unwrap()
            .detection
            .map(|d| d.time);
        // Every subset of at most f robots, as a bitmask over the fleet.
        let masks: Vec<FaultPlan> = (0u32..1 << n)
            .filter(|bits| bits.count_ones() as usize <= f)
            .map(|bits| {
                let faulty: Vec<usize> = (0..n).filter(|i| bits >> i & 1 == 1).collect();
                FaultPlan::sensor_faults(n, &faulty).unwrap()
            })
            .collect();
        let binomial = |k: usize| (0..k).fold(1usize, |c, i| c * (n - i) / (i + 1));
        prop_assert_eq!(masks.len(), (0..=f).map(binomial).sum::<usize>());
        for mask in &masks {
            let config = SimConfig::default();
            let detection = Simulation::new(&trajectories, target, mask, &[], 0, config, None)
                .unwrap()
                .run()
                .detection
                .map(|d| d.time);
            match (detection, bound) {
                (Some(t), Some(b)) => prop_assert!(
                    t <= b + 1e-9,
                    "{params}, {target:?}, mask {mask:?}: detected at {t}, bound {b}"
                ),
                (None, Some(b)) => prop_assert!(
                    false,
                    "{params}, {target:?}, mask {mask:?}: undetected, the adversary detects at {b}"
                ),
                (_, None) => {}
            }
        }
    }

    /// Record -> serialize -> parse -> replay reproduces the identical
    /// SearchOutcome for arbitrary fault plans from the full taxonomy.
    #[test]
    fn traces_replay_bit_for_bit_after_json_round_trip(
        params in small_proportional_params(),
        x in 1.0f64..10.0,
        negative in any::<bool>(),
        seed in any::<u64>(),
        kinds in prop::collection::vec(fault_kind(), 5..6),
    ) {
        let alg = Algorithm::design(params).unwrap();
        let trajectories = materialize(&alg, 11.0);
        let plan = FaultPlan::new(kinds[..params.n()].to_vec()).unwrap();
        let target = Target::new(if negative { -x } else { x }).unwrap();
        let trace = RunTrace::record(
            "property round trip",
            trajectories,
            target,
            &plan,
            seed,
            SimConfig::default(),
            None,
            None,
        ).unwrap();
        let parsed = RunTrace::from_json(&serde_json::to_string_pretty(&trace).unwrap()).unwrap();
        prop_assert_eq!(&parsed, &trace, "JSON round trip must be lossless");
        // `verify` replays the trace and compares with the recorded outcome.
        parsed.verify().unwrap();
    }

    /// Every `FaultKind` variant's f64 parameters survive the
    /// trace-document JSON path bit for bit.
    #[test]
    fn fault_kind_params_survive_json_bit_for_bit(
        kinds in prop::collection::vec(fault_kind(), 2..5),
        seed in any::<u64>(),
    ) {
        let n = kinds.len();
        let plan = FaultPlan::new(kinds.clone()).unwrap();
        let trajectories: Vec<PiecewiseTrajectory> = (0..n)
            .map(|_| {
                faultline_core::TrajectoryBuilder::from_origin()
                    .sweep_to(9.0)
                    .finish()
                    .unwrap()
            })
            .collect();
        let trace = RunTrace::record(
            "serde bit survival",
            trajectories,
            Target::new(3.0).unwrap(),
            &plan,
            seed,
            SimConfig::default(),
            None,
            None,
        ).unwrap();
        let parsed = RunTrace::from_json(&serde_json::to_string_pretty(&trace).unwrap()).unwrap();
        prop_assert_eq!(parsed.plan.len(), kinds.len());
        for (parsed_kind, original) in parsed.plan.iter().zip(&kinds) {
            match (parsed_kind, original) {
                (FaultKind::Intermittent { miss_probability: a },
                 FaultKind::Intermittent { miss_probability: b })
                | (FaultKind::Delayed { latency: a }, FaultKind::Delayed { latency: b })
                | (FaultKind::SpeedDegraded { factor: a }, FaultKind::SpeedDegraded { factor: b })
                | (FaultKind::Byzantine { lie_rate: a }, FaultKind::Byzantine { lie_rate: b })
                | (FaultKind::PFaulty { detect_probability: a },
                   FaultKind::PFaulty { detect_probability: b }) => {
                    prop_assert_eq!(a.to_bits(), b.to_bits(), "f64 parameter lost bits");
                }
                (a, b) => prop_assert_eq!(a, b),
            }
        }
    }

    /// With `f` Byzantine robots among `n >= 2f + 1` and an `f + 1`
    /// quorum, no sampled lie schedule ever confirms a position where
    /// the target is not, and no false position ever accumulates a
    /// quorum of claims.
    #[test]
    fn byzantine_quorum_never_confirms_a_false_position(
        f in 1usize..4,
        extra in 0usize..3,
        lie_rate in 0.1f64..1.0,
        seed in any::<u64>(),
        x in 1.0f64..10.0,
        negative in any::<bool>(),
    ) {
        let n = 2 * f + 1 + extra;
        let params = Params::new(n, f).unwrap();
        let alg = Algorithm::design(params).unwrap();
        let trajectories = materialize(&alg, 11.0);
        let position = if negative { -x } else { x };
        let target = Target::new(position).unwrap();
        // The first f robots are the liars.
        let kinds: Vec<FaultKind> = (0..n)
            .map(|i| if i < f { FaultKind::Byzantine { lie_rate } } else { FaultKind::Reliable })
            .collect();
        let plan = FaultPlan::new(kinds).unwrap();
        let quorum = QuorumConfig::new(f + 1).unwrap();
        let outcome = Simulation::new(
            &trajectories,
            target,
            &plan,
            &[],
            seed,
            SimConfig::default(),
            Some(quorum),
        ).unwrap().run();

        if let Some(confirmed) = outcome.confirmed_position {
            prop_assert_eq!(confirmed, position, "confirmed a false position");
        }
        // No false position ever gathers f + 1 distinct claimants.
        let mut by_position: std::collections::BTreeMap<u64, std::collections::BTreeSet<usize>> =
            std::collections::BTreeMap::new();
        for claim in &outcome.claims {
            by_position.entry(claim.position.to_bits()).or_default().insert(claim.robot.0);
        }
        for (bits, claimants) in by_position {
            if f64::from_bits(bits) != position {
                prop_assert!(
                    claimants.len() <= f,
                    "false position {} gathered {} claimants",
                    f64::from_bits(bits),
                    claimants.len()
                );
            }
        }
    }

    /// The quorum terminates exactly when the target has genuinely been
    /// visited by `f + 1` honest robots: detection time equals the
    /// honest sub-fleet's `T_(f+1)(x)`.
    #[test]
    fn byzantine_quorum_terminates_on_honest_coverage(
        f in 1usize..4,
        lie_rate in 0.0f64..1.0,
        seed in any::<u64>(),
        x in 1.0f64..10.0,
        negative in any::<bool>(),
    ) {
        let n = 2 * f + 1;
        let params = Params::new(n, f).unwrap();
        let alg = Algorithm::design(params).unwrap();
        let trajectories = materialize(&alg, 11.0);
        let position = if negative { -x } else { x };
        let target = Target::new(position).unwrap();
        let kinds: Vec<FaultKind> = (0..n)
            .map(|i| if i < f { FaultKind::Byzantine { lie_rate } } else { FaultKind::Reliable })
            .collect();
        let honest: Vec<PiecewiseTrajectory> = trajectories[f..].to_vec();
        let honest_bound = Fleet::new(honest).unwrap().visit_time(position, f + 1);

        let plan = FaultPlan::new(kinds).unwrap();
        let outcome = Simulation::new(
            &trajectories,
            target,
            &plan,
            &[],
            seed,
            SimConfig::default(),
            Some(QuorumConfig::new(f + 1).unwrap()),
        ).unwrap().run();

        match honest_bound {
            Some(bound) => {
                let d = outcome.detection.expect("honest coverage must confirm the target");
                prop_assert!(
                    (d.time - bound).abs() <= 1e-9 * bound.max(1.0),
                    "quorum at {} but honest T_(f+1) = {bound}",
                    d.time
                );
                prop_assert_eq!(outcome.confirmed_position, Some(position));
            }
            None => {
                // Liars alone can never fake the quorum.
                prop_assert!(outcome.confirmed_position.is_none());
            }
        }
    }

    /// Searches with zero faults detect at exactly the fleet's first
    /// visit time, i.e. the simulator's bookkeeping introduces no bias.
    #[test]
    fn zero_fault_search_is_first_visit(
        params in proportional_params(),
        x in 1.0f64..10.0,
    ) {
        let alg = Algorithm::design(params).unwrap();
        let trajectories = materialize(&alg, 11.0);
        let fleet = Fleet::new(trajectories.clone()).unwrap();
        let plan = FaultPlan::sensor_faults(trajectories.len(), &[]).unwrap();
        let outcome = Simulation::new(
            &trajectories,
            Target::new(x).unwrap(),
            &plan,
            &[],
            0,
            SimConfig::default(),
            None,
        ).unwrap().run();
        let expected = fleet.visit_time(x, 1).unwrap();
        let got = outcome.detection.unwrap().time;
        prop_assert!((got - expected).abs() <= 1e-9 * expected.max(1.0));
    }
}
