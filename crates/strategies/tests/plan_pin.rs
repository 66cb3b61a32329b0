//! Pins every plan family's materialized trajectories bit for bit: each
//! family folds the bits of every waypoint it materializes, at 45
//! horizons from 0.1 to 3·10⁴ and over the Table-1 pairs, into one
//! FNV-1a digest. A change to plan construction or materialization
//! that is meant to be bit-identical must reproduce these digests
//! exactly; no artifact pins the baselines' waypoints otherwise.

use faultline_core::{
    BoundedAlgorithm, FreeRobot, FreeSchedule, Params, PiecewiseTrajectory, ProportionalSchedule,
    Result,
};
use faultline_strategies::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

const TABLE1_PAIRS: [(usize, usize); 12] = [
    (2, 1),
    (3, 1),
    (3, 2),
    (4, 1),
    (4, 2),
    (4, 3),
    (5, 1),
    (5, 2),
    (5, 3),
    (5, 4),
    (11, 5),
    (41, 20),
];

/// Eight mantissas per decade from 0.1, up to 3·10⁴.
fn horizons() -> Vec<f64> {
    let mut out = Vec::new();
    for exponent in -1..=4 {
        for mantissa in [1.0, 1.3, 1.7, 2.2, 3.0, 4.0, 5.5, 7.5] {
            let h = mantissa * 10f64.powi(exponent);
            if h <= 3e4 {
                out.push(h);
            }
        }
    }
    out
}

/// FNV-1a over 64-bit words.
struct Digest(u64);

impl Digest {
    fn new() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, word: u64) {
        for byte in word.to_le_bytes() {
            self.0 = (self.0 ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// Folds the waypoint count and bits, or a marker for an error.
    fn trajectory(&mut self, trajectory: Result<PiecewiseTrajectory>) {
        match trajectory {
            Ok(t) => {
                self.word(t.waypoints().len() as u64);
                for w in t.waypoints() {
                    self.word(w.x.to_bits());
                    self.word(w.t.to_bits());
                }
            }
            Err(_) => self.word(u64::MAX),
        }
    }
}

fn params(n: usize, f: usize) -> Params {
    Params::new(n, f).unwrap()
}

/// Folds every plan of every pair at every horizon; a pair whose plans
/// are refused folds one marker.
fn family<P, M>(plans_for: impl Fn(Params) -> Result<Vec<P>>, materialize: M) -> u64
where
    M: Fn(&P, f64) -> Result<PiecewiseTrajectory>,
{
    let mut digest = Digest::new();
    for (n, f) in TABLE1_PAIRS {
        match plans_for(params(n, f)) {
            Ok(plans) => {
                for plan in &plans {
                    for h in horizons() {
                        digest.trajectory(materialize(plan, h));
                    }
                }
            }
            Err(_) => digest.word(u64::MAX - 1),
        }
    }
    digest.0
}

fn digests() -> Vec<(String, u64)> {
    let mut out = Vec::new();
    for strategy in all_strategies() {
        let digest = family(|p| strategy.plans(p), |plan, h| plan.materialize(h));
        out.push((strategy.name().to_owned(), digest));
    }
    let fixed = family(
        |p| {
            let mut plans = Vec::new();
            for beta in [1.1, 1.4, 2.2, 3.0, 7.0] {
                plans.extend(FixedBetaStrategy::new(beta)?.plans(p)?);
            }
            Ok(plans)
        },
        |plan, h| plan.materialize(h),
    );
    out.push(("fixed-beta".to_owned(), fixed));
    let bounded = family(
        |p| {
            let mut plans = Vec::new();
            for bound in [1.0, 1.5, 3.0, 7.25, 40.0] {
                plans.extend(BoundedAlgorithm::design(p, bound)?.plans()?);
            }
            Ok(plans)
        },
        |plan, h| plan.materialize(h),
    );
    out.push(("bounded".to_owned(), bounded));
    let randomized = family(
        |p| {
            let mut plans = Vec::new();
            for seed in 0..10 {
                let mut rng = StdRng::seed_from_u64(seed);
                plans.extend(RandomizedSweepStrategy::kao_optimal().sample_plans(p, &mut rng)?);
            }
            Ok(plans)
        },
        |plan, h| plan.materialize(h),
    );
    out.push(("randomized-sweep".to_owned(), randomized));
    let lowered = |p: Params| {
        let beta = faultline_core::ratio::optimal_beta(p)?;
        let schedule = ProportionalSchedule::new(p.n(), beta)?;
        let mut schedules = Vec::new();
        for turns in [2, 3, 8] {
            schedules.push(FreeSchedule::from_proportional(&schedule, turns)?);
        }
        Ok(schedules)
    };
    let robots = family(
        |p| Ok(lowered(p)?.iter().flat_map(|s| s.robots().to_vec()).collect()),
        FreeRobot::materialize,
    );
    out.push(("free-robots".to_owned(), robots));
    let plans = family(
        |p| Ok(lowered(p)?.iter().flat_map(FreeSchedule::plans).collect()),
        |plan, h| plan.materialize(h),
    );
    out.push(("free-plans".to_owned(), plans));
    let mut hand_built = Digest::new();
    let robot = FreeRobot::new(-1.0, vec![0.75, 1.5, 4.0, 5.0], 2.25).unwrap();
    for h in horizons() {
        hand_built.trajectory(robot.materialize(h));
        hand_built.word(robot.cut_at(h).map_or(u64::MAX, |p| p.x.to_bits()));
    }
    out.push(("hand-built".to_owned(), hand_built.0));
    out
}

#[test]
fn every_plan_family_materializes_bit_for_bit() {
    let expected: [(&str, u64); 14] = [
        ("paper", 0xb4cd_e53b_9184_d5ee),
        ("proportional", 0xead1_26da_d9bc_e328),
        ("two-group", 0x958d_3f16_278b_aee3),
        ("herd-doubling", 0xd77b_2f2c_94f5_b4cd),
        ("staggered-doubling", 0x66e5_36f9_6ea8_9800),
        ("mirrored-pairs", 0xa9eb_b0fc_d0fa_cccd),
        ("delayed-doubling", 0xe802_079d_006c_50d8),
        ("pessimal-split", 0x3ce8_a1ae_953b_26b5),
        ("fixed-beta", 0x2a76_c622_8d77_0591),
        ("bounded", 0xb339_7cd2_ba72_c87c),
        ("randomized-sweep", 0xc221_dd72_57ed_f482),
        ("free-robots", 0x8965_0162_601d_2d7a),
        ("free-plans", 0x8965_0162_601d_2d7a),
        ("hand-built", 0x751a_b783_0640_e537),
    ];
    let actual = digests();
    let table: String =
        actual.iter().map(|(name, digest)| format!("(\"{name}\", {digest:#018x}),\n")).collect();
    assert_eq!(actual.len(), expected.len(), "{table}");
    for ((name, digest), (want_name, want)) in actual.iter().zip(expected) {
        assert_eq!(name, want_name, "{table}");
        assert_eq!(*digest, want, "{name}: the digest moved\n{table}");
    }
}
