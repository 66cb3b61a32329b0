//! Property tests: scenario documents round-trip through JSON with
//! every `f64` bit-exact, and the serialized form is canonical.

use faultline_analysis::Scenario;
use faultline_scenario::{Activation, RobotSpec, ScenarioDoc};
use proptest::prelude::*;

/// A finite f64 in `[1, 100)` with full mantissa entropy, so the
/// round-trip property exercises awkward decimal expansions rather
/// than round numbers.
fn target_from_bits(bits: u64) -> f64 {
    1.0 + ((bits >> 11) as f64) * (99.0 / (1u64 << 53) as f64)
}

/// A speed in `[0.25, 4.25)` with full mantissa entropy.
fn speed_from_bits(bits: u64) -> f64 {
    0.25 + ((bits >> 11) as f64) * (4.0 / (1u64 << 53) as f64)
}

fn activation_from(kind: u32, bits: u64) -> Activation {
    match kind % 3 {
        0 => Activation::Immediate,
        1 => Activation::DelayedStart(((bits >> 11) as f64) * (10.0 / (1u64 << 53) as f64)),
        _ => Activation::Seeded { max_delay: ((bits >> 11) as f64) * (5.0 / (1u64 << 53) as f64) },
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// serialize ∘ parse is the identity on valid documents,
    /// including bit-exact floats in every numeric position.
    #[test]
    fn documents_round_trip_bit_exactly(
        n in 1usize..6,
        f_raw in 0usize..6,
        half_line in any::<bool>(),
        target_bits in prop::collection::vec(any::<u64>(), 1usize..5),
        signs in prop::collection::vec(any::<bool>(), 5),
        with_robots in any::<bool>(),
        speed_bits in prop::collection::vec(any::<u64>(), 6),
        activation_kinds in prop::collection::vec(0u32..3, 6),
        activation_bits in prop::collection::vec(any::<u64>(), 6),
        seed in any::<u64>(),
    ) {
        let f = f_raw % n;
        let targets: Vec<f64> = target_bits
            .iter()
            .zip(&signs)
            .map(|(&bits, &neg)| {
                let x = target_from_bits(bits);
                if neg && !half_line { -x } else { x }
            })
            .collect();
        let robots = with_robots.then(|| {
            (0..n)
                .map(|i| RobotSpec {
                    speed: speed_from_bits(speed_bits[i]),
                    activation: activation_from(activation_kinds[i], activation_bits[i]),
                    fault_onset: None,
                })
                .collect::<Vec<_>>()
        });
        let seeded = robots.as_ref().is_some_and(|specs| {
            specs.iter().any(|s| matches!(s.activation, Activation::Seeded { .. }))
        });
        let doc = ScenarioDoc {
            version: 1,
            geometry: if half_line {
                faultline_core::Geometry::HalfLine
            } else {
                faultline_core::Geometry::Line
            },
            robots,
            scenario: Scenario {
                n,
                f,
                strategy: "paper".to_owned(),
                beta: None,
                targets,
                faulty: None,
                fault_plan: None,
                quorum: None,
                seed: seeded.then_some(seed),
            },
        };
        let json = serde_json::to_string_pretty(&doc).unwrap();
        // `from_json` validates: the generated document must be valid.
        let back = ScenarioDoc::from_json(&json).unwrap();
        prop_assert_eq!(&back, &doc, "round-trip must be lossless");
        // Bit-exactness, stated explicitly (PartialEq on f64 would
        // also conflate 0.0 and -0.0).
        for (a, b) in back.scenario.targets.iter().zip(&doc.scenario.targets) {
            prop_assert_eq!(a.to_bits(), b.to_bits());
        }
        if let (Some(ra), Some(rb)) = (&back.robots, &doc.robots) {
            for (a, b) in ra.iter().zip(rb) {
                prop_assert_eq!(a.speed.to_bits(), b.speed.to_bits());
            }
        }
        // Canonical: a second serialization is byte-identical.
        prop_assert_eq!(json, serde_json::to_string_pretty(&back).unwrap());
    }
}
