//! Pins the enclosed and the expected-cost scans bit for bit. Each
//! family folds every field of every result into one FNV-1a digest:
//!
//! - the certified enclosure of the eight Table-1 fleets that
//!   `repro certify` measures, scan and enclosure (`xmax = 25`);
//! - the p-faulty expected supremum of the same fleets at five
//!   detection probabilities;
//! - the expected competitive ratio of the six-turn lowerings of three
//!   proportional schedules at the same probabilities.
//!
//! `repro certify` prints the enclosures to 12 digits and no artifact
//! records an expected ratio, so a change to candidate enumeration that
//! is meant to be bit-identical must reproduce these digests exactly.

use faultline_analysis::exact::{exact_expected_supremum, ExactScan};
use faultline_analysis::{exact_supremum_enclosed, measure_free_schedule_expected_cr};
use faultline_core::{Algorithm, Fleet, FreeSchedule, Params};

const XMAX: f64 = 25.0;

/// The pairs `repro certify` measures.
const CERTIFY_PAIRS: [(usize, usize); 8] =
    [(2, 1), (3, 1), (3, 2), (4, 2), (4, 3), (5, 2), (5, 3), (5, 4)];

const PROBABILITIES: [f64; 5] = [0.1, 0.25, 0.5, 0.75, 1.0];

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

    fn scan(&mut self, scan: &ExactScan) {
        for float in [scan.ratio, scan.argmax, scan.pressure] {
            self.word(float.to_bits());
        }
        self.word(scan.uncovered as u64);
        self.word(scan.critical_points as u64);
    }
}

fn algorithm(n: usize, f: usize) -> Algorithm {
    Algorithm::design(Params::new(n, f).unwrap()).unwrap()
}

/// `A(n, f)` materialized exactly as `repro certify` does.
fn paper_fleet(n: usize, f: usize) -> Fleet {
    let algorithm = algorithm(n, f);
    let horizon = algorithm.required_horizon(XMAX * (1.0 + 1e-6)).unwrap();
    Fleet::from_plans(&algorithm.plans(), horizon).unwrap()
}

fn enclosed_digest() -> u64 {
    let mut digest = Digest::new();
    for (n, f) in CERTIFY_PAIRS {
        let enclosed = exact_supremum_enclosed(&paper_fleet(n, f), f + 1, XMAX).unwrap();
        digest.scan(&enclosed.scan);
        digest.word(enclosed.enclosure.lo().to_bits());
        digest.word(enclosed.enclosure.hi().to_bits());
    }
    digest.0
}

fn expected_digest() -> u64 {
    let mut digest = Digest::new();
    for (n, f) in CERTIFY_PAIRS {
        let fleet = paper_fleet(n, f);
        for p in PROBABILITIES {
            digest.scan(&exact_expected_supremum(&fleet, p, XMAX).unwrap());
        }
    }
    digest.0
}

fn lowered_digest() -> u64 {
    let mut digest = Digest::new();
    for (n, f) in [(3, 1), (4, 2), (5, 3)] {
        let algorithm = algorithm(n, f);
        let schedule = algorithm.schedule().expect("a proportional design");
        let lowered = FreeSchedule::from_proportional(schedule, 6).unwrap();
        for p in PROBABILITIES {
            let measured = measure_free_schedule_expected_cr(&lowered, p, XMAX).unwrap();
            digest.word(measured.analytic.map_or(u64::MAX, f64::to_bits));
            digest.word(measured.empirical.to_bits());
            digest.word(measured.argmax.to_bits());
            digest.word(measured.uncovered as u64);
        }
    }
    digest.0
}

#[test]
fn enclosed_and_expected_scans_are_bit_for_bit() {
    let expected: [(&str, u64); 3] = [
        ("enclosed", 0x6379_fbce_1463_25a6),
        ("expected", 0x3754_ae36_f86a_3e0b),
        ("lowered-expected", 0xe96c_1487_fc4c_c055),
    ];
    let actual = [
        ("enclosed", enclosed_digest()),
        ("expected", expected_digest()),
        ("lowered-expected", lowered_digest()),
    ];
    let table: String =
        actual.iter().map(|(name, digest)| format!("(\"{name}\", {digest:#018x}),\n")).collect();
    for ((name, digest), (want_name, want)) in actual.iter().zip(expected) {
        assert_eq!(*name, want_name, "{table}");
        assert_eq!(*digest, want, "{name}: the digest moved\n{table}");
    }
}
