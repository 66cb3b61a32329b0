//! Engine-level tests for the work-stealing parallel map: equivalence
//! with serial `map` under randomly skewed per-item costs, and a
//! load-imbalance regression showing geometric workloads complete
//! without a straggler chunk.

use std::time::{Duration, Instant};

use faultline_core::{par_map_with, ParallelConfig};
use proptest::prelude::*;

/// Deterministic busy work whose duration scales with `cost`, so random
/// cost vectors exercise genuinely skewed schedules.
fn skewed_work(cost: u32) -> u64 {
    let mut acc = u64::from(cost) ^ 0x9e37_79b9_7f4a_7c15;
    for i in 0..(u64::from(cost) * 37) {
        acc = acc.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(i);
    }
    acc
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The work-stealing engine returns exactly what a serial `map`
    /// returns — same values, same order — for any cost skew, input
    /// length and thread count. The derived grain `len / (8 * threads)`
    /// is 1 whenever `len < 16 * threads`, so short inputs cover it.
    #[test]
    fn work_stealing_matches_serial_map(
        costs in prop::collection::vec(0u32..64, 1..200),
        threads in 1usize..9,
    ) {
        let serial: Vec<u64> = costs.iter().map(|&c| skewed_work(c)).collect();
        let config = ParallelConfig { threads: Some(threads) };
        let parallel = par_map_with(&costs, &config, |&c| skewed_work(c));
        prop_assert_eq!(&serial, &parallel);
    }
}

#[test]
fn geometric_workload_completes_without_straggler_chunk() {
    // Geometric cost growth concentrated at the tail, modeled by sleeps
    // (sleeping threads overlap even on a single-core host, so the
    // scheduling property is observable regardless of hardware): the
    // last four items dominate the total cost, exactly like the largest
    // targets of a supremum sweep (Lemma 2's geometric turning points).
    let sleeps: Vec<u64> = (0..32).map(|i| if i >= 28 { 40 } else { 1 }).collect();
    let run = |f: &dyn Fn() -> Vec<()>| {
        let start = Instant::now();
        let out = f();
        assert_eq!(out.len(), sleeps.len());
        start.elapsed()
    };

    // 32 items on 4 workers: the derived grain is one item.
    let config = ParallelConfig { threads: Some(4) };
    let stealing = run(&|| {
        par_map_with(&sleeps, &config, |&ms| std::thread::sleep(Duration::from_millis(ms)))
    });

    // Contiguous chunking would put all four 40 ms items (plus four
    // 1 ms items) into the final chunk: a ≥ 160 ms straggler.
    assert!(stealing < Duration::from_millis(120), "work-stealing left a straggler: {stealing:?}");
}
