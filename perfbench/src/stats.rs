//! Order statistics, digests and the seeded generator the workloads
//! share.

/// FNV-1a 64-bit offset basis.
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
/// FNV-1a 64-bit prime.
const FNV_PRIME: u64 = 0x100_0000_01b3;
/// Samples a reported tail percentile must leave beyond it.
const TAIL_BEYOND: usize = 10;

/// FNV-1a 64-bit digest of `bytes`.
#[must_use]
pub fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(FNV_OFFSET, |digest, &b| (digest ^ u64::from(b)).wrapping_mul(FNV_PRIME))
}

/// One SplitMix64 step.
pub fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The generator state of stream `stream` of a run seeded with `seed`.
#[must_use]
pub fn stream_state(seed: u64, stream: u64) -> u64 {
    let mut state = seed ^ stream.wrapping_mul(0xd1b5_4a32_d192_ed03);
    splitmix64(&mut state)
}

/// A uniform draw from `[0, 1)` with 53 random bits.
pub fn unit(state: &mut u64) -> f64 {
    (splitmix64(state) >> 11) as f64 / (1u64 << 53) as f64
}

/// A sorted copy of `values`.
#[must_use]
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted
}

/// The median (the mean of the middle two for an even count); 0 when
/// empty.
#[must_use]
pub fn median(values: &[f64]) -> f64 {
    let sorted = sorted(values);
    match sorted.len() {
        0 => 0.0,
        n if n % 2 == 1 => sorted[n / 2],
        n => (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0,
    }
}

/// The mean of `values` without their lowest and highest 1%: robust to
/// the rare preempted span, yet not quantized to the clock's nanosecond
/// tick as the median (or the middle half) of a 30 ns span is.
#[must_use]
pub fn trimmed_mean(values: &[f64]) -> f64 {
    let sorted = sorted(values);
    let cut = sorted.len() / 100;
    let middle = &sorted[cut..sorted.len() - cut];
    if middle.is_empty() {
        0.0
    } else {
        middle.iter().sum::<f64>() / middle.len() as f64
    }
}

/// A tail percentile and the samples behind it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The sample at the reported rank.
    pub value: f64,
    /// The percentile actually reported.
    pub percentile: f64,
    /// Samples in all.
    pub samples: usize,
    /// Samples strictly beyond the reported rank.
    pub beyond: usize,
}

impl Tail {
    /// The `wanted` quantile (nearest rank) of `sorted` when at least
    /// ten samples lie beyond it; otherwise the highest percentile that
    /// still leaves ten beyond; with ten samples or fewer, the maximum.
    #[must_use]
    pub fn of(sorted: &[f64], wanted: f64) -> Tail {
        let samples = sorted.len();
        if samples == 0 {
            return Tail { value: 0.0, percentile: 0.0, samples, beyond: 0 };
        }
        let wanted_rank = ((wanted * samples as f64).ceil() as usize).clamp(1, samples);
        let rank =
            if samples > TAIL_BEYOND { wanted_rank.min(samples - TAIL_BEYOND) } else { samples };
        Tail {
            value: sorted[rank - 1],
            percentile: 100.0 * rank as f64 / samples as f64,
            samples,
            beyond: samples - rank,
        }
    }

    /// How the tail was taken, for the human-readable report.
    #[must_use]
    pub fn describe(&self) -> String {
        format!("p{:.2} of {} samples, {} beyond", self.percentile, self.samples, self.beyond)
    }
}

/// One pass: a run of consecutive completions.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Pass {
    /// Wall time from the previous pass's last completion (or offset 0)
    /// to this pass's last.
    pub seconds: f64,
    /// The pass's latency tail at p99 (see [`Tail::of`]).
    pub tail: Tail,
}

/// Splits completions, as `(offset in ns, latency)` sorted by offset,
/// into consecutive passes of `len`; a partial last pass is dropped.
#[must_use]
pub fn passes(completions: &[(u64, f64)], len: usize) -> Vec<Pass> {
    let mut start = 0;
    completions
        .chunks_exact(len)
        .map(|chunk| {
            let end = chunk[len - 1].0;
            let seconds = (end - start) as f64 / 1e9;
            start = end;
            let latencies: Vec<f64> = chunk.iter().map(|&(_, latency)| latency).collect();
            Pass { seconds, tail: Tail::of(&sorted(&latencies), 0.99) }
        })
        .collect()
}

/// This process's peak resident set size (`VmHWM`) in megabytes.
///
/// # Errors
///
/// Fails where `/proc/self/status` is missing or has no `VmHWM` line.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    let line = status
        .lines()
        .find(|line| line.starts_with("VmHWM:"))
        .ok_or("/proc/self/status has no VmHWM line")?;
    let kib: f64 = line
        .trim_start_matches("VmHWM:")
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .map_err(|e| format!("unreadable `{line}`: {e}"))?;
    Ok(kib * 1024.0 / 1e6)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn the_tail_is_p99_once_ten_samples_lie_beyond_it() {
        let tail = Tail::of(&ramp(1000), 0.99);
        assert_eq!((tail.value, tail.samples, tail.beyond), (990.0, 1000, 10));
        assert!((tail.percentile - 99.0).abs() < 1e-12);
        let tail = Tail::of(&ramp(5000), 0.99);
        assert_eq!((tail.value, tail.beyond), (4950.0, 50));
    }

    #[test]
    fn the_tail_falls_back_to_the_highest_percentile_with_ten_beyond() {
        let tail = Tail::of(&ramp(500), 0.99);
        assert_eq!((tail.value, tail.beyond), (490.0, 10));
        assert!((tail.percentile - 98.0).abs() < 1e-12);
        let tail = Tail::of(&ramp(11), 0.99);
        assert_eq!((tail.value, tail.beyond), (1.0, 10));
        assert_eq!(tail.describe(), "p9.09 of 11 samples, 10 beyond");
    }

    #[test]
    fn the_tail_of_ten_samples_or_fewer_is_the_maximum() {
        let tail = Tail::of(&ramp(3), 0.99);
        assert_eq!((tail.value, tail.percentile, tail.beyond), (3.0, 100.0, 0));
        assert_eq!(Tail::of(&[], 0.99).samples, 0);
    }

    #[test]
    fn medians_and_trimmed_means() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
        let mut spans = vec![30.0; 98];
        spans.extend([1e6, -1e6]);
        assert_eq!(trimmed_mean(&spans), 30.0, "the extreme 1% drop out");
        spans.push(31.0);
        assert!(trimmed_mean(&spans) > 30.0, "a tie-heavy sample still moves");
        assert_eq!(trimmed_mean(&[7.0]), 7.0);
        assert_eq!(trimmed_mean(&[]), 0.0);
    }

    #[test]
    fn passes_split_sorted_completions() {
        let done = [
            (1_000_000_000, 3.0),
            (2_000_000_000, 1.0),
            (2_500_000_000, 2.0),
            (4_500_000_000, 5.0),
            (5_000_000_000, 9.0),
        ];
        let passes = passes(&done, 2);
        let seconds: Vec<f64> = passes.iter().map(|pass| pass.seconds).collect();
        assert_eq!(seconds, vec![2.0, 2.5]);
        assert_eq!(passes[0].tail.value, 3.0, "two samples: the tail is their maximum");
        assert_eq!(passes[1].tail.samples, 2);
    }

    #[test]
    fn streams_differ_by_seed_and_by_index() {
        let draw = |seed, stream| splitmix64(&mut stream_state(seed, stream));
        assert_eq!(draw(1, 0), draw(1, 0));
        assert_ne!(draw(1, 0), draw(2, 0));
        assert_ne!(draw(1, 0), draw(1, 1));
        let mut state = 5;
        assert!((0..1000).map(|_| unit(&mut state)).all(|u| (0.0..1.0).contains(&u)));
    }
}
