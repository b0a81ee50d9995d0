//! The arithmetic behind every reported number: percentiles, the slice-median rate
//! and the drift ratio.  Kept free of I/O so `cargo test` pins it down.

/// Sorts samples ascending with a total order (no NaN can reach here: every sample
/// is a clock difference or a count).
pub fn sorted(mut samples: Vec<f64>) -> Vec<f64> {
    samples.sort_by(f64::total_cmp);
    samples
}

/// Nearest-rank percentile of an ascending slice: the smallest sample with at least
/// `p` of the samples at or below it.  `0.0` for an empty slice.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (p * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median of unsorted samples (mean of the two middle ones for an even count).
pub fn median(samples: &[f64]) -> f64 {
    let s = sorted(samples.to_vec());
    match s.len() {
        0 => 0.0,
        n if n % 2 == 1 => s[n / 2],
        n => (s[n / 2 - 1] + s[n / 2]) / 2.0,
    }
}

/// Median of integer nanosecond samples, in the unit `ns_per_unit` nanoseconds make
/// (1e3 for µs, 1e6 for ms).
pub fn median_ns(samples: &[u64], ns_per_unit: f64) -> f64 {
    median(
        &samples
            .iter()
            .map(|&ns| ns as f64 / ns_per_unit)
            .collect::<Vec<_>>(),
    )
}

/// Throughput as the **median over `slices` equal-tick slices** of
/// `count / elapsed` per slice, in 1/s.  Total/wall moves with every stall; the
/// slice median does not (bench/README.md, "sizing rules").  Ticks that do not fill
/// the last slice are left out, so every slice covers the same number of ticks.
pub fn slice_median_rate(tick_ns: &[u64], counts: &[u64], slices: usize) -> f64 {
    assert_eq!(tick_ns.len(), counts.len(), "one count per tick");
    let per = tick_ns.len() / slices.max(1);
    if per == 0 {
        return 0.0;
    }
    let rates: Vec<f64> = (0..slices)
        .map(|s| {
            let range = s * per..(s + 1) * per;
            let ns: u64 = tick_ns[range.clone()].iter().sum();
            let n: u64 = counts[range].iter().sum();
            n as f64 / (ns as f64 / 1e9)
        })
        .collect();
    median(&rates)
}

/// Median tick of the last third ÷ median tick of the first third of the measured
/// phase.  1.0 means per-tick cost does not depend on how long the run already is.
/// (Thirds, not tenths: on the reference host a tenth of a run is too few ticks for
/// its median to repeat — the tenth-based ratio spread by 14–31 % between identical
/// runs, the third-based one by 6–10 %.)
pub fn drift_ratio(tick_ns: &[u64]) -> f64 {
    let third = (tick_ns.len() / 3).max(1);
    let first = median_ns(&tick_ns[..third.min(tick_ns.len())], 1.0);
    let last = median_ns(&tick_ns[tick_ns.len().saturating_sub(third)..], 1.0);
    if first == 0.0 {
        return 0.0;
    }
    last / first
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let s: Vec<f64> = (1..=200).map(f64::from).collect();
        assert_eq!(percentile(&s, 0.50), 100.0);
        assert_eq!(
            percentile(&s, 0.95),
            190.0,
            "ten samples lie beyond p95 of 200"
        );
        assert_eq!(percentile(&s, 0.99), 198.0);
        assert_eq!(percentile(&s, 1.0), 200.0);
        assert_eq!(percentile(&s, 0.0), 1.0);
        assert_eq!(percentile(&[], 0.5), 0.0);
        assert_eq!(percentile(&[7.0], 0.95), 7.0);
    }

    #[test]
    fn median_handles_odd_even_and_unsorted_input() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
        assert_eq!(median_ns(&[1_000, 3_000, 2_000], 1e3), 2.0);
    }

    #[test]
    fn slice_median_ignores_a_stall_that_total_over_wall_does_not() {
        // 40 ticks of 1 ms delivering 10 answers each; one tick stalls for 100 ms.
        let mut ticks = vec![1_000_000u64; 40];
        ticks[17] = 100_000_000;
        let counts = vec![10u64; 40];
        let rate = slice_median_rate(&ticks, &counts, 20);
        assert!((rate - 10_000.0).abs() < 1e-6, "{rate}");
        let total_over_wall = 400.0 / (ticks.iter().sum::<u64>() as f64 / 1e9);
        assert!(
            total_over_wall < 3_000.0,
            "the stall drags total/wall to {total_over_wall}"
        );
    }

    #[test]
    fn slice_median_drops_the_ragged_tail_and_survives_tiny_runs() {
        let ticks = vec![1_000_000u64; 45];
        let counts = vec![2u64; 45];
        assert!((slice_median_rate(&ticks, &counts, 20) - 2_000.0).abs() < 1e-6);
        assert_eq!(slice_median_rate(&ticks[..5], &counts[..5], 20), 0.0);
    }

    #[test]
    fn drift_compares_last_third_to_first_third() {
        let ticks: Vec<u64> = (0..90)
            .map(|i| {
                if i < 30 {
                    2_000
                } else if i >= 60 {
                    3_000
                } else {
                    9_999
                }
            })
            .collect();
        assert!((drift_ratio(&ticks) - 1.5).abs() < 1e-12);
        assert_eq!(drift_ratio(&[5, 5, 5]), 1.0);
    }
}
