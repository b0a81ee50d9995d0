//! Host-speed compensation: a reference kernel timed beside every tick, and the
//! arithmetic that rescales a tick's CPU-busy share to nominal CPU speed.
//!
//! The reference host is a 2-vCPU microVM on a shared machine.  Its CPU speed as seen
//! by a CPU-bound process moves by 30–50 % over minutes (a neighbour on the sibling
//! hyper-thread), and stays there: identical runs of `engine_snapshot` gave a median
//! tick between 2.3 and 3.7 ms.  No estimator over the ticks of one run can remove a
//! slowdown that lasts the whole run — low percentiles moved as much as the median —
//! so the benchmark measures the slowdown itself.  A small fixed computation with the
//! program's instruction mix (ordered-map updates, float arithmetic, a sort, a few
//! allocations) is timed before every tick; how much slower than nominal it ran is
//! the **speed factor** of that moment, and each tick is reported as it would have
//! run at nominal speed.  Over eight runs taken while the host was at its noisiest,
//! the spread (inter-quartile range ÷ median) of the median tick fell from 13.8 % to
//! 3.4 %, of the slice-median rate from 13.7 % to 4.6 %.
//!
//! Only CPU-busy time scales with CPU speed.  A wire tick that waits 40 ms on a
//! kernel timer does not get faster on a quiet host, so the correction applies to the
//! **CPU share** of wall time only (process CPU ÷ wall over the measured phase, capped
//! at 1): `reported = raw × (1 − share × (1 − 1/speed))`.  An in-process workload has
//! share ≈ 1 and is rescaled fully; today's `serve_stream` has share ≈ 0.14 and is
//! barely touched; once its polls stop stalling its share rises and the correction
//! follows, with nothing keyed on the workload's name.
//!
//! The raw median, the speed factor and the CPU share are reported per layer
//! (`host.*`), so the correction can always be undone.

use crate::stats::median;
use std::collections::BTreeMap;
use std::time::Instant;

/// What one [`reference_kernel`] call takes on the reference host at its quietest
/// (5th percentile over eight runs: 109–118 µs).  Reported times are times at this
/// speed.  The constant is a convention, not a measurement to keep current: the same
/// value scales the parent's numbers and the change's.
pub const NOMINAL_KERNEL_NS: f64 = 110_000.0;

/// Reference samples on each side of a tick whose median is that tick's local speed.
const WINDOW: usize = 10;

/// Kernel calls timed after a set-up to learn the speed it ran at.
pub const SETUP_SAMPLES: usize = 15;

/// The fixed computation: 1 500 pseudo-random read-modify-writes into a 512-key
/// ordered map, a square root each, then a sort of the values.  It touches ≈ 30 KB,
/// allocates a few dozen tree nodes and one vector, and calls nothing of the program.
pub fn reference_kernel(salt: u64) -> f64 {
    let mut map: BTreeMap<u64, f64> = BTreeMap::new();
    let mut x = salt.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    let mut acc = 0.0;
    for i in 0..1500u64 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let slot = map.entry(x % 512).or_insert(0.0);
        *slot += (i as f64).sqrt();
        acc += *slot;
    }
    let mut values: Vec<f64> = map.values().copied().collect();
    values.sort_by(f64::total_cmp);
    acc + values[values.len() / 2]
}

/// Times one kernel call.
pub fn time_kernel(salt: u64) -> u64 {
    let start = Instant::now();
    std::hint::black_box(reference_kernel(std::hint::black_box(salt)));
    start.elapsed().as_nanos() as u64
}

/// The speed factor after a set-up: median of [`SETUP_SAMPLES`] kernel calls ÷ nominal.
pub fn speed_now() -> f64 {
    let samples: Vec<f64> = (0..SETUP_SAMPLES)
        .map(|i| time_kernel(i as u64) as f64)
        .collect();
    median(&samples) / NOMINAL_KERNEL_NS
}

/// Per tick, how much slower than nominal the host ran around it (> 1: slower): the
/// median of the kernel samples of the ±10 surrounding ticks ÷ nominal.
pub fn local_speed(kernel_ns: &[u64]) -> Vec<f64> {
    (0..kernel_ns.len())
        .map(|i| {
            let window =
                &kernel_ns[i.saturating_sub(WINDOW)..(i + WINDOW + 1).min(kernel_ns.len())];
            median(&window.iter().map(|&ns| ns as f64).collect::<Vec<_>>()) / NOMINAL_KERNEL_NS
        })
        .collect()
}

/// What `raw` wall time becomes at nominal CPU speed when `share` of it is CPU-busy
/// and the host ran `speed` times slower than nominal.
pub fn at_nominal_speed(raw: f64, share: f64, speed: f64) -> f64 {
    if speed <= 0.0 {
        return raw;
    }
    raw * (1.0 - share.clamp(0.0, 1.0) * (1.0 - 1.0 / speed))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_cpu_bound_tick_scales_fully_and_a_waiting_tick_hardly() {
        // The host ran 1.5 times slower than nominal.
        assert!(
            (at_nominal_speed(3.0, 1.0, 1.5) - 2.0).abs() < 1e-12,
            "all CPU: 3 ms was 2 ms of work"
        );
        assert!(
            (at_nominal_speed(88.0, 0.0, 1.5) - 88.0).abs() < 1e-12,
            "all waiting: nothing to rescale"
        );
        let mixed = at_nominal_speed(90.0, 0.1, 1.5);
        assert!(
            (mixed - 87.0).abs() < 1e-9,
            "9 ms of CPU were 6 ms of work: {mixed}"
        );
        assert_eq!(at_nominal_speed(5.0, 1.0, 1.0), 5.0);
        assert!(
            (at_nominal_speed(2.0, 1.0, 0.8) - 2.5).abs() < 1e-12,
            "a faster host scales up"
        );
        assert_eq!(
            at_nominal_speed(5.0, 7.0, 2.0),
            2.5,
            "the share is capped at 1"
        );
    }

    #[test]
    fn local_speed_is_a_windowed_median_that_ignores_a_single_hiccup() {
        let mut kernel = vec![NOMINAL_KERNEL_NS as u64; 50];
        kernel[20] *= 10;
        for slow in &mut kernel[30..] {
            *slow = (NOMINAL_KERNEL_NS * 1.5) as u64;
        }
        let speed = local_speed(&kernel);
        assert_eq!(speed.len(), 50);
        assert!(
            (speed[20] - 1.0).abs() < 1e-9,
            "one outlier does not move the window's median"
        );
        assert!((speed[0] - 1.0).abs() < 1e-9 && (speed[49] - 1.5).abs() < 1e-9);
        assert!(speed[30] > 1.0 - 1e-9 && speed[30] <= 1.5 + 1e-9);
    }

    #[test]
    fn the_kernel_is_deterministic_and_not_optimised_away() {
        assert_eq!(reference_kernel(7).to_bits(), reference_kernel(7).to_bits());
        assert_ne!(reference_kernel(7).to_bits(), reference_kernel(8).to_bits());
        assert!(
            time_kernel(1) > 1_000,
            "1 500 map updates take more than a microsecond"
        );
    }
}
