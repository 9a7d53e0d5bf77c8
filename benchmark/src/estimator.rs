//! The estimator: order statistics, host-speed normalisation, the
//! calibration kernel and the artifact fingerprint.
//!
//! Nothing in this file calls into the repo: the calibration kernel must
//! keep its cost when the program under test changes.

use std::hint::black_box;
use std::time::Instant;

/// The calibration kernel's nominal duration. A rep's wall time is scaled
/// by `CAL_NOMINAL_S / calib_s`, so a host that runs the kernel in exactly
/// this time reports normalised times equal to wall times.
pub const CAL_NOMINAL_S: f64 = 0.008;

/// Steps of the calibration kernel (≈8 ms on the definition host).
const CAL_STEPS: u64 = 6_000_000;

/// Calibration table entries: 64 Ki × 8 B = 512 KiB, larger than L1 and
/// within L2, like the scanner's own working set.
const CAL_TABLE_LEN: usize = 1 << 16;

/// One splitmix64 step: advances `state` and returns the mixed output.
pub fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Derives the `lane`-th independent seed from the workload seed, so the
/// world, scan and fault seeds never collide.
pub fn derive_seed(seed: u64, lane: u64) -> u64 {
    let mut s = seed ^ lane.wrapping_mul(0xa076_1d64_78bd_642f);
    splitmix64(&mut s)
}

/// The fixed pure-CPU kernel every rep is bracketed by: splitmix64 steps
/// scattering into a 512 KiB table. Its duration tracks the host's
/// effective speed (frequency, steal, cache pressure from neighbours).
///
/// It runs on as many threads as the measured workload's pool, because
/// what a two-worker job gets from a shared host moves differently from
/// what one thread gets (measured: see README, "Estimator evidence").
#[derive(Debug)]
pub struct Calibrator {
    tables: Vec<Vec<u64>>,
}

fn kernel(table: &mut [u64]) -> f64 {
    let start = Instant::now();
    let mut state = 0x5eed_u64;
    for _ in 0..CAL_STEPS {
        let z = splitmix64(&mut state);
        let slot = &mut table[z as usize & (CAL_TABLE_LEN - 1)];
        *slot = slot.wrapping_add(z);
    }
    black_box(table);
    start.elapsed().as_secs_f64()
}

impl Calibrator {
    /// A calibrator running the kernel on `threads` threads at once
    /// (at least one: the calling thread).
    pub fn new(threads: usize) -> Self {
        let mut cal = Calibrator {
            tables: vec![vec![0; CAL_TABLE_LEN]; threads.max(1)],
        };
        cal.run(); // page the tables in
        cal
    }

    /// Runs the kernel once on every thread and returns the mean of
    /// their durations, in seconds.
    pub fn run(&mut self) -> f64 {
        let (own, others) = self
            .tables
            .split_first_mut()
            .expect("at least the calling thread's table");
        let total: f64 = std::thread::scope(|scope| {
            let spawned: Vec<_> = others
                .iter_mut()
                .map(|table| scope.spawn(|| kernel(table)))
                .collect();
            let mine = kernel(own);
            mine + spawned
                .into_iter()
                .map(|h| h.join().expect("calibration kernel cannot panic"))
                .sum::<f64>()
        });
        total / self.tables.len() as f64
    }
}

/// `wall_s` rescaled to the nominal host: the rep's wall time divided by
/// how much slower (or faster) than nominal the calibration kernel ran
/// immediately before and after it.
pub fn normalise(wall_s: f64, calib_before_s: f64, calib_after_s: f64) -> f64 {
    let calib = (calib_before_s + calib_after_s) / 2.0;
    wall_s * (CAL_NOMINAL_S / calib)
}

/// Sorts a sample ascending (NaN-free by construction: durations/counts).
fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("benchmark samples are never NaN"));
    v
}

/// The `q`-quantile by linear interpolation between order statistics
/// (the "inclusive" method: q=0 is the minimum, q=1 the maximum).
///
/// # Panics
///
/// Panics on an empty sample.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    assert!(!values.is_empty(), "quantile of an empty sample");
    let v = sorted(values);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// The median.
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// The highest reportable percentile of an `n`-sample: the largest of
/// p99/p95/p90/p75 that still has at least ten samples beyond it, or
/// `None` when even p75 has fewer (n < 40). With the default 40 reps
/// this is p75.
pub fn highest_percentile(n: usize) -> Option<u32> {
    [99u32, 95, 90, 75]
        .into_iter()
        .find(|p| n * (100 - *p as usize) >= 1000)
}

/// Quartile spread as a share of the median, the way the pipeline judges
/// steadiness: `statistics.quantiles(values, n=4)` (exclusive method),
/// `(q3 - q1) / median`.
pub fn quartile_spread(values: &[f64]) -> f64 {
    let v = sorted(values);
    let n = v.len();
    if n < 2 {
        return 0.0;
    }
    let at = |k: usize| {
        // Python's exclusive method: position k(n+1)/4, 1-based, clamped.
        let pos = (k * (n + 1)) as f64 / 4.0;
        let j = (pos.floor() as usize).clamp(1, n - 1);
        let frac = pos - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * frac
    };
    (at(3) - at(1)) / at(2)
}

/// FNV-1a 64 over a sequence of byte strings — the artifact fingerprint.
/// Chunk boundaries do not matter: `fnv1a(&[a, b]) == fnv1a(&[ab])`.
pub fn fnv1a(chunks: &[&[u8]]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for chunk in chunks {
        for b in *chunk {
            h ^= u64::from(*b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_quantiles_interpolate() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(quantile(&[1.0, 2.0, 3.0, 4.0, 5.0], 0.75), 4.0);
        assert_eq!(quantile(&[10.0], 0.75), 10.0);
        assert_eq!(quantile(&[1.0, 2.0], 0.0), 1.0);
        assert_eq!(quantile(&[1.0, 2.0], 1.0), 2.0);
    }

    #[test]
    fn highest_percentile_keeps_ten_samples_beyond() {
        assert_eq!(highest_percentile(39), None);
        assert_eq!(highest_percentile(40), Some(75));
        assert_eq!(highest_percentile(99), Some(75));
        assert_eq!(highest_percentile(100), Some(90));
        assert_eq!(highest_percentile(200), Some(95));
        assert_eq!(highest_percentile(1000), Some(99));
    }

    #[test]
    fn normalisation_cancels_a_uniformly_slower_host() {
        // A host running everything 1.5x slower: calibration and rep both
        // stretch, the normalised time does not move.
        let fast = normalise(0.200, CAL_NOMINAL_S, CAL_NOMINAL_S);
        let slow = normalise(0.300, CAL_NOMINAL_S * 1.5, CAL_NOMINAL_S * 1.5);
        assert!((fast - 0.200).abs() < 1e-12);
        assert!((slow - fast).abs() < 1e-12);
        // Before/after are averaged.
        let mixed = normalise(0.250, CAL_NOMINAL_S, CAL_NOMINAL_S * 1.5);
        assert!((mixed - 0.200).abs() < 1e-12);
    }

    #[test]
    fn quartile_spread_matches_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((quartile_spread(&v) - (8.25 - 2.75) / 5.5).abs() < 1e-12);
        // statistics.quantiles([5, 1, 3], n=4) == [1.0, 3.0, 5.0]
        assert!((quartile_spread(&[5.0, 1.0, 3.0]) - 4.0 / 3.0).abs() < 1e-12);
        assert_eq!(quartile_spread(&[2.0, 2.0, 2.0, 2.0]), 0.0);
    }

    #[test]
    fn fnv_fingerprint_is_the_reference_function() {
        assert_eq!(fnv1a(&[b""]), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(&[b"a"]), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(&[b"foobar"]), 0x8594_4171_f739_67e8);
        assert_eq!(fnv1a(&[b"foo", b"bar"]), fnv1a(&[b"foobar"]));
    }

    #[test]
    fn derived_seeds_differ_per_lane_and_repeat() {
        assert_ne!(derive_seed(7, 1), derive_seed(7, 2));
        assert_ne!(derive_seed(7, 1), derive_seed(11, 1));
        assert_eq!(derive_seed(7, 3), derive_seed(7, 3));
    }

    #[test]
    fn calibration_kernel_takes_measurable_time() {
        for threads in [1, 2] {
            let t = Calibrator::new(threads).run();
            assert!(t > 0.0005 && t < 1.0, "calibration took {t} s");
        }
    }
}
