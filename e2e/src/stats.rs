//! Quantile, windowing and spread arithmetic. Pure functions over
//! plain numbers: nothing here knows about the daemon.

/// The `q`-quantile of an ascending slice, linearly interpolated
/// between the two nearest ranks. `None` for an empty slice.
pub fn quantile(sorted: &[f64], q: f64) -> Option<f64> {
    let last = sorted.len().checked_sub(1)?;
    let pos = q.clamp(0.0, 1.0) * last as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    Some(sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64))
}

/// Median of an unsorted slice (sorts it in place).
pub fn median(values: &mut [f64]) -> Option<f64> {
    values.sort_by(f64::total_cmp);
    quantile(values, 0.5)
}

/// One completed operation: when it finished (ns since the window
/// opened) and how long it took.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Sample {
    pub done_ns: u64,
    pub latency_ns: u64,
}

/// A quantile with the sample counts that back it.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Windowed {
    /// Median over the slices of each slice's quantile, in ns.
    pub value_ns: f64,
    /// Samples in the whole window.
    pub samples: usize,
    /// Samples in the emptiest slice (what the tail estimate rests on).
    pub min_slice: usize,
}

/// Cuts the window into `slices` equal spans of time, takes the
/// `q`-quantile of the latencies completed in each, and reports the
/// median of those: one noisy-neighbour burst lands in one slice and
/// cannot move the result. Samples completed at or after `window_ns`
/// are ignored; `None` if any slice is empty.
pub fn windowed_quantile(
    samples: &[Sample],
    window_ns: u64,
    slices: usize,
    q: f64,
) -> Option<Windowed> {
    let slices = slices.max(1);
    let mut buckets: Vec<Vec<f64>> = vec![Vec::new(); slices];
    for s in samples.iter().filter(|s| s.done_ns < window_ns) {
        let i = (u128::from(s.done_ns) * slices as u128 / u128::from(window_ns.max(1))) as usize;
        buckets[i.min(slices - 1)].push(s.latency_ns as f64);
    }
    let min_slice = buckets.iter().map(Vec::len).min()?;
    let mut per_slice = Vec::with_capacity(slices);
    for bucket in &mut buckets {
        bucket.sort_by(f64::total_cmp);
        per_slice.push(quantile(bucket, q)?);
    }
    Some(Windowed {
        value_ns: median(&mut per_slice)?,
        samples: buckets.iter().map(Vec::len).sum(),
        min_slice,
    })
}

/// `(median, (max − min) ÷ median)` — the run-to-run spread
/// `--repeat` holds against each metric's bound.
pub fn range_share(values: &[f64]) -> Option<(f64, f64)> {
    let mut sorted = values.to_vec();
    let mid = median(&mut sorted)?;
    let range = sorted[sorted.len() - 1] - sorted[0];
    Some((mid, if mid == 0.0 { 0.0 } else { range / mid.abs() }))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantile_interpolates_between_ranks() {
        let v = [10.0, 20.0, 30.0, 40.0];
        assert_eq!(quantile(&v, 0.0), Some(10.0));
        assert_eq!(quantile(&v, 1.0), Some(40.0));
        assert_eq!(quantile(&v, 0.5), Some(25.0));
        assert_eq!(quantile(&[7.0], 0.99), Some(7.0));
        assert_eq!(quantile(&[], 0.5), None);
    }

    #[test]
    fn median_sorts_first() {
        assert_eq!(median(&mut [3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&mut [4.0, 1.0]), Some(2.5));
    }

    fn uniform(slices: u64, per_slice: u64, latency: impl Fn(u64, u64) -> u64) -> Vec<Sample> {
        // One sample per microsecond tick inside each 1 ms slice.
        let mut out = Vec::new();
        for s in 0..slices {
            for i in 0..per_slice {
                out.push(Sample {
                    done_ns: s * 1_000_000 + i * 1_000,
                    latency_ns: latency(s, i),
                });
            }
        }
        out
    }

    #[test]
    fn one_bursty_slice_does_not_move_the_windowed_tail() {
        // Slice 2 is ten times slower than the rest; a whole-window p99
        // would report it, the median of six slices does not.
        let samples = uniform(6, 100, |s, i| if s == 2 { 10_000 } else { 1_000 + i });
        let w = windowed_quantile(&samples, 6_000_000, 6, 0.99).unwrap();
        assert!(w.value_ns < 1_100.0, "burst leaked: {}", w.value_ns);
        assert_eq!((w.samples, w.min_slice), (600, 100));
    }

    #[test]
    fn windowed_counts_and_cutoff() {
        let mut samples = uniform(6, 10, |_, _| 500);
        // Completed after the window closed: not counted.
        samples.push(Sample {
            done_ns: 6_000_000,
            latency_ns: 9_999_999,
        });
        let w = windowed_quantile(&samples, 6_000_000, 6, 0.5).unwrap();
        assert_eq!(w.samples, 60);
        assert_eq!(w.value_ns, 500.0);
        // An empty slice means the window cannot back a quantile.
        let sparse = uniform(3, 10, |_, _| 500);
        assert_eq!(windowed_quantile(&sparse, 6_000_000, 6, 0.5), None);
    }

    #[test]
    fn range_share_is_relative_to_the_median() {
        let (mid, share) = range_share(&[100.0, 110.0, 90.0]).unwrap();
        assert_eq!(mid, 100.0);
        assert!((share - 0.2).abs() < 1e-12);
        assert_eq!(range_share(&[]), None);
    }
}
