//! Sample arithmetic: percentiles from raw samples (never from a bucketed
//! histogram), means and ratios.

use crate::clock::Took;

/// Raw timing samples of one end-to-end metric, split by whether the
/// operation that produced them ran traced. A `--trace 0` run fills only
/// the untraced side; a `--trace 1` run alternates, so the two sides see
/// the same host conditions and their difference is the tracing overhead.
#[derive(Debug, Default, Clone)]
pub struct Samples {
    plain: Vec<f64>,
    traced: Vec<f64>,
}

impl Samples {
    pub fn push(&mut self, traced: bool, value: f64) {
        if traced {
            self.traced.push(value);
        } else {
            self.plain.push(value);
        }
    }

    pub fn side(&self, traced: bool) -> &[f64] {
        if traced {
            &self.traced
        } else {
            &self.plain
        }
    }
}

/// Samples of one timed metric on both clocks: the on-CPU time the gated
/// metric reads, and the wall time the report shows beside it.
#[derive(Debug, Default, Clone)]
pub struct Timings {
    pub cpu: Samples,
    pub wall: Samples,
}

impl Timings {
    /// Records `took`, in units of `1 / scale` seconds.
    pub fn push(&mut self, traced: bool, took: Took, scale: f64) {
        self.cpu.push(traced, took.cpu.as_secs_f64() * scale);
        self.wall.push(traced, took.wall.as_secs_f64() * scale);
    }
}

/// Nearest-rank percentile (`q` in `[0, 1]`) of unsorted samples: the
/// smallest sample with at least `q·n` samples at or below it. `NaN` when
/// there are no samples.
pub fn percentile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return f64::NAN;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 0.5)
}

/// Arithmetic mean; `0` for no samples, so per-query means of counters
/// that a workload never touches read as zero.
pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        samples.iter().sum::<f64>() / samples.len() as f64
    }
}

/// `num / den`, or `0` when the denominator is zero (a counter ratio over
/// work that did not happen).
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).rev().map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), 50.0);
        assert_eq!(percentile(&v, 0.99), 99.0);
        assert_eq!(percentile(&v, 1.0), 100.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.0);
        assert!(percentile(&[], 0.5).is_nan());
    }

    #[test]
    fn p99_needs_the_tail_not_the_max() {
        // 1000 samples: the 10 largest lie beyond p99.
        let mut v: Vec<f64> = vec![1.0; 990];
        v.extend((0..10).map(|i| 100.0 + f64::from(i)));
        assert_eq!(percentile(&v, 0.99), 1.0);
        assert_eq!(percentile(&v, 0.995), 104.0);
    }

    #[test]
    fn means_and_ratios() {
        assert_eq!(mean(&[]), 0.0);
        assert_eq!(mean(&[1.0, 2.0, 6.0]), 3.0);
        assert_eq!(ratio(3.0, 0.0), 0.0);
        assert_eq!(ratio(1.5, 0.5), 3.0);
    }

    #[test]
    fn samples_keep_traced_and_plain_apart() {
        let mut s = Samples::default();
        s.push(false, 1.0);
        s.push(true, 5.0);
        s.push(false, 3.0);
        assert_eq!(s.side(false), &[1.0, 3.0]);
        assert_eq!(s.side(true), &[5.0]);
    }
}
