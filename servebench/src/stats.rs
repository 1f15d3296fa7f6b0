//! Percentiles under the benchmark's sample rule: a percentile is only
//! reported when at least [`MIN_BEYOND`] samples lie beyond it, so a
//! p95 needs 200 samples and a median 20. Too few samples is an error
//! that fails the run, never a silently noisy number.

/// Samples that must lie strictly beyond a reported percentile.
pub const MIN_BEYOND: usize = 10;

/// The nearest-rank `q`-quantile of `samples` (`0 < q < 1`), or an
/// error naming how many samples were short.
pub fn percentile(samples: &[f64], q: f64) -> Result<f64, String> {
    assert!(q > 0.0 && q < 1.0, "quantile {q} out of (0, 1)");
    let n = samples.len();
    // Nearest rank: the smallest value with at least q·n samples at or
    // below it.
    let rank = ((q * n as f64).ceil() as usize).max(1);
    let beyond = n.saturating_sub(rank);
    if n == 0 || beyond < MIN_BEYOND {
        return Err(format!(
            "p{} of {n} samples leaves {beyond} beyond it; the rule needs {MIN_BEYOND} \
             (at least {} samples)",
            (q * 100.0).round(),
            min_samples(q)
        ));
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    Ok(sorted[rank - 1])
}

/// The fewest samples for which [`percentile`] accepts `q`.
pub fn min_samples(q: f64) -> usize {
    let mut n = MIN_BEYOND + 1;
    while n - ((q * n as f64).ceil() as usize).max(1) < MIN_BEYOND {
        n += 1;
    }
    n
}

/// Plain median (no sample rule), for repeated set-up timings and other
/// small fixed-size repeats.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of nothing");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn p95_needs_ten_samples_beyond_it() {
        assert_eq!(min_samples(0.95), 200);
        let ok: Vec<f64> = (1..=200).map(f64::from).collect();
        assert_eq!(percentile(&ok, 0.95).unwrap(), 190.0);
        let short: Vec<f64> = (1..=199).map(f64::from).collect();
        let err = percentile(&short, 0.95).unwrap_err();
        assert!(err.contains("needs 10"), "{err}");
        assert!(percentile(&[], 0.95).is_err());
    }

    #[test]
    fn median_and_p90_follow_the_same_rule() {
        assert_eq!(min_samples(0.5), 20);
        assert_eq!(min_samples(0.9), 100);
        let v: Vec<f64> = (1..=20).rev().map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5).unwrap(), 10.0);
        assert!(percentile(&v[..19], 0.5).is_err());
    }

    #[test]
    fn plain_median() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }
}
