//! Order statistics for reporting timings: median, quartiles, and the
//! tail percentile that still has at least [`TAIL_BEYOND`] samples above
//! it.

/// Samples that must lie beyond a reported tail percentile.
pub const TAIL_BEYOND: usize = 10;

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median of `values` (mean of the middle pair for an even count).
/// `None` for an empty slice.
pub fn median(values: &[f64]) -> Option<f64> {
    let v = sorted(values);
    let n = v.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(v[n / 2]),
        _ => Some((v[n / 2 - 1] + v[n / 2]) / 2.0),
    }
}

/// First and third quartiles by the same "exclusive" interpolation as
/// Python's `statistics.quantiles(values, n=4)`, so spreads computed here
/// and by an outside checker agree. `None` below two samples.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    let v = sorted(values);
    let n = v.len();
    if n < 2 {
        return None;
    }
    let m = n + 1;
    let q = |i: usize| {
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    Some((q(1), q(3)))
}

/// Interquartile range as a share of the median — the spread measure
/// the benchmark's bounds are checked against.
pub fn relative_spread(values: &[f64]) -> Option<f64> {
    let (q1, q3) = quartiles(values)?;
    let med = median(values)?;
    (med != 0.0).then(|| (q3 - q1) / med.abs())
}

/// The highest whole percentile that keeps at least [`TAIL_BEYOND`] of
/// `n` samples strictly beyond its rank. `None` when `n` is too small for
/// any percentile at or above the median to qualify.
pub fn tail_percentile(n: usize) -> Option<u32> {
    if n < 2 * TAIL_BEYOND {
        return None;
    }
    // Largest p with p·n/100 <= n − TAIL_BEYOND.
    Some((100 * (n - TAIL_BEYOND) / n) as u32)
}

/// Nearest-rank value of percentile `p` (1..=100) of `values`.
pub fn percentile(values: &[f64], p: u32) -> Option<f64> {
    let v = sorted(values);
    if v.is_empty() || p == 0 || p > 100 {
        return None;
    }
    let rank = (p as usize * v.len()).div_ceil(100).max(1);
    Some(v[rank - 1])
}

/// The value at tail percentile `p` of `values`, provided at least
/// [`TAIL_BEYOND`] samples lie beyond it (callers fix `p` from the
/// smallest sample count a run can produce, so it is the same on every
/// run, and report it with the sample count).
pub fn tail_at(values: &[f64], p: u32) -> Option<f64> {
    if tail_percentile(values.len())? < p {
        return None;
    }
    percentile(values, p)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some((2.75, 8.25)));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), Some((0.75, 2.25)));
        // statistics.quantiles([5, 1, 9, 3, 7], n=4) == [2.0, 5.0, 8.0]
        assert_eq!(quartiles(&[5.0, 1.0, 9.0, 3.0, 7.0]), Some((2.0, 8.0)));
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn relative_spread_is_iqr_over_median() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(relative_spread(&v), Some((8.25 - 2.75) / 5.5));
        assert_eq!(relative_spread(&[0.0, 0.0]), None);
    }

    #[test]
    fn tail_percentile_keeps_ten_samples_beyond() {
        assert_eq!(tail_percentile(19), None);
        assert_eq!(tail_percentile(20), Some(50));
        assert_eq!(tail_percentile(64), Some(84));
        assert_eq!(tail_percentile(200), Some(95));
        assert_eq!(tail_percentile(1000), Some(99));
        for n in 20..2000 {
            let p = tail_percentile(n).unwrap() as usize;
            let rank = (p * n).div_ceil(100);
            assert!(n - rank >= TAIL_BEYOND, "n={n} p={p}");
            // One percentile higher would leave fewer than ten beyond.
            let next = ((p + 1) * n).div_ceil(100);
            assert!(n - next < TAIL_BEYOND, "n={n} p={p} is not the highest");
        }
    }

    #[test]
    fn tail_keeps_ten_samples_beyond_its_value() {
        let v: Vec<f64> = (1..=64).map(f64::from).collect();
        let tail = tail_at(&v, 84).unwrap();
        assert_eq!(tail, 54.0);
        assert_eq!(v.iter().filter(|&&x| x > tail).count(), 10);
        // Too few samples for the requested percentile.
        assert_eq!(tail_at(&v[..40], 84), None);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v = [10.0, 20.0, 30.0, 40.0];
        assert_eq!(percentile(&v, 50), Some(20.0));
        assert_eq!(percentile(&v, 51), Some(30.0));
        assert_eq!(percentile(&v, 100), Some(40.0));
        assert_eq!(percentile(&v, 0), None);
    }
}
