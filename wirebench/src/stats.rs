//! The benchmark's own arithmetic: medians, quartiles and tail
//! percentiles. Kept small and self-tested, because every reported
//! figure passes through it.

/// Samples that must lie beyond a reported tail percentile.
pub const MIN_BEYOND: usize = 10;

/// Median of `values` (mean of the middle two for an even count); `None`
/// when empty.
#[must_use]
pub fn median(values: &[f64]) -> Option<f64> {
    let v = sorted(values);
    let n = v.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(v[n / 2]),
        _ => Some((v[n / 2 - 1] + v[n / 2]) / 2.0),
    }
}

/// First and third quartile, computed exactly as Python's
/// `statistics.quantiles(values, n=4)` (the default "exclusive" method),
/// so the figures here match the acceptance check's. Needs two values.
#[must_use]
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    let data = sorted(values);
    let ld = data.len();
    if ld < 2 {
        return None;
    }
    let n = 4usize;
    let m = ld + 1;
    let cut = |i: usize| {
        let j = (i * m / n).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * n) as f64;
        (data[j - 1] * (n as f64 - delta) + data[j] * delta) / n as f64
    };
    Some((cut(1), cut(3)))
}

/// The highest whole percentile `p ≤ want` that leaves at least
/// [`MIN_BEYOND`] of `n` samples strictly above the nearest-rank
/// position; `None` when even the median would not.
#[must_use]
pub fn tail_percentile(n: usize, want: u32) -> Option<u32> {
    if n < MIN_BEYOND + 1 {
        return None;
    }
    let p = (0..=want)
        .rev()
        .find(|&p| n - nearest_rank(n, p) >= MIN_BEYOND)?;
    (p >= 50).then_some(p)
}

/// Nearest-rank percentile: the smallest value with at least `p`% of the
/// samples at or below it.
#[must_use]
pub fn percentile(values: &[f64], p: u32) -> Option<f64> {
    let v = sorted(values);
    if v.is_empty() {
        return None;
    }
    Some(v[nearest_rank(v.len(), p).max(1) - 1])
}

/// 1-based rank of the `p`th percentile among `n` samples.
pub fn nearest_rank(n: usize, p: u32) -> usize {
    (p as usize * n).div_ceil(100)
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[3.0]), Some(3.0));
        assert_eq!(median(&[5.0, 1.0, 3.0]), Some(3.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
    }

    /// Reference values from CPython 3.11 `statistics.quantiles(d, n=4)`.
    #[test]
    fn quartiles_match_python_exclusive_method() {
        assert_eq!(quartiles(&[1.0]), None);
        assert_eq!(quartiles(&[1.0, 2.0]), Some((0.75, 2.25)));
        assert_eq!(quartiles(&[1.0, 2.0, 3.0, 4.0]), Some((1.25, 3.75)));
        assert_eq!(quartiles(&[5.0, 1.0, 4.0, 2.0, 3.0]), Some((1.5, 4.5)));
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), Some((2.75, 8.25)));
    }

    #[test]
    fn tail_percentile_keeps_ten_samples_beyond() {
        assert_eq!(tail_percentile(100, 90), Some(90));
        assert_eq!(tail_percentile(250, 90), Some(90));
        assert_eq!(tail_percentile(99, 90), Some(89));
        assert_eq!(tail_percentile(50, 90), Some(80));
        assert_eq!(tail_percentile(20, 90), Some(50));
        assert_eq!(tail_percentile(19, 90), None);
        assert_eq!(tail_percentile(5, 90), None);
        for n in 20..400 {
            let p = tail_percentile(n, 90).unwrap();
            assert!(n - nearest_rank(n, p) >= MIN_BEYOND, "n={n} p={p}");
            if p < 90 {
                assert!(
                    n - nearest_rank(n, p + 1) < MIN_BEYOND,
                    "n={n}: p+1 also fits"
                );
            }
        }
    }

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50), Some(50.0));
        assert_eq!(percentile(&v, 90), Some(90.0));
        assert_eq!(percentile(&v, 100), Some(100.0));
        assert_eq!(percentile(&v, 0), Some(1.0));
        assert_eq!(percentile(&[], 50), None);
    }
}
