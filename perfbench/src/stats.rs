//! Order statistics over host-time samples.

/// Fewest samples that must lie strictly beyond a reported tail rank;
/// a tail read off fewer is one or two unlucky items, not a percentile.
pub const MIN_TAIL_SAMPLES: usize = 10;

/// Median of `xs` (mean of the middle pair for an even count).
///
/// # Panics
///
/// Panics on an empty slice.
pub fn median(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "median of no samples");
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// The nearest-rank `q` quantile of `xs`, refused (`Err` with the
/// number of samples beyond it) when fewer than [`MIN_TAIL_SAMPLES`]
/// samples lie above the chosen rank.
pub fn tail_quantile(xs: &[f64], q: f64) -> Result<f64, usize> {
    assert!((0.0..1.0).contains(&q), "tail quantile {q} outside [0, 1)");
    let n = xs.len();
    if n == 0 {
        return Err(0);
    }
    let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
    let beyond = n - rank;
    if beyond < MIN_TAIL_SAMPLES {
        return Err(beyond);
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    Ok(v[rank - 1])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn p90_needs_ten_samples_beyond_it() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        // Rank 90 of 100 leaves exactly ten samples above it.
        assert_eq!(tail_quantile(&xs, 0.9), Ok(90.0));
        // One sample fewer leaves only nine beyond the rank: refused.
        assert_eq!(tail_quantile(&xs[..99], 0.9), Err(9));
        assert_eq!(tail_quantile(&xs[..20], 0.9), Err(2));
        assert_eq!(tail_quantile(&[], 0.5), Err(0));
    }
}
