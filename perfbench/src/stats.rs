//! Summary statistics over measured samples: medians, the tail
//! percentile rule, and geometric means.

/// Fewest samples that must rank above a value for it to count as a
/// tail percentile.
pub const TAIL_BEYOND: usize = 10;

/// The median (mean of the two middle values for an even count); NaN
/// for no samples.
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// A tail percentile: its value, which percentile it is, and how many
/// samples rank above it.
#[derive(Copy, Clone, Debug, PartialEq)]
pub struct Tail {
    /// The percentile, as a whole number.
    pub pct: u32,
    /// The sample at that percentile.
    pub value: f64,
    /// Samples ranked above it (at least [`TAIL_BEYOND`]).
    pub beyond: usize,
    /// Samples in total.
    pub n: usize,
}

/// Nearest-rank index of percentile `pct` among `n` sorted samples.
fn rank(pct: u32, n: usize) -> usize {
    (u64::from(pct) * n as u64).div_ceil(100).max(1) as usize - 1
}

/// The highest whole percentile that still has at least
/// [`TAIL_BEYOND`] samples ranked above it; `None` when there are too
/// few samples for any percentile to qualify.
pub fn tail(xs: &[f64]) -> Option<Tail> {
    let n = xs.len();
    if n <= TAIL_BEYOND {
        return None;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    (1..=99u32).rev().find_map(|pct| {
        let idx = rank(pct, n);
        let beyond = n - 1 - idx;
        (beyond >= TAIL_BEYOND).then(|| Tail {
            pct,
            value: v[idx],
            beyond,
            n,
        })
    })
}

/// Geometric mean of positive values; NaN for none.
pub fn geomean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    (xs.iter().map(|x| x.ln()).sum::<f64>() / xs.len() as f64).exp()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_handles_odd_even_and_order() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        let ten: Vec<f64> = (0..10).map(f64::from).collect();
        assert_eq!(tail(&ten), None);
        // 100 samples 1..=100: p90 is 90 with exactly 10 above it; p91
        // would leave only 9.
        let hundred: Vec<f64> = (1..=100).map(f64::from).collect();
        let t = tail(&hundred).unwrap();
        assert_eq!((t.pct, t.value, t.beyond, t.n), (90, 90.0, 10, 100));
    }

    #[test]
    fn tail_percentile_falls_with_fewer_samples() {
        let forty: Vec<f64> = (1..=40).map(f64::from).collect();
        let t = tail(&forty).unwrap();
        assert_eq!((t.pct, t.value, t.beyond), (75, 30.0, 10));
        let eleven: Vec<f64> = (1..=11).map(f64::from).collect();
        let t = tail(&eleven).unwrap();
        assert_eq!((t.value, t.beyond), (1.0, 10));
    }

    #[test]
    fn tail_ignores_input_order() {
        let mut xs: Vec<f64> = (1..=100).map(f64::from).collect();
        xs.reverse();
        assert_eq!(tail(&xs).unwrap().value, 90.0);
    }

    #[test]
    fn geomean_of_ratios() {
        assert!((geomean(&[2.0, 8.0]) - 4.0).abs() < 1e-12);
        assert!(geomean(&[]).is_nan());
    }
}
