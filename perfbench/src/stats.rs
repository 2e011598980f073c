//! Order statistics over measured samples.

/// The `q`-quantile (0 ≤ q ≤ 1) of `xs` by the nearest-rank rule. Sorts
/// `xs` in place; infinite values (failed requests) sort last, so they
/// count as misses of any latency limit. `None` for an empty sample.
pub fn quantile(xs: &mut [f64], q: f64) -> Option<f64> {
    if xs.is_empty() {
        return None;
    }
    xs.sort_by(f64::total_cmp);
    let rank = (q * xs.len() as f64).ceil() as usize;
    Some(xs[rank.clamp(1, xs.len()) - 1])
}

/// The median of `xs` (mean of the middle pair for an even count).
pub fn median(xs: &[f64]) -> Option<f64> {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(v[n / 2]),
        _ => Some((v[n / 2 - 1] + v[n / 2]) / 2.0),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_quantiles() {
        let mut xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile(&mut xs, 0.5), Some(50.0));
        assert_eq!(quantile(&mut xs, 0.99), Some(99.0));
        assert_eq!(quantile(&mut xs, 1.0), Some(100.0));
        assert_eq!(quantile(&mut xs, 0.0), Some(1.0));
        let mut failed = vec![1.0, f64::INFINITY, 2.0];
        assert_eq!(quantile(&mut failed, 1.0), Some(f64::INFINITY));
        assert_eq!(quantile(&mut [], 0.5), None);
    }

    #[test]
    fn medians() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }
}
