//! Order statistics over raw samples.

/// Linear-interpolated quantile `q` (`0.0..=1.0`) of `values`; 0 when
/// empty.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// Median of `values`; 0 when empty.
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Distance between the first and third quartile.
pub fn iqr(values: &[f64]) -> f64 {
    quantile(values, 0.75) - quantile(values, 0.25)
}

/// Geometric mean of positive values; 0 when empty.
pub fn geomean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    (values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp()
}

/// Percentiles a tail is reported at, highest first. Beyond p99 a
/// shared two-vCPU host reads mostly scheduler noise.
const TAIL_PERCENTILES: [f64; 4] = [99.0, 90.0, 75.0, 50.0];

/// The highest of [`TAIL_PERCENTILES`] that has at least ten samples
/// beyond it among `n` samples.
pub fn tail_percentile(n: usize) -> f64 {
    TAIL_PERCENTILES.into_iter().find(|p| n as f64 * (1.0 - p / 100.0) >= 10.0).unwrap_or(50.0)
}

/// Max over mean of per-thread busy times (1 = balanced).
pub fn max_over_mean(busy: &[f64]) -> f64 {
    let mean = busy.iter().sum::<f64>() / busy.len().max(1) as f64;
    let max = busy.iter().copied().fold(0.0, f64::max);
    if mean > 0.0 {
        max / mean
    } else {
        1.0
    }
}
