//! Order statistics over latency samples.

/// A percentile is only reported when at least this many samples lie
/// beyond it; a p90 therefore needs at least 100 samples.
pub const MIN_BEYOND: usize = 10;

/// 1-based nearest rank of quantile `q` among `n` samples.
fn rank(n: usize, q: f64) -> usize {
    // `q·n` is at most `n`, so the conversion cannot overflow.
    #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
    let r = (q * n as f64).ceil() as usize;
    r.clamp(1, n)
}

/// Nearest-rank quantile of ascending `sorted`: the smallest sample
/// with at least `q·n` samples at or below it. `None` when empty or
/// when `q` is outside `[0, 1]`.
pub fn nearest_rank(sorted: &[f64], q: f64) -> Option<f64> {
    if sorted.is_empty() || !(0.0..=1.0).contains(&q) {
        return None;
    }
    sorted.get(rank(sorted.len(), q) - 1).copied()
}

/// The `q` quantile, only when [`MIN_BEYOND`] samples lie beyond it.
pub fn tail(sorted: &[f64], q: f64) -> Option<f64> {
    let n = sorted.len();
    if n == 0 || n - rank(n, q) < MIN_BEYOND {
        return None;
    }
    nearest_rank(sorted, q)
}

/// Samples of one quantity, kept in arrival order.
#[derive(Debug, Clone, Default)]
pub struct Samples(Vec<f64>);

impl Samples {
    pub fn push(&mut self, v: f64) {
        self.0.push(v);
    }

    pub fn values(&self) -> &[f64] {
        &self.0
    }

    pub fn len(&self) -> usize {
        self.0.len()
    }

    pub fn sorted(&self) -> Vec<f64> {
        let mut v = self.0.clone();
        v.sort_by(f64::total_cmp);
        v
    }

    /// Nearest-rank median; 0 when there are no samples.
    pub fn median(&self) -> f64 {
        nearest_rank(&self.sorted(), 0.5).unwrap_or(0.0)
    }

    /// Nearest-rank `q` quantile under the [`MIN_BEYOND`] rule.
    pub fn tail(&self, q: f64) -> Option<f64> {
        tail(&self.sorted(), q)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_picks_an_observed_sample() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(nearest_rank(&v, 0.5), Some(5.0));
        assert_eq!(nearest_rank(&v, 0.9), Some(9.0));
        assert_eq!(nearest_rank(&v, 0.91), Some(10.0));
        assert_eq!(nearest_rank(&v, 0.0), Some(1.0));
        assert_eq!(nearest_rank(&v, 1.0), Some(10.0));
        assert_eq!(nearest_rank(&[], 0.5), None);
        assert_eq!(nearest_rank(&v, 1.5), None);
        assert_eq!(nearest_rank(&[7.0], 0.99), Some(7.0));
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        let hundred: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(tail(&hundred, 0.9), Some(90.0));
        assert_eq!(tail(&hundred, 0.99), None, "only one sample beyond p99");
        let ninety_nine = &hundred[..99];
        assert_eq!(tail(ninety_nine, 0.9), None, "nine samples beyond");
        let thousand: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(tail(&thousand, 0.99), Some(990.0));
        assert_eq!(tail(&[], 0.5), None);
    }

    #[test]
    fn samples_sort_a_copy() {
        let mut s = Samples::default();
        for v in [3.0, 1.0, 2.0] {
            s.push(v);
        }
        assert_eq!(s.median(), 2.0);
        assert_eq!(s.sorted(), vec![1.0, 2.0, 3.0]);
        assert_eq!(Samples::default().median(), 0.0);
    }
}
