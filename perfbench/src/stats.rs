//! Order statistics for the reported metrics.

/// Median of `values` (mean of the middle pair for even counts).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len().is_multiple_of(2) {
        (v[mid - 1] + v[mid]) / 2.0
    } else {
        v[mid]
    }
}

/// The `q`-quantile of `sorted` (nearest rank), or `None` when fewer than
/// ten samples lie beyond it — a percentile resting on one or two samples
/// moves with every run.
pub fn percentile(sorted: &[u64], q: f64) -> Option<u64> {
    let n = sorted.len();
    if n == 0 {
        return None;
    }
    let rank = ((n as f64 * q).ceil() as usize).clamp(1, n) - 1;
    if n - 1 - rank < 10 {
        return None;
    }
    Some(sorted[rank])
}

/// Wall time of a fixed set of work units, each timed on every pass: the
/// sum over units of the unit's median time. Every pass repeats the same
/// units on the same inputs, so a unit's times differ only by host noise,
/// and the per-unit median drops the passes a co-tenant disturbed.
#[derive(Debug, Default)]
pub struct UnitTimes {
    times: Vec<Vec<f64>>,
}

impl UnitTimes {
    pub fn push(&mut self, unit: usize, seconds: f64) {
        if self.times.len() <= unit {
            self.times.resize_with(unit + 1, Vec::new);
        }
        self.times[unit].push(seconds);
    }

    /// Timed samples over all units.
    pub fn samples(&self) -> usize {
        self.times.iter().map(Vec::len).sum()
    }

    /// Each timed unit's median seconds, in unit order.
    pub fn unit_medians(&self) -> Vec<f64> {
        self.times
            .iter()
            .filter(|t| !t.is_empty())
            .map(|t| median(t))
            .collect()
    }

    /// Summed per-unit median seconds.
    pub fn median_total(&self) -> f64 {
        self.unit_medians().iter().sum()
    }

    /// `other`'s summed per-unit medians over `self`'s, on the units both
    /// timed; `None` when they share none.
    pub fn ratio_on_shared_units(&self, other: &UnitTimes) -> Option<f64> {
        let (mut mine, mut theirs) = (0.0, 0.0);
        for (a, b) in self.times.iter().zip(&other.times) {
            if !a.is_empty() && !b.is_empty() {
                mine += median(a);
                theirs += median(b);
            }
        }
        (mine > 0.0).then(|| theirs / mine)
    }
}

/// Latency percentiles taken per block of whole passes and reported as
/// their median over blocks. Every pass serves the same stream, so a block
/// a co-tenant disturbed is one outlier sample, and memory stays bounded
/// however many passes a run makes. A block closes at the first pass end
/// where it holds enough samples for at least 10 to lie beyond `hi`.
#[derive(Debug)]
pub struct BlockPercentiles {
    hi: f64,
    current: Vec<u64>,
    blocks: Vec<(f64, f64)>,
}

impl BlockPercentiles {
    /// Blocks report p50 and the `hi` quantile.
    pub fn new(hi: f64) -> Self {
        BlockPercentiles {
            hi,
            current: Vec::new(),
            blocks: Vec::new(),
        }
    }

    pub fn extend(&mut self, samples_ns: &[u64]) {
        self.current.extend_from_slice(samples_ns);
    }

    /// A pass ended: close the block if it has enough samples.
    pub fn end_pass(&mut self) {
        self.current.sort_unstable();
        if let (Some(p50), Some(hi)) = (
            percentile(&self.current, 0.5),
            percentile(&self.current, self.hi),
        ) {
            self.blocks.push((p50 as f64, hi as f64));
            self.current.clear();
        }
    }

    /// (median over blocks of the block p50s, of the block `hi`
    /// quantiles), in ns; `None` before the first block closed.
    pub fn medians(&self) -> Option<(f64, f64)> {
        if self.blocks.is_empty() {
            return None;
        }
        let lo: Vec<f64> = self.blocks.iter().map(|b| b.0).collect();
        let hi: Vec<f64> = self.blocks.iter().map(|b| b.1).collect();
        Some((median(&lo), median(&hi)))
    }

    pub fn blocks(&self) -> usize {
        self.blocks.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_handles_odd_and_even() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn percentile_needs_ten_beyond() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&v, 0.5), Some(50));
        assert_eq!(percentile(&v, 0.9), Some(90));
        assert_eq!(percentile(&v, 0.99), None);
    }

    #[test]
    fn blocks_close_only_with_ten_beyond() {
        let mut b = BlockPercentiles::new(0.9);
        b.extend(&(1..=50).collect::<Vec<u64>>());
        b.end_pass();
        assert!(b.medians().is_none(), "50 samples leave 5 beyond p90");
        b.extend(&(51..=110).collect::<Vec<u64>>());
        b.end_pass();
        assert_eq!(b.blocks(), 1);
        assert_eq!(b.medians(), Some((55.0, 99.0)));
    }

    #[test]
    fn unit_times_sum_medians() {
        let mut u = UnitTimes::default();
        for t in [1.0, 9.0, 1.2] {
            u.push(0, t);
        }
        u.push(1, 2.0);
        assert!((u.median_total() - 3.2).abs() < 1e-12);
        assert_eq!(u.unit_medians(), vec![1.2, 2.0]);
    }
}
