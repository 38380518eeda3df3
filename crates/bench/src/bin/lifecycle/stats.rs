//! Order statistics used by every reported metric.
//!
//! Quartiles follow Python's `statistics.quantiles(values, n=4)` (the
//! default *exclusive* method), because that is what the acceptance
//! protocol computes over repeated runs; the in-run numbers are then
//! directly comparable with the between-run ones.

/// Median, quartiles and extremes of one sample.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub n: usize,
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
    pub min: f64,
    pub max: f64,
}

/// Interquartile range as a share of the median (0 for a flat sample): the
/// spread the acceptance protocol compares with a metric's bound.
pub fn spread(median: f64, q1: f64, q3: f64) -> f64 {
    if median == 0.0 {
        0.0
    } else {
        (q3 - q1) / median.abs()
    }
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// The `q`-quantile (0 < q < 1) of an ascending sample at the exclusive
/// plotting position `q * (n + 1)`, linearly interpolated and clamped to the
/// sample's range. A single value is its own quantile.
fn quantile_sorted(v: &[f64], q: f64) -> f64 {
    let n = v.len();
    let pos = (q * (n as f64 + 1.0)).clamp(1.0, n as f64);
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo - 1] + (v[hi - 1] - v[lo - 1]) * (pos - lo as f64)
}

/// Summarizes a non-empty sample. `None` when there is nothing to summarize,
/// so a metric without samples is reported as missing instead of as zero.
pub fn summarize(values: &[f64]) -> Option<Summary> {
    if values.is_empty() {
        return None;
    }
    let v = sorted(values);
    Some(Summary {
        n: v.len(),
        median: quantile_sorted(&v, 0.5),
        q1: quantile_sorted(&v, 0.25),
        q3: quantile_sorted(&v, 0.75),
        min: v[0],
        max: v[v.len() - 1],
    })
}

pub fn median(values: &[f64]) -> Option<f64> {
    summarize(values).map(|s| s.median)
}

/// Nearest-rank percentile (`p` in (0, 100]): the smallest sample value with
/// at least `p` percent of the sample at or below it. Never interpolates, so
/// a reported p95 is a latency some request really had.
pub fn percentile(values: &[f64], p: f64) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let v = sorted(values);
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    Some(v[rank.clamp(1, v.len()) - 1])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], n=4) == [2.75, 5.5, 8.25]
        let s = summarize(&[10.0, 1.0, 9.0, 2.0, 8.0, 3.0, 7.0, 4.0, 6.0, 5.0]).unwrap();
        assert_eq!((s.q1, s.median, s.q3), (2.75, 5.5, 8.25));
        assert_eq!((s.n, s.min, s.max), (10, 1.0, 10.0));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        let s = summarize(&[3.0, 1.0, 2.0]).unwrap();
        assert_eq!((s.q1, s.median, s.q3), (1.0, 2.0, 3.0));
    }

    #[test]
    fn degenerate_samples() {
        assert!(summarize(&[]).is_none());
        assert!(percentile(&[], 95.0).is_none());
        let s = summarize(&[4.0]).unwrap();
        assert_eq!((s.q1, s.median, s.q3, spread(s.median, s.q1, s.q3)), (4.0, 4.0, 4.0, 0.0));
        assert_eq!(median(&[1.0, 3.0]), Some(2.0));
    }

    #[test]
    fn spread_is_iqr_over_median() {
        let s = summarize(&[1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0]).unwrap();
        assert_eq!((s.q1, s.median, s.q3), (2.0, 4.0, 6.0));
        assert_eq!(spread(s.median, s.q1, s.q3), 1.0);
        assert_eq!(spread(0.0, 0.0, 0.0), 0.0);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 95.0), Some(95.0));
        assert_eq!(percentile(&v, 99.0), Some(99.0));
        assert_eq!(percentile(&v, 100.0), Some(100.0));
        assert_eq!(percentile(&[5.0, 1.0], 50.0), Some(1.0));
        // 11 requests with one slow class member: p95 is that member.
        let mut reqs = vec![1.0; 10];
        reqs.push(9.0);
        assert_eq!(percentile(&reqs, 95.0), Some(9.0));
    }
}
