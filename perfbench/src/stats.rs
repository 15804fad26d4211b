//! Order statistics and q-error summaries used by every metric.

use gsword_core::estimators::q_error;

/// Nearest-rank percentile of `values` at `p` in `(0, 1]`, together with
/// the number of values strictly beyond its rank (the tail sample count).
///
/// The value is a measured sample, never an interpolation, so a p90 over
/// 100 samples is the 90th smallest with exactly 10 samples beyond it.
pub fn percentile(values: &[f64], p: f64) -> Option<(f64, usize)> {
    if values.is_empty() || !(p > 0.0 && p <= 1.0) {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((p * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    Some((sorted[rank - 1], sorted.len() - rank))
}

/// Median, first and third quartile and count of a sample set.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
    pub n: usize,
}

impl Summary {
    /// Summarise `values` by nearest rank; `None` when empty.
    pub fn of(values: &[f64]) -> Option<Summary> {
        Some(Summary {
            median: percentile(values, 0.5)?.0,
            q1: percentile(values, 0.25)?.0,
            q3: percentile(values, 0.75)?.0,
            n: values.len(),
        })
    }

    /// Summary of a single deterministic value.
    pub fn exact(v: f64) -> Summary {
        Summary {
            median: v,
            q1: v,
            q3: v,
            n: 1,
        }
    }
}

/// Arithmetic mean (0 for an empty set).
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// q-error over the queries whose exact count is known.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QErrorSummary {
    /// Median (with quartiles) over the scored queries.
    pub spread: Summary,
    pub p90: f64,
    /// Scored queries beyond the p90.
    pub beyond_p90: usize,
}

/// Score `(estimate, exact)` pairs; pairs with no exact count are left out
/// (callers report how many). `None` when nothing is scored.
pub fn qerror_summary(pairs: &[(f64, Option<u64>)]) -> Option<QErrorSummary> {
    let errors: Vec<f64> = pairs
        .iter()
        .filter_map(|&(est, truth)| truth.map(|t| q_error(est, t as f64)))
        .collect();
    let (p90, beyond_p90) = percentile(&errors, 0.9)?;
    Some(QErrorSummary {
        spread: Summary::of(&errors)?,
        p90,
        beyond_p90,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn p90_of_one_hundred_leaves_ten_beyond() {
        let v: Vec<f64> = (1..=100).rev().map(f64::from).collect();
        assert_eq!(percentile(&v, 0.9), Some((90.0, 10)));
        assert_eq!(percentile(&v, 0.5), Some((50.0, 50)));
        assert_eq!(percentile(&v, 1.0), Some((100.0, 0)));
    }

    #[test]
    fn percentile_of_small_sets_is_a_sample() {
        assert_eq!(percentile(&[3.0], 0.9), Some((3.0, 0)));
        assert_eq!(percentile(&[5.0, 1.0, 3.0], 0.5), Some((3.0, 1)));
        assert_eq!(percentile(&[], 0.5), None);
        assert_eq!(percentile(&[1.0], 0.0), None);
        let s = Summary::of(&[4.0, 1.0, 3.0, 2.0]).unwrap();
        assert_eq!((s.q1, s.median, s.q3, s.n), (1.0, 2.0, 3.0, 4));
    }

    #[test]
    fn qerror_handles_zero_and_undercounts() {
        // A zero estimate of a nonzero count is off by the whole count; a
        // zero estimate of zero is exact; an undercount by 4x scores 4.
        let s = qerror_summary(&[(0.0, Some(50)), (0.0, Some(0)), (10.0, Some(40))]).unwrap();
        assert_eq!(s.spread.n, 3);
        assert_eq!(s.spread.median, 4.0);
        assert_eq!((s.p90, s.beyond_p90), (50.0, 0));
    }

    #[test]
    fn qerror_counts_queries_without_an_oracle() {
        let s = qerror_summary(&[(8.0, Some(4)), (1e9, None)]).unwrap();
        assert_eq!(s.spread.n, 1);
        assert_eq!(s.spread.median, 2.0);
        assert_eq!(qerror_summary(&[(1.0, None)]), None);
    }
}
