//! Order statistics over timed repetitions.

/// Five-number summary plus the sample count, as written to
/// `results.json` beside every timed metric.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub n: usize,
    pub min: f64,
    pub q1: f64,
    pub median: f64,
    pub q3: f64,
    pub max: f64,
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    v
}

/// Median; the mean of the two middle values for an even count.
/// Panics on an empty slice (a metric with no sample is a harness bug).
pub fn median(values: &[f64]) -> f64 {
    let v = sorted(values);
    assert!(!v.is_empty(), "median of no samples");
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Mean of what is left after the lowest and the highest tenth of the
/// samples (rounded down) are dropped: what a timing reports. On the
/// reference host repetitions fall into a fast and a slow mode, so their
/// median jumps between the two from run to run where their mean moves
/// smoothly; the trimming keeps one stalled repetition out of it.
pub fn trimmed_mean(values: &[f64]) -> f64 {
    let v = sorted(values);
    assert!(!v.is_empty(), "mean of no samples");
    let kept = &v[v.len() / 10..v.len() - v.len() / 10];
    kept.iter().sum::<f64>() / kept.len() as f64
}

/// First and third quartile exactly as Python's
/// `statistics.quantiles(values, n=4)` (the exclusive method) computes
/// them, because that is what the acceptance driver applies to the
/// printed metrics. A single sample is its own quartiles.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let v = sorted(values);
    assert!(!v.is_empty(), "quartiles of no samples");
    if v.len() == 1 {
        return (v[0], v[0]);
    }
    let ld = v.len();
    let m = ld + 1;
    let cut = |i: usize| {
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (cut(1), cut(3))
}

pub fn summarize(values: &[f64]) -> Summary {
    let v = sorted(values);
    let (q1, q3) = quartiles(&v);
    Summary { n: v.len(), min: v[0], q1, median: median(&v), q3, max: v[v.len() - 1] }
}

/// Interquartile range as a share of the median — the run-to-run
/// spread `compare` holds against a metric's bound.
pub fn spread(values: &[f64]) -> f64 {
    let (q1, q3) = quartiles(values);
    let m = median(values);
    if m == 0.0 {
        0.0
    } else {
        (q3 - q1) / m.abs()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_even_unsorted() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.5]), 7.5);
    }

    #[test]
    fn trimmed_mean_drops_a_tenth_at_each_end() {
        assert_eq!(trimmed_mean(&[3.0, 1.0, 2.0]), 2.0);
        // Ten samples: the 0 and the 100 go, the eight 5s stay.
        let mut v = vec![5.0; 8];
        v.extend([100.0, 0.0]);
        assert_eq!(trimmed_mean(&v), 5.0);
        assert_eq!(trimmed_mean(&[7.5]), 7.5);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), (0.75, 2.25));
        // statistics.quantiles([10, 20, 40], n=4) == [10.0, 20.0, 40.0]
        assert_eq!(quartiles(&[10.0, 20.0, 40.0]), (10.0, 40.0));
        assert_eq!(quartiles(&[5.0]), (5.0, 5.0));
    }

    #[test]
    fn summary_and_spread() {
        let s = summarize(&[4.0, 2.0, 8.0, 6.0, 10.0]);
        assert_eq!((s.n, s.min, s.median, s.max), (5, 2.0, 6.0, 10.0));
        // statistics.quantiles([2,4,6,8,10], n=4) == [3.0, 6.0, 9.0]
        assert_eq!((s.q1, s.q3), (3.0, 9.0));
        assert_eq!(spread(&[2.0, 4.0, 6.0, 8.0, 10.0]), 1.0);
    }
}
