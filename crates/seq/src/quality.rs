//! Per-base quality values.
//!
//! Sequencers emit a quality (phred-like) value per base; quality decays
//! toward the read ends. The Lucy-style trimmer in `pgasm-preprocess`
//! consumes these to find the high-quality insert region, matching the
//! paper's preprocessing stage (§8).

/// Phred-scaled quality values for one fragment, one `u8` per base.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct QualityTrack {
    values: Vec<u8>,
}

impl QualityTrack {
    /// Uniform quality `q` over `len` bases.
    pub fn uniform(len: usize, q: u8) -> Self {
        QualityTrack { values: vec![q; len] }
    }

    /// From raw values.
    pub fn from_values(values: Vec<u8>) -> Self {
        QualityTrack { values }
    }

    /// Raw values.
    #[inline]
    pub fn values(&self) -> &[u8] {
        &self.values
    }

    /// Number of bases covered.
    #[inline]
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// True when empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Mean quality over `[start, end)`; 0.0 for an empty window.
    pub fn mean(&self, start: usize, end: usize) -> f64 {
        let w = &self.values[start..end.min(self.values.len())];
        if w.is_empty() {
            return 0.0;
        }
        w.iter().map(|&q| q as f64).sum::<f64>() / w.len() as f64
    }

    /// The longest window whose *every* sliding `window`-mean is at least
    /// `min_mean`, returned as `(start, end)`. This is the core of
    /// Lucy-style quality trimming: it finds the maximal high-quality
    /// stretch of the read. Returns `None` when no window qualifies.
    ///
    /// A window qualifies when its sum `s` meets `s + 1e-9 ≥ min_mean ·
    /// window` in `f64`; `min_window_sum` turns that into one integer
    /// bound, so the scan itself sums integers.
    pub fn best_window(&self, window: usize, min_mean: f64) -> Option<(usize, usize)> {
        if self.values.len() < window || window == 0 {
            return None;
        }
        let min_sum = min_window_sum(window, min_mean)?;
        let v = &self.values;
        let mut sum: u64 = v[..window].iter().map(|&q| q as u64).sum();
        let mut best: Option<(usize, usize)> = None;
        let mut run_start: Option<usize> = None;
        let close_run = |run_start: &mut Option<usize>, end: usize, best: &mut Option<(usize, usize)>| {
            if let Some(s) = run_start.take() {
                let candidate = (s, end);
                if best.is_none_or(|(bs, be)| candidate.1 - candidate.0 > be - bs) {
                    *best = Some(candidate);
                }
            }
        };
        for i in 0..=v.len() - window {
            if i > 0 {
                sum = sum + v[i + window - 1] as u64 - v[i - 1] as u64;
            }
            if sum >= min_sum {
                if run_start.is_none() {
                    run_start = Some(i);
                }
            } else {
                close_run(&mut run_start, i + window - 1, &mut best);
            }
        }
        close_run(&mut run_start, v.len(), &mut best);
        best
    }

    /// Restrict to `[start, end)`.
    pub fn slice(&self, start: usize, end: usize) -> QualityTrack {
        QualityTrack { values: self.values[start..end].to_vec() }
    }
}

/// The least window sum `s` with `s + 1e-9 ≥ min_mean · window` in
/// `f64` (the mean test of [`QualityTrack::best_window`] on an integer
/// sum), or `None` when no sum of `window` qualities reaches it. The test
/// is monotone in `s`, so the bound is found next to its real-number
/// value and stepped onto the exact `f64` one.
fn min_window_sum(window: usize, min_mean: f64) -> Option<u64> {
    let threshold = min_mean * window as f64;
    let passes = |s: u64| s as f64 + 1e-9 >= threshold;
    let max = window as u64 * u8::MAX as u64;
    if !passes(max) {
        return None;
    }
    let mut s = (threshold - 1e-9).ceil().clamp(0.0, max as f64) as u64;
    while s > 0 && passes(s - 1) {
        s -= 1;
    }
    while !passes(s) {
        s += 1;
    }
    Some(s)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn uniform_and_mean() {
        let q = QualityTrack::uniform(10, 30);
        assert_eq!(q.len(), 10);
        assert!((q.mean(0, 10) - 30.0).abs() < 1e-12);
        assert_eq!(q.mean(5, 5), 0.0);
    }

    #[test]
    fn best_window_full_when_clean() {
        let q = QualityTrack::uniform(50, 40);
        assert_eq!(q.best_window(10, 20.0), Some((0, 50)));
    }

    #[test]
    fn best_window_trims_bad_ends() {
        let mut v = vec![40u8; 30];
        for q in v.iter_mut().take(5) {
            *q = 2;
        }
        for q in v.iter_mut().skip(25) {
            *q = 2;
        }
        let q = QualityTrack::from_values(v);
        let (s, e) = q.best_window(5, 30.0).unwrap();
        // A window whose mean clears the bar may still include one low
        // boundary base, so allow the run to start/end one base into the
        // bad flanks.
        assert!(s >= 4 && e <= 26, "window ({s},{e}) should exclude bad ends");
        assert!(e - s >= 18, "window too short: ({s},{e})");
    }

    #[test]
    fn best_window_none_when_all_bad() {
        let q = QualityTrack::uniform(30, 5);
        assert_eq!(q.best_window(10, 20.0), None);
    }

    #[test]
    fn best_window_too_short_input() {
        let q = QualityTrack::uniform(4, 40);
        assert_eq!(q.best_window(5, 20.0), None);
    }

    #[test]
    fn best_window_picks_longest_run() {
        // 10 good, 10 bad, 20 good: the second run should win.
        let mut v = Vec::new();
        v.extend(std::iter::repeat_n(40u8, 10));
        v.extend(std::iter::repeat_n(2u8, 10));
        v.extend(std::iter::repeat_n(40u8, 20));
        let q = QualityTrack::from_values(v);
        let (s, e) = q.best_window(5, 30.0).unwrap();
        // The window mean tolerates one low base at the boundary, so the
        // run may begin slightly inside the bad region.
        assert!(s >= 15 && e == 40, "expected the trailing run, got ({s},{e})");
    }

    /// `best_window` as it was defined on `f64` sums: the reference the
    /// integer scan must equal.
    fn best_window_f64(values: &[u8], window: usize, min_mean: f64) -> Option<(usize, usize)> {
        if values.len() < window || window == 0 {
            return None;
        }
        let threshold = min_mean * window as f64;
        let mut sum: f64 = values[..window].iter().map(|&q| q as f64).sum();
        let mut best: Option<(usize, usize)> = None;
        let mut run_start: Option<usize> = None;
        for i in 0..=values.len() - window {
            if i > 0 {
                sum += values[i + window - 1] as f64 - values[i - 1] as f64;
            }
            if sum + 1e-9 >= threshold {
                run_start.get_or_insert(i);
            } else if let Some(s) = run_start.take() {
                if best.is_none_or(|(bs, be)| i + window - 1 - s > be - bs) {
                    best = Some((s, i + window - 1));
                }
            }
        }
        if let Some(s) = run_start {
            if best.is_none_or(|(bs, be)| values.len() - s > be - bs) {
                best = Some((s, values.len()));
            }
        }
        best
    }

    /// `x` moved `steps` ulps (negative: toward −∞), for finite `x > 0`.
    fn ulps(x: f64, steps: i64) -> f64 {
        f64::from_bits((x.to_bits() as i64 + steps) as u64)
    }

    #[test]
    fn integer_threshold_is_the_f64_mean_test() {
        // Every window and every mean that puts `min_mean · window` on or
        // one or two ulps beside an integer sum, against the least sum a
        // window can have that passes the f64 test (a binary search: the
        // test is monotone in the sum).
        for window in 1..=40usize {
            let sums: Vec<u64> = (0..=window as u64 * 255).collect();
            for target in (0..sums.len() as u64).step_by(1 + window / 4) {
                let exact = target as f64 / window as f64;
                for steps in -2..=2 {
                    let min_mean = if exact > 0.0 { ulps(exact, steps) } else { exact };
                    let threshold = min_mean * window as f64;
                    let least = sums.partition_point(|&s| s as f64 + 1e-9 < threshold);
                    let want = sums.get(least).copied();
                    assert_eq!(min_window_sum(window, min_mean), want, "window {window}, mean {min_mean:e}");
                }
            }
        }
        for min_mean in [f64::NAN, f64::INFINITY, 255.5, 256.0] {
            assert_eq!(min_window_sum(10, min_mean), None, "{min_mean}");
        }
        for min_mean in [f64::NEG_INFINITY, -3.0, 0.0, -0.0] {
            assert_eq!(min_window_sum(10, min_mean), Some(0), "{min_mean}");
        }
        assert_eq!(min_window_sum(10, 255.0), Some(2550));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(400))]

        #[test]
        fn best_window_equals_the_f64_definition(
            values in prop::collection::vec(0u8..60, 0..200),
            window in 1usize..30,
            target in 0u64..1_500,
            steps in -2i64..3,
            jitter in 0u8..2,
        ) {
            // Thresholds on, and one or two ulps beside, an integer sum;
            // or a mean drawn between them.
            let exact = target as f64 / window as f64;
            let min_mean = if jitter == 1 { exact + 0.37 } else if exact > 0.0 { ulps(exact, steps) } else { exact };
            let track = QualityTrack::from_values(values.clone());
            prop_assert_eq!(track.best_window(window, min_mean), best_window_f64(&values, window, min_mean));
        }
    }

    #[test]
    fn slice_track() {
        let q = QualityTrack::from_values(vec![1, 2, 3, 4]);
        assert_eq!(q.slice(1, 3).values(), &[2, 3]);
    }
}
