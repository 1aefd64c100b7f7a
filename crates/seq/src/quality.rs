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
    pub fn best_window(&self, window: usize, min_mean: f64) -> Option<(usize, usize)> {
        if self.values.len() < window || window == 0 {
            return None;
        }
        let threshold = min_mean * window as f64;
        let mut sum: f64 = self.values[..window].iter().map(|&q| q as f64).sum();
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
        for i in 0..=self.values.len() - window {
            if i > 0 {
                sum += self.values[i + window - 1] as f64 - self.values[i - 1] as f64;
            }
            if sum + 1e-9 >= threshold {
                if run_start.is_none() {
                    run_start = Some(i);
                }
            } else {
                close_run(&mut run_start, i + window - 1, &mut best);
            }
        }
        close_run(&mut run_start, self.values.len(), &mut best);
        best
    }

    /// Restrict to `[start, end)`.
    pub fn slice(&self, start: usize, end: usize) -> QualityTrack {
        QualityTrack { values: self.values[start..end].to_vec() }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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

    #[test]
    fn slice_track() {
        let q = QualityTrack::from_values(vec![1, 2, 3, 4]);
        assert_eq!(q.slice(1, 3).values(), &[2, 3]);
    }
}
