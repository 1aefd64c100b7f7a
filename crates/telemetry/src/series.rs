//! Periodic gauge sampling: per-rank time series over the shared trace
//! epoch.
//!
//! A [`GaugeSampler`] is the time-series sibling of [`crate::Tracer`]:
//! one per rank, fed from the hot loops (master pump, comm staging,
//! worker batches) and rate-limited so instrumentation points can call
//! [`GaugeSampler::sample`] every iteration without flooding the
//! buffers. Timestamps come from the same [`TraceSpec`] epoch as trace
//! events, so gauge curves align with the event tracks in the Perfetto
//! export (`ph: "C"` counter tracks) and in the analyzer.
//!
//! Invariants mirror the tracer's: buffers are bounded (overflow counts
//! into `dropped`, never reallocates), the disabled path is one branch
//! and nothing else (measured in `disabled_sampler_off_path_is_cheap`),
//! and the sampler's own cost on the enabled path is accounted in
//! `overhead_ns` instead of silently polluting the measurement.

use crate::json::Json;
use crate::trace::TraceSpec;
use std::time::Instant;

/// Default minimum spacing between recorded samples of one gauge.
pub const DEFAULT_SAMPLE_INTERVAL_NS: u64 = 1_000_000;

/// Default per-gauge sample capacity (samples, not bytes).
pub const DEFAULT_SAMPLES_PER_GAUGE: usize = 8192;

/// Handle returned by [`GaugeSampler::register`]; index into the
/// sampler's gauge table (stable for the sampler's lifetime).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GaugeId(usize);

struct GaugeState {
    name: &'static str,
    samples: Vec<(u64, u64)>,
    next_due_ns: u64,
    dropped: u64,
}

/// Per-rank gauge sink: named series of `(ts_ns, value)` samples with
/// per-gauge rate limiting and bounded buffers. All methods take
/// `&mut self` — a rank is single-threaded, exactly like its `Comm`.
pub struct GaugeSampler {
    enabled: bool,
    epoch: Instant,
    interval_ns: u64,
    cap: usize,
    rank: usize,
    label: String,
    gauges: Vec<GaugeState>,
    overhead_ns: u64,
}

impl TraceSpec {
    /// Build the gauge sampler for one rank, sharing this spec's epoch
    /// with every tracer of the run — sampling is on exactly when
    /// tracing is.
    pub fn sampler(&self, rank: usize, label: &str) -> GaugeSampler {
        GaugeSampler {
            enabled: self.enabled,
            epoch: self.epoch_instant(),
            interval_ns: DEFAULT_SAMPLE_INTERVAL_NS,
            cap: if self.enabled { DEFAULT_SAMPLES_PER_GAUGE } else { 0 },
            rank,
            label: label.to_string(),
            gauges: Vec::new(),
            overhead_ns: 0,
        }
    }
}

impl GaugeSampler {
    /// A permanently cheap no-op sampler (the default inside `Comm`).
    pub fn disabled() -> GaugeSampler {
        TraceSpec::off().sampler(0, "")
    }

    /// Is this sampler recording?
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Override the per-gauge rate limit (tests and slow-changing
    /// gauges; the default suits per-iteration hot-loop calls).
    pub fn set_interval_ns(&mut self, ns: u64) {
        self.interval_ns = ns;
    }

    /// Register a gauge by name, returning its sampling handle. A name
    /// already registered returns the existing handle, so independent
    /// call sites can share a series.
    pub fn register(&mut self, name: &'static str) -> GaugeId {
        if let Some(i) = self.gauges.iter().position(|g| g.name == name) {
            return GaugeId(i);
        }
        self.gauges.push(GaugeState {
            name,
            samples: Vec::with_capacity(self.cap),
            next_due_ns: 0,
            dropped: 0,
        });
        GaugeId(self.gauges.len() - 1)
    }

    /// Record `value` for the gauge unless its rate limit or buffer
    /// bound says otherwise. Hot-loop safe: the disabled path is one
    /// branch, and an enabled call inside the rate-limit window is one
    /// clock read plus a compare.
    #[inline]
    pub fn sample(&mut self, id: GaugeId, value: u64) {
        if !self.enabled {
            return;
        }
        self.record(id, value, false);
    }

    /// As [`GaugeSampler::sample`], bypassing the rate limit — for
    /// gauges fed from rare events (cache loads, stage boundaries)
    /// where every point matters.
    #[inline]
    pub fn sample_now(&mut self, id: GaugeId, value: u64) {
        if !self.enabled {
            return;
        }
        self.record(id, value, true);
    }

    fn record(&mut self, id: GaugeId, value: u64, force: bool) {
        let now = self.epoch.elapsed().as_nanos() as u64;
        let Some(g) = self.gauges.get_mut(id.0) else {
            return;
        };
        if !force && now < g.next_due_ns {
            return;
        }
        g.next_due_ns = now + self.interval_ns;
        if g.samples.len() >= self.cap {
            g.dropped += 1;
            return;
        }
        g.samples.push((now, value));
        // Self-time of the push, charged to the sampler, not the rank.
        self.overhead_ns += (self.epoch.elapsed().as_nanos() as u64).saturating_sub(now);
    }

    /// Nanoseconds this sampler spent recording (enabled pushes only).
    pub fn overhead_ns(&self) -> u64 {
        self.overhead_ns
    }

    /// Samples dropped on buffer overflow, across gauges.
    pub fn dropped_samples(&self) -> u64 {
        self.gauges.iter().map(|g| g.dropped).sum()
    }

    /// Finish recording, yielding the immutable per-rank series.
    pub fn finish(self) -> RankSeries {
        RankSeries {
            rank: self.rank,
            label: self.label,
            overhead_ns: self.overhead_ns,
            gauges: self
                .gauges
                .into_iter()
                .map(|g| GaugeSeries { name: g.name.to_string(), samples: g.samples, dropped: g.dropped })
                .collect(),
        }
    }

    /// Take the recorded series out, leaving a disabled sampler behind
    /// (for owners that cannot be consumed, like `Comm`).
    pub fn take(&mut self) -> RankSeries {
        std::mem::replace(self, GaugeSampler::disabled()).finish()
    }
}

/// One gauge's finished time series.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct GaugeSeries {
    /// Gauge name (see the `GAUGE_*` constants in [`crate::names`]).
    pub name: String,
    /// `(ts_ns, value)` samples in record order (timestamps ascend).
    pub samples: Vec<(u64, u64)>,
    /// Samples discarded on buffer overflow.
    pub dropped: u64,
}

impl GaugeSeries {
    /// Largest sampled value, zero when empty.
    pub fn max_value(&self) -> u64 {
        self.samples.iter().map(|&(_, v)| v).max().unwrap_or(0)
    }

    fn to_json(&self) -> Json {
        Json::obj(vec![
            ("name", Json::Str(self.name.clone())),
            ("dropped", Json::Num(self.dropped as f64)),
            (
                "samples",
                Json::Arr(
                    self.samples
                        .iter()
                        .map(|&(ts, v)| Json::Arr(vec![Json::Num(ts as f64), Json::Num(v as f64)]))
                        .collect(),
                ),
            ),
        ])
    }

    fn from_json(v: &Json) -> GaugeSeries {
        GaugeSeries {
            name: v.get("name").and_then(Json::as_str).unwrap_or_default().to_string(),
            dropped: v.get("dropped").and_then(Json::as_u64).unwrap_or(0),
            samples: v
                .get("samples")
                .and_then(Json::as_arr)
                .unwrap_or_default()
                .iter()
                .filter_map(|pair| {
                    let arr = pair.as_arr()?;
                    Some((arr.first()?.as_u64()?, arr.get(1)?.as_u64()?))
                })
                .collect(),
        }
    }
}

/// One rank's finished gauge series, with the sampler's self-time.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct RankSeries {
    /// Rank id (same id space as the rank's trace track).
    pub rank: usize,
    /// Role label (`"master"`, `"worker"`, `"pipeline"`, …).
    pub label: String,
    /// Nanoseconds the sampler itself spent recording.
    pub overhead_ns: u64,
    /// The gauges, in registration order.
    pub gauges: Vec<GaugeSeries>,
}

impl RankSeries {
    /// No gauge recorded any sample.
    pub fn is_empty(&self) -> bool {
        self.gauges.iter().all(|g| g.samples.is_empty())
    }

    /// Samples dropped on buffer overflow, across gauges.
    pub fn dropped_samples(&self) -> u64 {
        self.gauges.iter().map(|g| g.dropped).sum()
    }

    /// Gauge lookup by name.
    pub fn gauge(&self, name: &str) -> Option<&GaugeSeries> {
        self.gauges.iter().find(|g| g.name == name)
    }

    /// JSON encoding (schema-v3 `series` entries).
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("rank", Json::Num(self.rank as f64)),
            ("label", Json::Str(self.label.clone())),
            ("overhead_ns", Json::Num(self.overhead_ns as f64)),
            ("gauges", Json::Arr(self.gauges.iter().map(GaugeSeries::to_json).collect())),
        ])
    }

    /// Decode from JSON produced by [`RankSeries::to_json`].
    pub fn from_json(v: &Json) -> RankSeries {
        RankSeries {
            rank: v.get("rank").and_then(Json::as_u64).unwrap_or(0) as usize,
            label: v.get("label").and_then(Json::as_str).unwrap_or_default().to_string(),
            overhead_ns: v.get("overhead_ns").and_then(Json::as_u64).unwrap_or(0),
            gauges: v
                .get("gauges")
                .and_then(Json::as_arr)
                .unwrap_or_default()
                .iter()
                .map(GaugeSeries::from_json)
                .collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::names;

    #[test]
    fn disabled_sampler_records_nothing() {
        let mut s = GaugeSampler::disabled();
        let id = s.register(names::GAUGE_PENDING_TASKS);
        s.sample(id, 5);
        s.sample_now(id, 6);
        let rs = s.finish();
        assert!(rs.is_empty());
        assert_eq!(rs.dropped_samples(), 0);
    }

    /// Mirror of the tracer's budget test: a disabled sampler in a hot
    /// loop must cost one branch — 10 M calls in well under a second
    /// means ≪ 100 ns per call.
    #[test]
    fn disabled_sampler_off_path_is_cheap() {
        let mut s = GaugeSampler::disabled();
        let id = s.register(names::GAUGE_PENDING_TASKS);
        let start = Instant::now();
        for i in 0..10_000_000u64 {
            s.sample(id, i);
        }
        let per_call_ns = start.elapsed().as_nanos() as f64 / 1e7;
        assert!(s.finish().is_empty());
        assert!(per_call_ns < 100.0, "disabled sample call costs {per_call_ns:.1} ns");
    }

    #[test]
    fn rate_limit_thins_hot_loop_samples() {
        let spec = TraceSpec::on();
        let mut s = spec.sampler(0, "master");
        s.set_interval_ns(u64::MAX / 2); // nothing else gets through
        let id = s.register(names::GAUGE_PENDING_TASKS);
        for i in 0..1000 {
            s.sample(id, i);
        }
        let rs = s.finish();
        assert_eq!(rs.gauges[0].samples.len(), 1, "one sample per interval");
        assert_eq!(rs.dropped_samples(), 0, "rate-limited calls are skips, not drops");
    }

    #[test]
    fn sample_now_bypasses_rate_limit_and_overflow_counts_drops() {
        let spec = TraceSpec::on();
        let mut s = spec.sampler(2, "pipeline");
        s.cap = 4;
        let id = s.register(names::GAUGE_CACHE_BYTES);
        let cap_before = s.gauges[0].samples.capacity();
        for i in 0..10 {
            s.sample_now(id, i);
        }
        assert_eq!(s.gauges[0].samples.len(), 4, "buffer is bounded");
        assert_eq!(s.dropped_samples(), 6, "overflow is counted");
        assert_eq!(s.gauges[0].samples.capacity(), cap_before, "no reallocation on overflow");
        assert!(s.overhead_ns() > 0, "enabled pushes account their self-time");
    }

    #[test]
    fn register_is_idempotent_per_name() {
        let spec = TraceSpec::on();
        let mut s = spec.sampler(0, "m");
        let a = s.register(names::GAUGE_INBOX_DEPTH);
        let b = s.register(names::GAUGE_INBOX_DEPTH);
        assert_eq!(a, b);
        assert_eq!(s.gauges.len(), 1);
    }

    #[test]
    fn sampler_shares_the_trace_epoch() {
        let spec = TraceSpec::on();
        let mut tracer = spec.tracer(0, "m");
        let mut s = spec.sampler(0, "m");
        let id = s.register(names::GAUGE_PENDING_TASKS);
        tracer.instant(crate::trace::TraceCategory::Master, names::EV_DISPATCH);
        s.sample_now(id, 1);
        let ev_ts = tracer.events()[0].ts_ns;
        let (sample_ts, _) = s.finish().gauges[0].samples[0];
        // The sample came after the event on the same clock; both are
        // tiny offsets from the shared epoch (well under a second).
        assert!(sample_ts >= ev_ts);
        assert!(sample_ts - ev_ts < 1_000_000_000);
    }

    #[test]
    fn series_json_round_trip_is_exact() {
        let rs = RankSeries {
            rank: 3,
            label: "worker".into(),
            overhead_ns: 12_345,
            gauges: vec![
                GaugeSeries {
                    name: names::GAUGE_PENDING_TASKS.into(),
                    samples: vec![(0, 0), (1_000, 512), (2_000, 64)],
                    dropped: 2,
                },
                GaugeSeries { name: names::GAUGE_ALIGN_SCRATCH_BYTES.into(), samples: vec![], dropped: 0 },
            ],
        };
        let back = RankSeries::from_json(&rs.to_json());
        assert_eq!(back, rs);
        assert_eq!(back.gauge(names::GAUGE_PENDING_TASKS).unwrap().max_value(), 512);
        assert!(back.gauge("missing").is_none());
    }

    #[test]
    fn take_leaves_a_disabled_sampler() {
        let spec = TraceSpec::on();
        let mut s = spec.sampler(1, "worker");
        let id = s.register(names::GAUGE_ALIGN_SCRATCH_BYTES);
        s.sample_now(id, 9);
        let rs = s.take();
        assert_eq!(rs.gauges[0].samples.len(), 1);
        assert!(!s.is_enabled());
        s.sample_now(id, 10); // harmless no-op on the husk
    }
}
