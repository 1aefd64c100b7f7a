//! Traffic statistics and the α–β communication cost model.
//!
//! The simulator's ranks exchange messages over shared memory, so
//! *measured* communication time on the host says little about a real
//! interconnect. Instead every rank counts its traffic exactly
//! ([`CommStats`]) and experiments convert the counts into modelled
//! network time with a latency/bandwidth model parameterised for the
//! BlueGene/L — reproducing the communication/computation breakdown the
//! paper reports (Fig. 5) in a hardware-independent way.

/// Per-rank communication counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CommStats {
    /// Messages sent.
    pub msgs_sent: u64,
    /// Payload bytes sent.
    pub bytes_sent: u64,
    /// Messages received.
    pub msgs_recv: u64,
    /// Payload bytes received.
    pub bytes_recv: u64,
    /// Nanoseconds blocked in `recv` waiting for a matching message.
    pub wait_ns: u64,
    /// Nanoseconds blocked in barriers.
    pub barrier_ns: u64,
}

impl CommStats {
    /// Component-wise sum (for aggregating ranks).
    pub fn merged(self, other: CommStats) -> CommStats {
        CommStats {
            msgs_sent: self.msgs_sent + other.msgs_sent,
            bytes_sent: self.bytes_sent + other.bytes_sent,
            msgs_recv: self.msgs_recv + other.msgs_recv,
            bytes_recv: self.bytes_recv + other.bytes_recv,
            wait_ns: self.wait_ns + other.wait_ns,
            barrier_ns: self.barrier_ns + other.barrier_ns,
        }
    }

    /// Component-wise difference from an earlier reading of the same
    /// rank's counters: the traffic of the phase in between.
    pub fn since(self, before: CommStats) -> CommStats {
        CommStats {
            msgs_sent: self.msgs_sent - before.msgs_sent,
            bytes_sent: self.bytes_sent - before.bytes_sent,
            msgs_recv: self.msgs_recv - before.msgs_recv,
            bytes_recv: self.bytes_recv - before.bytes_recv,
            wait_ns: self.wait_ns - before.wait_ns,
            barrier_ns: self.barrier_ns - before.barrier_ns,
        }
    }

    /// Total seconds this rank spent blocked (wait + barrier) — the
    /// measured idle time used for §7.2's idle-percentage analysis.
    pub fn blocked_seconds(&self) -> f64 {
        (self.wait_ns + self.barrier_ns) as f64 * 1e-9
    }
}

// The thread-CPU sampler lives in the telemetry crate (shared by every
// layer that times work); re-exported here so rank code keeps its
// historical import path.
pub use pgasm_telemetry::thread_cpu_seconds;

/// α–β interconnect model: a message of `b` bytes costs
/// `latency + b / bandwidth` seconds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CostModel {
    /// Per-message latency α, seconds.
    pub latency_s: f64,
    /// Link bandwidth β, bytes/second.
    pub bandwidth_bytes_per_s: f64,
}

impl CostModel {
    /// BlueGene/L-class torus parameters (co-processor mode): ≈ 4 µs
    /// short-message latency, ≈ 150 MB/s effective point-to-point
    /// bandwidth — the regime of the paper's 2005/2006 runs.
    pub const BLUEGENE_L: CostModel = CostModel { latency_s: 4.0e-6, bandwidth_bytes_per_s: 150.0e6 };

    /// A contemporary commodity cluster (for sensitivity comparisons):
    /// ≈ 1.5 µs latency, ≈ 10 GB/s.
    pub const MODERN_CLUSTER: CostModel = CostModel { latency_s: 1.5e-6, bandwidth_bytes_per_s: 10.0e9 };

    /// Modelled seconds for one rank's full traffic (send + receive; a
    /// rank pays latency on both ends in co-processor mode). This is a
    /// *per-rank occupancy* measure — summing it across ranks counts
    /// every transfer twice. For cross-rank totals use the per-tag
    /// histogram (`Comm::tag_stats`), which prices each message once on
    /// its sender.
    pub fn comm_time(&self, stats: &CommStats) -> f64 {
        (stats.msgs_sent + stats.msgs_recv) as f64 * self.latency_s
            + (stats.bytes_sent + stats.bytes_recv) as f64 / self.bandwidth_bytes_per_s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merge_adds_fields() {
        let a = CommStats {
            msgs_sent: 1,
            bytes_sent: 10,
            msgs_recv: 2,
            bytes_recv: 20,
            wait_ns: 5,
            barrier_ns: 7,
        };
        let b = CommStats {
            msgs_sent: 3,
            bytes_sent: 30,
            msgs_recv: 4,
            bytes_recv: 40,
            wait_ns: 1,
            barrier_ns: 2,
        };
        let m = a.merged(b);
        assert_eq!(m.msgs_sent, 4);
        assert_eq!(m.bytes_recv, 60);
        assert_eq!(m.barrier_ns, 9);
    }

    #[test]
    fn cost_scales_with_traffic() {
        let model = CostModel::BLUEGENE_L;
        let small = CommStats { msgs_sent: 1, bytes_sent: 1000, ..Default::default() };
        let large = CommStats { msgs_sent: 1, bytes_sent: 1_000_000, ..Default::default() };
        assert!(model.comm_time(&large) > model.comm_time(&small) * 100.0);
    }

    #[test]
    fn latency_dominates_small_messages() {
        let model = CostModel::BLUEGENE_L;
        let chatty = CommStats { msgs_sent: 10_000, bytes_sent: 10_000, ..Default::default() };
        let bulky = CommStats { msgs_sent: 1, bytes_sent: 10_000, ..Default::default() };
        assert!(model.comm_time(&chatty) > 10.0 * model.comm_time(&bulky));
    }

    #[test]
    fn blocked_seconds_converts_ns() {
        let s = CommStats { wait_ns: 1_500_000_000, barrier_ns: 500_000_000, ..Default::default() };
        assert!((s.blocked_seconds() - 2.0).abs() < 1e-9);
    }
}
