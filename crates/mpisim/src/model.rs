//! The α–β communication cost model.
//!
//! The simulator's ranks exchange messages over shared memory, so
//! *measured* communication time on the host says little about a real
//! interconnect. Instead every rank counts its traffic exactly, one
//! row per message tag (`Comm::tag_stats`), and experiments convert
//! the counts into modelled network time with a latency/bandwidth
//! model parameterised for the BlueGene/L — reproducing the
//! communication/computation breakdown the paper reports (Fig. 5) in a
//! hardware-independent way.

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
    /// bandwidth — the regime of the paper's 2005/2006 runs, and the
    /// one model every traffic row is priced with.
    pub const BLUEGENE_L: CostModel = CostModel { latency_s: 4.0e-6, bandwidth_bytes_per_s: 150.0e6 };
}
