//! Thread CPU-time sampling.

/// CPU time consumed by the *calling thread* so far, in seconds.
///
/// Ranks are threads that may timeshare a smaller number of physical
/// cores; wall-clock intervals then overstate a rank's computation.
/// Thread CPU time is immune to oversubscription, so per-rank compute
/// costs stay meaningful on any host. Linux-specific: the scheduler's
/// on-CPU nanoseconds (first field of `/proc/thread-self/schedstat`,
/// brought up to date at every scheduler tick and context switch — a few
/// milliseconds at worst), or, on kernels built without schedstats,
/// utime + stime from `/proc/thread-self/stat` at the conventional
/// 100 Hz tick. Returns 0.0 if neither file can be read.
pub fn thread_cpu_seconds() -> f64 {
    if let Ok(schedstat) = std::fs::read_to_string("/proc/thread-self/schedstat") {
        if let Some(ns) = schedstat.split_whitespace().next().and_then(|s| s.parse::<u64>().ok()) {
            return ns as f64 * 1e-9;
        }
    }
    let Ok(stat) = std::fs::read_to_string("/proc/thread-self/stat") else {
        return 0.0;
    };
    // The comm field "(...)" may contain spaces; parse after the last ')'.
    let Some(rest) = stat.rsplit_once(')').map(|(_, r)| r) else {
        return 0.0;
    };
    let fields: Vec<&str> = rest.split_whitespace().collect();
    // After the comm field: state is index 0, utime index 11, stime 12.
    let utime: u64 = fields.get(11).and_then(|s| s.parse().ok()).unwrap_or(0);
    let stime: u64 = fields.get(12).and_then(|s| s.parse().ok()).unwrap_or(0);
    (utime + stime) as f64 / 100.0
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::{Duration, Instant};

    fn burn(wall: Duration) {
        let start = Instant::now();
        let mut acc = 0u64;
        while start.elapsed() < wall {
            for i in 0..10_000u64 {
                acc = acc.wrapping_mul(6364136223846793005).wrapping_add(i);
            }
        }
        std::hint::black_box(acc);
    }

    #[test]
    fn monotone_and_advances_under_load() {
        let start = Instant::now();
        let before = thread_cpu_seconds();
        // 2 ms of load at a time: with schedstat the clock moves at the
        // next scheduler tick (1–4 ms away), not after a 10 ms stat tick
        // or two. The bound is generous for hosts whose tick is slower.
        let mut after = before;
        while after == before && start.elapsed() < Duration::from_millis(60) {
            burn(Duration::from_millis(2));
            after = thread_cpu_seconds();
        }
        assert!(after > before, "no advance after {:?} of load", start.elapsed());
        // A thread cannot have been on a CPU for longer than the wall
        // time that passed (plus one tick of rounding in the fallback).
        assert!(after - before <= start.elapsed().as_secs_f64() + 0.011, "{before} -> {after}");
    }
}
