//! Thread CPU-time sampling.

/// `struct timespec` of 64-bit Linux.
#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

/// `CLOCK_THREAD_CPUTIME_ID` of Linux.
const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

extern "C" {
    fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
}

/// CPU time consumed by the *calling thread* so far, in seconds.
///
/// Ranks are threads that may timeshare a smaller number of physical
/// cores; wall-clock intervals then overstate a rank's computation.
/// Thread CPU time is immune to oversubscription, so per-rank compute
/// costs stay meaningful on any host. Linux-specific: the kernel's
/// per-thread CPU clock (`clock_gettime(CLOCK_THREAD_CPUTIME_ID)`), read
/// to the nanosecond at the moment of the call — not brought up to date
/// only at a scheduler tick — so even an interval of a few microseconds
/// reads what it ran. Returns 0.0 if the clock cannot be read.
pub fn thread_cpu_seconds() -> f64 {
    let mut now = Timespec { tv_sec: 0, tv_nsec: 0 };
    // SAFETY: `now` is a valid, writable timespec of the C layout the
    // call fills, and outlives the call.
    if unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut now) } != 0 {
        return 0.0;
    }
    now.tv_sec as f64 + now.tv_nsec as f64 * 1e-9
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::{Duration, Instant};

    fn burn(wall: Duration) {
        let start = Instant::now();
        let mut acc = 0u64;
        while start.elapsed() < wall {
            for i in 0..100u64 {
                acc = acc.wrapping_mul(6364136223846793005).wrapping_add(i);
            }
        }
        std::hint::black_box(acc);
    }

    #[test]
    fn advances_under_load_and_never_past_the_wall_time() {
        let start = Instant::now();
        let before = thread_cpu_seconds();
        burn(Duration::from_millis(2));
        let after = thread_cpu_seconds();
        assert!(after > before, "no advance after {:?} of load", start.elapsed());
        // A thread cannot have been on a CPU for longer than the wall
        // time that passed.
        assert!(after - before <= start.elapsed().as_secs_f64(), "{before} -> {after}");
    }

    #[test]
    fn every_interval_shorter_than_a_scheduler_tick_advances() {
        // A clock updated only at a tick or a context switch reads most
        // of these intervals as zero.
        for pair in 0..100 {
            let before = thread_cpu_seconds();
            burn(Duration::from_micros(10));
            let after = thread_cpu_seconds();
            assert!(after > before, "pair {pair}: {before} -> {after}");
        }
    }
}
