//! Thread CPU-time sampling, and work fanned out to threads that
//! reports the CPU it spent.

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

/// Run `job(i)` for every `i < n`: job 0 on the calling thread, each
/// other on a scoped thread of its own, so `n = 1` spawns nothing. Returns
/// the results in job order and the CPU seconds the spawned threads spent,
/// each read from its own clock as its job ends — what a span of the
/// calling thread misses ([`crate::RunContext::add_helper_cpu`]). A job's
/// panic is re-thrown with its own payload.
pub fn fan_out<T: Send>(n: usize, job: impl Fn(usize) -> T + Sync) -> (Vec<T>, f64) {
    let job = &job;
    std::thread::scope(|scope| {
        let helpers: Vec<_> = (1..n)
            .map(|i| {
                scope.spawn(move || {
                    let out = job(i);
                    (out, thread_cpu_seconds())
                })
            })
            .collect();
        let mut results = Vec::with_capacity(n);
        results.push(job(0));
        let mut helper_cpu = 0.0;
        // Re-throw a helper's own payload: the scope's automatic join
        // would replace it with "a scoped thread panicked".
        for handle in helpers {
            let (out, cpu) = handle.join().unwrap_or_else(|payload| std::panic::resume_unwind(payload));
            results.push(out);
            helper_cpu += cpu;
        }
        (results, helper_cpu)
    })
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
    fn fanned_out_jobs_return_in_order_with_their_helpers_cpu() {
        let (one, none) = fan_out(1, |i| i * 10);
        assert_eq!((one, none), (vec![0], 0.0), "one job runs on the caller");
        let (out, helpers) = fan_out(3, |i| {
            burn(Duration::from_millis(5));
            i * 10
        });
        assert_eq!(out, [0, 10, 20]);
        assert!(helpers >= 0.005, "two helpers burning 5 ms each read {helpers} s");
    }

    #[test]
    fn a_helpers_panic_reaches_the_caller_with_its_payload() {
        let caught = std::panic::catch_unwind(|| fan_out(2, |i| assert!(i == 0, "job {i} failed")));
        let payload = caught.expect_err("job 1 panics");
        assert_eq!(payload.downcast_ref::<String>().map(String::as_str), Some("job 1 failed"));
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
