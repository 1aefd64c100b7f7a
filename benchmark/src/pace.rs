//! The host's CPU pace, measured beside every timed repetition.
//!
//! The reference host is a 2-vCPU VM whose cores run the same
//! instructions anywhere between 1x and 1.6x slower from one moment to
//! the next, and 1.2x slower for minutes at a time, depending on what
//! its neighbours do (a fixed loop of 7.2 ms takes 7.2-14 ms; a `pgasm`
//! run of 0.85 s takes 0.83-1.25 s). No median, minimum or longer run
//! removes that: a half-minute run sits inside one such stretch. So the
//! harness times a fixed calibration loop before and after every
//! repetition and divides the repetition's timings by the pace it found:
//! a timing is reported in seconds *at the reference pace*, which is what
//! keeps two runs of the same code within a few percent of each other
//! and lets a later change be told from the weather.

use std::hint::black_box;
use std::time::Instant;

/// Wall time of one calibration loop on the reference host at its
/// fastest: pace 1.
pub const REFERENCE_S: f64 = 0.0072;

/// Loops per measurement; their mean is the pace.
const LOOPS: usize = 3;

const SIDE: usize = 512;
const SWEEPS: usize = 16;

/// One calibration loop: `SWEEPS` local-alignment DP sweeps over two
/// fixed `SIDE`-base strings, integer adds and maxes along a dependent
/// chain like the program's own inner loops. Returns its wall time.
fn calibration_loop() -> f64 {
    let start = Instant::now();
    let a: Vec<u8> = (0..SIDE).map(|i| (i * 7 % 4) as u8).collect();
    let b: Vec<u8> = (0..SIDE).map(|i| (i * 13 % 4) as u8).collect();
    let mut prev = vec![0i32; SIDE + 1];
    let mut cur = vec![0i32; SIDE + 1];
    let mut checksum = 0i64;
    for _ in 0..SWEEPS {
        for i in 1..=SIDE {
            cur[0] = 0;
            for j in 1..=SIDE {
                let diagonal = prev[j - 1] + if a[i - 1] == b[j - 1] { 2 } else { -3 };
                cur[j] = diagonal.max(prev[j] - 4).max(cur[j - 1] - 4).max(0);
            }
            std::mem::swap(&mut prev, &mut cur);
        }
        checksum += black_box(prev[SIDE]) as i64;
    }
    black_box(checksum);
    start.elapsed().as_secs_f64()
}

/// The pace right now: 1 when the calibration loop takes `REFERENCE_S`,
/// 1.5 when the CPU needs half as long again for the same work.
pub fn measure() -> f64 {
    let total: f64 = (0..LOOPS).map(|_| calibration_loop()).sum();
    total / LOOPS as f64 / REFERENCE_S
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pace_is_a_positive_number() {
        let pace = measure();
        assert!(pace.is_finite() && pace > 0.0, "pace {pace}");
    }
}
