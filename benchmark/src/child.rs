//! Run one `pgasm` child: wall from spawn to exit, the child's own peak
//! RSS, and a watchdog so a hang is a failed run with a message, never a
//! wedged benchmark.
//!
//! Peak RSS is the high-water mark of the child's own address space
//! (`VmHWM` in `/proc/<pid>/status`), polled while it runs. `wait4`'s
//! `ru_maxrss` cannot be used: on exec the kernel folds the high-water
//! mark of the address space the child was spawned from — this
//! harness's — into it, so after a 300 MB in-process replay every child
//! would read 300 MB.

use std::fs::File;
use std::io;
use std::path::Path;
use std::process::{Command, ExitStatus, Stdio};
use std::time::{Duration, Instant};

/// Polls for exit (1 ms apart) between two reads of `VmHWM`.
const HWM_EVERY: u32 = 10;

/// `VmHWM` of process `pid` in MB; `None` once it is gone.
fn vm_hwm_mb(pid: u32) -> Option<f64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let kb = status.lines().find_map(|l| l.strip_prefix("VmHWM:"))?.trim().strip_suffix("kB")?.trim();
    Some(kb.parse::<f64>().ok()? / 1024.0)
}

#[derive(Debug, Clone, PartialEq)]
pub struct ChildRun {
    pub wall_s: f64,
    pub peak_rss_mb: f64,
    /// `None` when the child exited 0; otherwise why the run failed.
    pub failure: Option<String>,
}

/// Spawn `program args…`, appending its output to `log`, and wait for
/// it, killing it once `watchdog` has passed.
pub fn run(program: &Path, args: &[String], log: &Path, watchdog: Duration) -> io::Result<ChildRun> {
    let log_file = File::options().create(true).append(true).open(log)?;
    let start = Instant::now();
    let mut child = Command::new(program)
        .args(args)
        .stdin(Stdio::null())
        .stdout(Stdio::from(log_file.try_clone()?))
        .stderr(Stdio::from(log_file))
        .spawn()?;
    let (mut polls, mut peak_rss_mb) = (0u32, 0f64);
    let mut timed_out = false;
    let (status, wall_s): (ExitStatus, f64) = loop {
        let exited = if timed_out { Some(child.wait()?) } else { child.try_wait()? };
        let elapsed = start.elapsed();
        if let Some(status) = exited {
            break (status, elapsed.as_secs_f64());
        }
        if elapsed >= watchdog {
            child.kill()?;
            timed_out = true;
        } else {
            if polls % HWM_EVERY == 0 {
                peak_rss_mb = vm_hwm_mb(child.id()).map_or(peak_rss_mb, |mb| mb.max(peak_rss_mb));
            }
            polls += 1;
            std::thread::sleep(Duration::from_millis(1));
        }
    };
    let failure = if timed_out {
        Some(format!("watchdog: no exit within {:.0} s, killed", watchdog.as_secs_f64()))
    } else if status.success() {
        None
    } else {
        Some(status.to_string())
    };
    Ok(ChildRun { wall_s, peak_rss_mb, failure })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sh(script: &str, watchdog_ms: u64) -> ChildRun {
        static NEXT: std::sync::atomic::AtomicU32 = std::sync::atomic::AtomicU32::new(0);
        let n = NEXT.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        let log = std::env::temp_dir().join(format!("pgasm-benchmark-child-{}-{n}.log", std::process::id()));
        let out = run(
            Path::new("/bin/sh"),
            &["-c".to_string(), script.to_string()],
            &log,
            Duration::from_millis(watchdog_ms),
        )
        .expect("spawn /bin/sh");
        let _ = std::fs::remove_file(&log);
        out
    }

    #[test]
    fn clean_exit_reports_wall_and_rss() {
        let r = sh("sleep 0.1", 5_000);
        assert_eq!(r.failure, None);
        assert!(r.wall_s > 0.0 && r.wall_s < 5.0);
        assert!(r.peak_rss_mb > 0.0);
    }

    #[test]
    fn nonzero_exit_is_a_failure() {
        assert_eq!(sh("exit 3", 5_000).failure.as_deref(), Some("exit status: 3"));
    }

    #[test]
    fn hang_is_killed_by_the_watchdog() {
        let r = sh("exec sleep 30", 100);
        assert!(r.failure.as_deref().is_some_and(|m| m.starts_with("watchdog")), "{:?}", r.failure);
        assert!(r.wall_s < 5.0);
    }
}
