//! Shared harness utilities: the in-process cluster stage, scale
//! handling, timing, table printing, formatting.

use pgasm_core::{cluster, ClusterParams, Exec, Partition};
use pgasm_seq::FragmentStore;
use pgasm_telemetry::RunContext;

/// Run `f`, returning its value and its wall seconds: the one clock the
/// experiments that print a time read.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = std::time::Instant::now();
    let out = f();
    (out, start.elapsed().as_secs_f64())
}

/// The cluster stage in process (the serial engine) over `store`.
pub fn cluster_in_process(store: &FragmentStore, params: &ClusterParams) -> Partition {
    cluster(store, params, &Exec::Threads(1), &mut RunContext::new("bench")).0
}

/// Workload scale factor from `PGASM_SCALE` (default 1.0).
pub fn env_scale() -> f64 {
    std::env::var("PGASM_SCALE").ok().and_then(|s| s.parse::<f64>().ok()).filter(|&s| s > 0.0).unwrap_or(1.0)
}

/// Print a fixed-width table with a title.
pub fn print_table(title: &str, headers: &[&str], rows: &[Vec<String>]) {
    println!("\n== {title} ==");
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let line = |cells: &[String]| {
        let mut out = String::from("| ");
        for (i, c) in cells.iter().enumerate() {
            out.push_str(&format!("{:>width$} | ", c, width = widths.get(i).copied().unwrap_or(c.len())));
        }
        out
    };
    let header_cells: Vec<String> = headers.iter().map(|h| h.to_string()).collect();
    println!("{}", line(&header_cells));
    let sep: usize = widths.iter().sum::<usize>() + 3 * widths.len() + 1;
    println!("{}", "-".repeat(sep));
    for row in rows {
        println!("{}", line(row));
    }
}

/// Humanised count (e.g. `12_345` → "12,345").
pub fn fmt_count(n: u64) -> String {
    let s = n.to_string();
    let mut out = String::new();
    for (i, c) in s.chars().enumerate() {
        if i > 0 && (s.len() - i).is_multiple_of(3) {
            out.push(',');
        }
        out.push(c);
    }
    out
}

/// Seconds with adaptive precision.
pub fn fmt_secs(s: f64) -> String {
    if s >= 100.0 {
        format!("{s:.0} s")
    } else if s >= 1.0 {
        format!("{s:.2} s")
    } else {
        format!("{:.1} ms", s * 1000.0)
    }
}

/// Percentage with one decimal.
pub fn fmt_pct(f: f64) -> String {
    format!("{:.1}%", f * 100.0)
}

/// Megabases with one decimal.
pub fn fmt_mbp(bases: usize) -> String {
    format!("{:.2} Mbp", bases as f64 / 1e6)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn count_formatting() {
        assert_eq!(fmt_count(0), "0");
        assert_eq!(fmt_count(999), "999");
        assert_eq!(fmt_count(1_000), "1,000");
        assert_eq!(fmt_count(1_234_567), "1,234,567");
    }

    #[test]
    fn seconds_formatting() {
        assert_eq!(fmt_secs(0.0123), "12.3 ms");
        assert_eq!(fmt_secs(2.5), "2.50 s");
        assert_eq!(fmt_secs(120.0), "120 s");
    }

    #[test]
    fn pct_and_mbp() {
        assert_eq!(fmt_pct(0.4371), "43.7%");
        assert_eq!(fmt_mbp(1_250_000), "1.25 Mbp");
    }

    #[test]
    fn scale_default() {
        // Unless someone exported PGASM_SCALE into the test env.
        if std::env::var("PGASM_SCALE").is_err() {
            assert_eq!(env_scale(), 1.0);
        }
    }
}
