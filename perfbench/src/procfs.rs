//! Process-wide readings from `/proc/self`.
//!
//! These cover every tier of the in-process cluster plus the load
//! generator: the cluster runs in this one process.

use std::fs;

/// Linux reports `utime`/`stime` in clock ticks of 1/100 s on every
/// mainstream configuration (`getconf CLK_TCK`).
const TICK_US: f64 = 10_000.0;

/// User plus system CPU time consumed so far by the whole process, in µs.
pub fn cpu_us() -> f64 {
    let Ok(stat) = fs::read_to_string("/proc/self/stat") else { return 0.0 };
    // Fields after the parenthesised command name: state is the first,
    // utime the 12th and stime the 13th.
    let Some(rest) = stat.rsplit_once(')').map(|(_, rest)| rest) else { return 0.0 };
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| fields.get(i).and_then(|f| f.parse::<f64>().ok()).unwrap_or(0.0);
    (ticks(11) + ticks(12)) * TICK_US
}

fn status_kb(field: &str) -> Option<u64> {
    let status = fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with(field))?;
    line[field.len()..].split_whitespace().next()?.parse().ok()
}

/// Peak resident set size so far (`VmHWM`), in MiB.
pub fn peak_rss_mib() -> f64 {
    status_kb("VmHWM:").unwrap_or(0) as f64 / 1024.0
}

/// Threads currently alive in the process.
pub fn threads() -> u64 {
    status_kb("Threads:").unwrap_or(0)
}

/// Logical CPUs and kernel release, the host fingerprint results are
/// comparable under.
pub fn host() -> (usize, String) {
    let cpus = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    let kernel = fs::read_to_string("/proc/sys/kernel/osrelease")
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|_| "unknown".to_string());
    (cpus, kernel)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn readings_are_plausible() {
        // Busy for several clock ticks; a closed-form loop the optimiser
        // can fold would take no CPU time at all.
        let start = std::time::Instant::now();
        let mut spin = 0u64;
        while start.elapsed() < std::time::Duration::from_millis(50) {
            spin = std::hint::black_box(spin.wrapping_add(1));
        }
        assert!(cpu_us() > 0.0);
        assert!(peak_rss_mib() > 0.0);
        assert!(threads() >= 1);
    }
}
