//! Process resource readings from `/proc` (Linux).

use std::fs;

/// Kernel clock ticks per second for the `/proc/<pid>/stat` CPU fields
/// (`USER_HZ`, fixed at 100 in the Linux user ABI).
const USER_HZ: f64 = 100.0;

/// Peak resident set size (`VmHWM`) of process `pid` (`"self"` for this
/// process), in MiB.
pub fn peak_rss_mb(pid: &str) -> Option<f64> {
    let status = fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// User plus system CPU seconds consumed so far by every thread of process
/// `pid` (`"self"` for this process).
pub fn cpu_seconds(pid: &str) -> Option<f64> {
    let stat = fs::read_to_string(format!("/proc/{pid}/stat")).ok()?;
    // The command name (field 2) may contain spaces; fields after its
    // closing parenthesis are space-separated, utime and stime being the
    // 14th and 15th fields of the whole line.
    let rest = &stat[stat.rfind(')')? + 2..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let utime: f64 = fields.get(11)?.parse().ok()?;
    let stime: f64 = fields.get(12)?.parse().ok()?;
    Some((utime + stime) / USER_HZ)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reads_this_process() {
        assert!(peak_rss_mb("self").expect("VmHWM readable") > 0.0);
        let spin = std::time::Instant::now();
        while spin.elapsed().as_millis() < 30 {
            std::hint::black_box(spin.elapsed());
        }
        assert!(cpu_seconds("self").expect("stat readable") > 0.0);
    }
}
