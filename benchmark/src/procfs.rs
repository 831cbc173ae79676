//! Process CPU time and peak memory, read from `/proc/self`.

/// Kernel clock ticks per second for the `utime`/`stime` fields of
/// `/proc/<pid>/stat`. `USER_HZ` is 100 on every Linux ABI this
/// repository builds for; there is no libc binding here to ask.
const TICKS_PER_S: f64 = 100.0;

/// User + system CPU seconds of the whole process (all threads, exited
/// ones included) from the text of `/proc/self/stat`.
pub fn parse_cpu_s(stat: &str) -> Option<f64> {
    // The command name (field 2) may itself hold spaces and parentheses:
    // fields are counted from the last ')'.
    let rest = &stat[stat.rfind(')')? + 1..];
    let mut fields = rest.split_ascii_whitespace();
    // `rest` starts at field 3 (state); utime and stime are 14 and 15.
    let utime: u64 = fields.nth(11)?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    Some((utime + stime) as f64 / TICKS_PER_S)
}

/// Peak resident set size in MB from the text of `/proc/self/status`
/// (`VmHWM`, reported by the kernel in kB).
pub fn parse_peak_rss_mb(status: &str) -> Option<f64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: u64 = line.split_ascii_whitespace().nth(1)?.parse().ok()?;
    Some(kb as f64 / 1024.0)
}

/// CPU seconds this process has used so far.
pub fn cpu_s() -> f64 {
    std::fs::read_to_string("/proc/self/stat")
        .ok()
        .and_then(|s| parse_cpu_s(&s))
        .expect("/proc/self/stat is readable and well-formed on Linux")
}

/// Peak resident set size of this process so far, MB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| parse_peak_rss_mb(&s))
        .expect("/proc/self/status carries VmHWM on Linux")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_from_stat_line_with_hostile_comm() {
        let stat = "4242 (sc bench) x) R 1 4242 4242 0 -1 4194304 100 0 0 0 \
                    731 19 0 0 20 0 3 0 12345 1000000 2000 18446744073709551615";
        assert_eq!(parse_cpu_s(stat), Some(7.5));
        assert_eq!(parse_cpu_s("1 (x) R 1 2"), None);
        assert_eq!(parse_cpu_s("no parenthesis"), None);
    }

    #[test]
    fn peak_rss_from_status() {
        let status = "Name:\tscbench\nVmPeak:\t  200000 kB\nVmHWM:\t  105472 kB\nVmRSS:\t 1 kB\n";
        assert_eq!(parse_peak_rss_mb(status), Some(103.0));
        assert_eq!(parse_peak_rss_mb("Name:\tx\n"), None);
    }

    #[test]
    fn live_readers_return_positive_values() {
        assert!(cpu_s() >= 0.0);
        assert!(peak_rss_mb() > 0.0);
    }
}
