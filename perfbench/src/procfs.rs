//! Process CPU time and peak memory, read from `/proc/self`.

/// Clock ticks per second of the `/proc/[pid]/stat` time fields
/// (`USER_HZ`, fixed at 100 by the Linux ABI).
const USER_HZ: f64 = 100.0;

/// User + system CPU seconds of the whole process (every thread, live or
/// exited), or `None` where `/proc/self/stat` is unreadable.
#[must_use]
pub fn cpu_seconds() -> Option<f64> {
    parse_cpu_seconds(&std::fs::read_to_string("/proc/self/stat").ok()?)
}

fn parse_cpu_seconds(stat: &str) -> Option<f64> {
    // Fields after the parenthesised command name start at field 3
    // (state); utime and stime are fields 14 and 15.
    let rest = &stat[stat.rfind(')')? + 1..];
    let mut fields = rest.split_whitespace().skip(11);
    let utime: u64 = fields.next()?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    Some((utime + stime) as f64 / USER_HZ)
}

/// Peak resident set size (`VmHWM`) in MiB, or `None` where
/// `/proc/self/status` is unreadable.
#[must_use]
pub fn peak_rss_mib() -> Option<f64> {
    parse_vm_hwm_mib(&std::fs::read_to_string("/proc/self/status").ok()?)
}

fn parse_vm_hwm_mib(status: &str) -> Option<f64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: u64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib as f64 / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_stat_with_spaces_in_the_command_name() {
        let stat = "42 (perf bench) R 1 42 42 0 -1 4194304 100 0 0 0 250 50 0 0 20 0 3 0";
        assert_eq!(parse_cpu_seconds(stat), Some(3.0));
    }

    #[test]
    fn parses_vm_hwm() {
        let status = "Name:\tperfbench\nVmPeak:\t  9000 kB\nVmHWM:\t    2048 kB\n";
        assert_eq!(parse_vm_hwm_mib(status), Some(2.0));
        assert_eq!(parse_vm_hwm_mib("Name:\tx\n"), None);
    }

    #[test]
    fn reads_this_process() {
        assert!(cpu_seconds().is_some_and(|s| s >= 0.0));
        assert!(peak_rss_mib().is_some_and(|m| m > 0.0));
    }
}
