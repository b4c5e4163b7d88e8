//! The two numbers the benchmark reads from `/proc/self`: CPU time used
//! so far and the resident-set high-water mark.

/// Kernel clock ticks per second in `/proc/<pid>/stat` (`USER_HZ`). It
/// is 100 on every Linux ABI; reading it properly needs `sysconf`, and
/// this package links nothing but `std`.
const TICKS_PER_SECOND: f64 = 100.0;

/// `utime + stime` in clock ticks from the text of `/proc/<pid>/stat`.
/// The second field is the command name in parentheses and may itself
/// hold spaces and parentheses, so fields are counted from the last `)`.
pub fn parse_cpu_ticks(stat: &str) -> Option<u64> {
    let after_comm = &stat[stat.rfind(')')? + 1..];
    // after_comm starts at field 3 (state); utime and stime are 14 and 15.
    let mut fields = after_comm.split_ascii_whitespace().skip(11);
    let utime: u64 = fields.next()?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    Some(utime + stime)
}

/// `VmHWM` in KiB from the text of `/proc/<pid>/status`.
pub fn parse_vm_hwm_kib(status: &str) -> Option<u64> {
    let rest = status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))?;
    rest.trim().strip_suffix("kB")?.trim().parse().ok()
}

/// User plus system CPU seconds this process has used.
pub fn cpu_seconds() -> Result<f64, String> {
    let stat = std::fs::read_to_string("/proc/self/stat")
        .map_err(|e| format!("cannot read /proc/self/stat: {e}"))?;
    let ticks = parse_cpu_ticks(&stat).ok_or("cannot parse /proc/self/stat")?;
    Ok(ticks as f64 / TICKS_PER_SECOND)
}

/// Peak resident set of this process in MiB.
pub fn peak_rss_mib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    let kib = parse_vm_hwm_kib(&status).ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kib as f64 / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_ticks_from_canned_stat() {
        let stat = "4242 (benchmark) R 1 4242 4242 0 -1 4194304 900 0 0 0 \
                    731 19 0 0 20 0 1 0 123456 1000000 2000 18446744073709551615";
        assert_eq!(parse_cpu_ticks(stat), Some(750));
    }

    #[test]
    fn cpu_ticks_survive_a_hostile_command_name() {
        let stat = "7 (a b) c) 9) S 1 7 7 0 -1 0 0 0 0 0 12 30 0 0 20 0 1 0 5 6 7 8";
        assert_eq!(parse_cpu_ticks(stat), Some(42));
    }

    #[test]
    fn cpu_ticks_reject_truncated_input() {
        assert_eq!(parse_cpu_ticks("1 (x) R 1 2 3"), None);
        assert_eq!(parse_cpu_ticks("no parenthesis here"), None);
    }

    #[test]
    fn vm_hwm_from_canned_status() {
        let status =
            "Name:\tbenchmark\nVmPeak:\t  200000 kB\nVmHWM:\t   66560 kB\nVmRSS:\t   1024 kB\n";
        assert_eq!(parse_vm_hwm_kib(status), Some(66560));
        assert_eq!(parse_vm_hwm_kib("Name:\tx\nVmRSS:\t 1 kB\n"), None);
        assert_eq!(parse_vm_hwm_kib("VmHWM:\t lots\n"), None);
    }
}
