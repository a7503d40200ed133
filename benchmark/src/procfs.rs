//! What the kernel reports about this process and host: peak resident
//! memory, CPU time and load average. Parsing is separate from reading so
//! it can be tested on fixed text.

use std::fs;

/// `VmHWM` (peak resident set) in MB from `/proc/<pid>/status` text.
pub fn parse_vm_hwm_mb(status: &str) -> Option<f64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let mut fields = line["VmHWM:".len()..].split_whitespace();
    let kb: f64 = fields.next()?.parse().ok()?;
    (fields.next() == Some("kB")).then_some(kb / 1024.0)
}

/// `utime + stime` in clock ticks from `/proc/<pid>/stat` text. The
/// command name (field 2) may itself contain spaces and parentheses, so
/// fields are counted from the last `)`.
pub fn parse_cpu_ticks(stat: &str) -> Option<u64> {
    let rest = &stat[stat.rfind(')')? + 1..];
    // `rest` starts at field 3 (state); utime and stime are fields 14, 15.
    let mut fields = rest.split_whitespace().skip(11);
    let utime: u64 = fields.next()?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    Some(utime + stime)
}

/// The 1-minute load average from `/proc/loadavg` text.
pub fn parse_loadavg1(loadavg: &str) -> Option<f64> {
    loadavg.split_whitespace().next()?.parse().ok()
}

/// Peak resident set of this process, MB.
pub fn vm_hwm_mb() -> f64 {
    fs::read_to_string("/proc/self/status")
        .ok()
        .as_deref()
        .and_then(parse_vm_hwm_mb)
        .expect("/proc/self/status has a VmHWM line")
}

/// CPU seconds (user + system) this process has used. Linux reports the
/// ticks of `/proc/self/stat` at `USER_HZ`, which is 100 on every
/// supported architecture.
pub fn cpu_seconds() -> f64 {
    const USER_HZ: f64 = 100.0;
    let ticks = fs::read_to_string("/proc/self/stat")
        .ok()
        .as_deref()
        .and_then(parse_cpu_ticks)
        .expect("/proc/self/stat has utime and stime");
    ticks as f64 / USER_HZ
}

/// The host's 1-minute load average.
pub fn loadavg1() -> f64 {
    fs::read_to_string("/proc/loadavg")
        .ok()
        .as_deref()
        .and_then(parse_loadavg1)
        .expect("/proc/loadavg starts with the 1-minute average")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vm_hwm_line() {
        let status = "Name:\tperfbench\nVmPeak:\t  999999 kB\nVmHWM:\t  524288 kB\nVmRSS:\t 1 kB\n";
        assert_eq!(parse_vm_hwm_mb(status), Some(512.0));
        assert_eq!(parse_vm_hwm_mb("Name:\tx\n"), None);
        assert_eq!(parse_vm_hwm_mb("VmHWM:\t12 pages\n"), None);
    }

    #[test]
    fn cpu_ticks_survive_a_hostile_command_name() {
        let stat = "4242 (a b) c)) R 1 2 3 4 5 6 7 8 9 10 1500 250 0 0 20 0 1 0 99 1 2";
        assert_eq!(parse_cpu_ticks(stat), Some(1750));
        assert_eq!(parse_cpu_ticks("4242 (x) R 1 2"), None);
        assert_eq!(parse_cpu_ticks("no parens"), None);
    }

    #[test]
    fn loadavg_first_field() {
        assert_eq!(parse_loadavg1("0.14 0.50 0.66 2/86 4860\n"), Some(0.14));
        assert_eq!(parse_loadavg1(""), None);
    }

    #[test]
    fn live_readings_are_sane() {
        assert!(vm_hwm_mb() > 0.0);
        assert!(cpu_seconds() >= 0.0);
        assert!(loadavg1() >= 0.0);
    }
}
