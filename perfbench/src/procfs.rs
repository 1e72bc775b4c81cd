//! Process figures read from Linux `/proc`: peak resident memory and
//! system CPU time. Each reader returns `None` where the file or field is
//! unavailable.

/// Clock ticks per second of `/proc/<pid>/stat` times. Linux fixes
/// `USER_HZ` at 100 on every architecture it exposes to user space.
const USER_HZ: f64 = 100.0;

fn status_kib(field: &str) -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with(field))?;
    line[field.len()..]
        .split_whitespace()
        .next()?
        .parse::<f64>()
        .ok()
}

/// Peak resident set size (`VmHWM`) of this process, in MiB.
pub fn peak_rss_mb() -> Option<f64> {
    status_kib("VmHWM:").map(|kib| kib / 1024.0)
}

/// System CPU time this process has used so far, in seconds (field 15,
/// `stime`, of `/proc/self/stat`).
pub fn sys_cpu_s() -> Option<f64> {
    let stat = std::fs::read_to_string("/proc/self/stat").ok()?;
    // The command name may hold spaces; fields resume after its ')'.
    let rest = &stat[stat.rfind(')')? + 1..];
    // rest starts at field 3 (state); stime is field 15.
    let stime: f64 = rest.split_whitespace().nth(12)?.parse().ok()?;
    Some(stime / USER_HZ)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reads_own_process_figures() {
        let rss = peak_rss_mb().expect("VmHWM is readable on Linux");
        assert!(rss > 0.0);
        let sys = sys_cpu_s().expect("stat is readable on Linux");
        assert!(sys >= 0.0);
    }
}
