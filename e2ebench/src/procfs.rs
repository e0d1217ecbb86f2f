//! CPU time and peak memory of a process, read from Linux `/proc`.

use std::io;

/// `/proc` reports CPU time in `USER_HZ` ticks, which Linux fixes at 100
/// per second for every architecture's user-visible interfaces.
const TICKS_PER_S: f64 = 100.0;

fn proc_file(pid: Option<u32>, file: &str) -> io::Result<String> {
    let path = match pid {
        Some(pid) => format!("/proc/{pid}/{file}"),
        None => format!("/proc/self/{file}"),
    };
    std::fs::read_to_string(path)
}

/// User plus system CPU seconds consumed so far by `pid` (this process when
/// `None`), all threads included.
pub fn cpu_seconds(pid: Option<u32>) -> io::Result<f64> {
    let stat = proc_file(pid, "stat")?;
    // The command name in field 2 may contain spaces; fields resume after
    // its closing parenthesis, starting with field 3 (state).
    let rest = stat
        .rfind(')')
        .map(|i| &stat[i + 1..])
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "malformed stat"))?;
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let field = |n: usize| -> io::Result<f64> {
        fields
            .get(n - 3)
            .and_then(|s| s.parse::<f64>().ok())
            .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "malformed stat field"))
    };
    Ok((field(14)? + field(15)?) / TICKS_PER_S)
}

/// Peak resident set size (`VmHWM`) of `pid` (this process when `None`),
/// in MB.
pub fn peak_rss_mb(pid: Option<u32>) -> io::Result<f64> {
    let status = proc_file(pid, "status")?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "no VmHWM in status"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reads_own_cpu_and_memory() {
        let cpu = cpu_seconds(None).expect("stat");
        assert!(cpu >= 0.0);
        let mb = peak_rss_mb(None).expect("status");
        assert!(mb > 0.0);
    }
}
