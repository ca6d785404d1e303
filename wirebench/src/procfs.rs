//! Reading a process's CPU time, threads and peak memory from `/proc`.

use std::path::Path;

/// CPU time and name of one process or thread, from its `stat` file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Stat {
    /// The `comm` field, without its parentheses.
    pub comm: String,
    /// User plus system time, in clock ticks.
    pub cpu_ticks: u64,
}

/// Parses one `/proc/<pid>/stat` or `/proc/<pid>/task/<tid>/stat` line.
/// The `comm` field is the text between the first `(` and the *last* `)`,
/// since a thread name may itself hold spaces and parentheses; `utime`
/// and `stime` are fields 14 and 15 of the whole line.
#[must_use]
pub fn parse_stat(line: &str) -> Option<Stat> {
    let open = line.find('(')?;
    let close = line.rfind(')')?;
    if close < open {
        return None;
    }
    let comm = line[open + 1..close].to_string();
    // Fields after `comm` start at field 3 (state).
    let rest: Vec<&str> = line[close + 1..].split_whitespace().collect();
    let utime: u64 = rest.get(14 - 3)?.parse().ok()?;
    let stime: u64 = rest.get(15 - 3)?.parse().ok()?;
    Some(Stat {
        comm,
        cpu_ticks: utime + stime,
    })
}

/// The process's own `stat`.
#[must_use]
pub fn process_stat(pid: u32) -> Option<Stat> {
    parse_stat(&std::fs::read_to_string(format!("/proc/{pid}/stat")).ok()?)
}

/// Every live thread's `stat`, in no particular order.
#[must_use]
pub fn thread_stats(pid: u32) -> Vec<Stat> {
    let Ok(dir) = std::fs::read_dir(format!("/proc/{pid}/task")) else {
        return Vec::new();
    };
    dir.filter_map(Result::ok)
        .filter_map(|e| std::fs::read_to_string(e.path().join("stat")).ok())
        .filter_map(|s| parse_stat(&s))
        .collect()
}

/// Summed CPU ticks of the live threads named `comm`.
#[must_use]
pub fn thread_ticks(threads: &[Stat], comm: &str) -> u64 {
    threads
        .iter()
        .filter(|t| t.comm == comm)
        .map(|t| t.cpu_ticks)
        .sum()
}

/// Whether a thread named `comm` currently exists in process `pid`.
#[must_use]
pub fn has_thread(pid: u32, comm: &str) -> bool {
    let Ok(dir) = std::fs::read_dir(format!("/proc/{pid}/task")) else {
        return false;
    };
    dir.filter_map(Result::ok).any(|e| {
        std::fs::read_to_string(e.path().join("comm"))
            .is_ok_and(|c| c.trim_end_matches('\n') == comm)
    })
}

/// `VmHWM` (peak resident set) from a `/proc/<pid>/status` body, in KiB.
#[must_use]
pub fn parse_vm_hwm_kib(status: &str) -> Option<u64> {
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))?
        .trim()
        .strip_suffix("kB")?
        .trim()
        .parse()
        .ok()
}

/// Peak resident set of process `pid`, in MiB.
#[must_use]
pub fn peak_rss_mb(pid: u32) -> Option<f64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    Some(parse_vm_hwm_kib(&status)? as f64 / 1024.0)
}

/// Clock ticks per second (`sysconf(_SC_CLK_TCK)`).
#[must_use]
pub fn ticks_per_sec() -> f64 {
    extern "C" {
        fn sysconf(name: i32) -> i64;
    }
    const SC_CLK_TCK: i32 = 2;
    // SAFETY: sysconf only reads a configuration constant.
    let t = unsafe { sysconf(SC_CLK_TCK) };
    if t > 0 {
        t as f64
    } else {
        100.0
    }
}

/// Machine-wide time stolen by the hypervisor so far, in clock ticks:
/// the `steal` column of the `cpu` line of `/proc/stat`.
#[must_use]
pub fn steal_ticks() -> u64 {
    std::fs::read_to_string("/proc/stat")
        .ok()
        .and_then(|s| parse_steal(&s))
        .unwrap_or(0)
}

/// The `steal` column (the 8th value) of the aggregate `cpu` line.
#[must_use]
pub fn parse_steal(stat: &str) -> Option<u64> {
    stat.lines()
        .find(|l| l.starts_with("cpu "))?
        .split_whitespace()
        .nth(8)?
        .parse()
        .ok()
}

/// Logical CPUs online, from `/proc/cpuinfo`.
#[must_use]
pub fn cpuinfo() -> (usize, String) {
    let body = std::fs::read_to_string(Path::new("/proc/cpuinfo")).unwrap_or_default();
    let nproc = body.lines().filter(|l| l.starts_with("processor")).count();
    let model = body
        .lines()
        .find_map(|l| l.strip_prefix("model name"))
        .and_then(|l| l.split_once(':'))
        .map_or_else(|| "unknown".to_string(), |(_, m)| m.trim().to_string());
    (nproc, model)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stat_line_with_plain_comm() {
        let line = "4242 (serve-driver) S 1 4242 4242 0 -1 4194368 610 0 0 0 1234 56 0 0 20 0 9 0 100 1 2 3";
        let s = parse_stat(line).unwrap();
        assert_eq!(s.comm, "serve-driver");
        assert_eq!(s.cpu_ticks, 1234 + 56);
    }

    #[test]
    fn stat_line_with_spaces_and_parentheses_in_comm() {
        let line = "77 (a (b) c) d) R 1 77 77 0 -1 0 0 0 0 0 7 8 0 0 20 0 1 0 5 6 7";
        let s = parse_stat(line).unwrap();
        assert_eq!(s.comm, "a (b) c) d");
        assert_eq!(s.cpu_ticks, 15);
        let line = "78 ( ) R 1 77 77 0 -1 0 0 0 0 0 1 2 0 0 20 0 1 0 5 6 7";
        assert_eq!(parse_stat(line).unwrap().comm, " ");
    }

    #[test]
    fn malformed_stat_lines_are_rejected() {
        assert_eq!(parse_stat(""), None);
        assert_eq!(parse_stat("1 (x) R 1 2"), None);
        assert_eq!(parse_stat("1 )x( R 1 2 3 4 5 6 7 8 9 10 11 12 13"), None);
        assert_eq!(parse_stat("1 (x) R 1 1 1 0 -1 0 0 0 0 0 u s"), None);
    }

    #[test]
    fn own_process_and_threads_are_readable() {
        let pid = std::process::id();
        let me = process_stat(pid).unwrap();
        assert!(!me.comm.is_empty());
        assert!(!thread_stats(pid).is_empty());
        assert!(peak_rss_mb(pid).unwrap() > 0.0);
        assert!(ticks_per_sec() > 0.0);
    }

    #[test]
    fn steal_column_of_the_cpu_line() {
        let stat = "cpu  219588 0 14660 472049 979 0 1235 5235 0 0\ncpu0 1 2 3 4 5 6 7 8 9 10\n";
        assert_eq!(parse_steal(stat), Some(5235));
        assert_eq!(parse_steal("cpu0 1 2\n"), None);
    }

    #[test]
    fn vm_hwm_from_status() {
        let status = "Name:\tsurveil\nVmPeak:\t  200 kB\nVmHWM:\t   14848 kB\nVmRSS:\t 1 kB\n";
        assert_eq!(parse_vm_hwm_kib(status), Some(14_848));
        assert_eq!(parse_vm_hwm_kib("Name:\tx\n"), None);
    }
}
