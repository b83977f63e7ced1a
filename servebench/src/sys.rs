//! Process and environment probes read from `/proc` and the checkout:
//! CPU time of the process and of the calling thread, resident memory, core
//! count and commit.

use std::fs;
use std::path::Path;

/// Clock ticks per second of the `utime`/`stime` fields in `/proc/*/stat`
/// (Linux `USER_HZ`, fixed at 100 on every mainstream architecture).
const USER_HZ: u64 = 100;

/// Variables that change which code path the program runs. A result taken
/// with any of them set would not be comparable, so the benchmark refuses.
pub fn forbidden_env() -> Vec<String> {
    std::env::vars()
        .map(|(key, _)| key)
        .filter(|key| {
            key == "VARADE_BACKEND"
                || key == "VARADE_INCREMENTAL"
                || key.starts_with("VARADE_CHECK_")
        })
        .collect()
}

/// `utime + stime` of a `/proc/.../stat` line, in nanoseconds.
fn stat_cpu_ns(stat: &str) -> Option<u64> {
    // The command name (field 2) may hold spaces; fields after the closing
    // parenthesis are space-separated, utime and stime are fields 14 and 15.
    let rest = &stat[stat.rfind(')')? + 2..];
    let mut fields = rest.split_whitespace().skip(11);
    let utime: u64 = fields.next()?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    Some((utime + stime) * (1_000_000_000 / USER_HZ))
}

/// User + system CPU time of the whole process so far, including threads
/// that have already exited.
pub fn process_cpu_ns() -> u64 {
    fs::read_to_string("/proc/self/stat")
        .ok()
        .and_then(|s| stat_cpu_ns(&s))
        .expect("/proc/self/stat is readable on Linux")
}

/// CPU time the calling thread has run, in nanoseconds (`schedstat`
/// resolution).
pub fn thread_cpu_ns() -> u64 {
    fs::read_to_string("/proc/thread-self/schedstat")
        .ok()
        .and_then(|text| text.split_whitespace().next()?.parse().ok())
        .expect("/proc/thread-self/schedstat is readable on Linux")
}

/// A `kB` field of `/proc/self/status`, in bytes.
fn status_bytes(field: &str) -> u64 {
    let status = fs::read_to_string("/proc/self/status").expect("/proc/self/status is readable");
    status
        .lines()
        .find_map(|line| {
            let value = line.strip_prefix(field)?.strip_prefix(':')?;
            value
                .trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<u64>()
                .ok()
        })
        .map(|kb| kb * 1024)
        .unwrap_or_else(|| panic!("/proc/self/status has no {field} line"))
}

/// Peak resident set size of the process (`VmHWM`), in bytes.
pub fn peak_rss_bytes() -> u64 {
    status_bytes("VmHWM")
}

/// Current resident set size of the process (`VmRSS`), in bytes.
pub fn rss_bytes() -> u64 {
    status_bytes("VmRSS")
}

/// Cores the process may run on.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The commit checked out in the working directory, read from `.git` without
/// running git, or `unknown` where there is no repository.
pub fn git_commit() -> String {
    let git = Path::new(".git");
    let Ok(head) = fs::read_to_string(git.join("HEAD")) else {
        return "unknown".into();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    if let Ok(id) = fs::read_to_string(git.join(reference)) {
        return id.trim().to_string();
    }
    fs::read_to_string(git.join("packed-refs"))
        .ok()
        .and_then(|packed| {
            packed.lines().find_map(|line| {
                let (id, name) = line.split_once(' ')?;
                (name == reference).then(|| id.to_string())
            })
        })
        .unwrap_or_else(|| "unknown".into())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stat_fields_after_a_command_name_with_spaces() {
        let line = "42 (a b) S 1 2 3 4 5 6 7 8 9 10 250 30 0 0";
        assert_eq!(stat_cpu_ns(line), Some(280 * 10_000_000));
    }
}
