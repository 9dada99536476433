//! What a run records about the box it ran on, so that a figure from a
//! different machine is not mistaken for a regression.

use std::path::Path;

/// A field of `/proc/self/status` (Linux), without its trailing unit.
fn proc_status(key: &str) -> Option<String> {
    let text = std::fs::read_to_string("/proc/self/status").ok()?;
    text.lines()
        .find_map(|l| l.strip_prefix(key)?.strip_prefix(':'))
        .map(|v| v.trim().trim_end_matches(" kB").to_string())
}

/// CPUs this process may run on (what `nproc` prints), falling back to
/// `available_parallelism` off Linux.
pub fn nproc() -> usize {
    let from_mask = proc_status("Cpus_allowed_list").and_then(|list| {
        list.split(',')
            .map(|part| match part.split_once('-') {
                Some((a, b)) => Some(b.parse::<usize>().ok()? + 1 - a.parse::<usize>().ok()?),
                None => part.parse::<usize>().ok().map(|_| 1),
            })
            .sum::<Option<usize>>()
    });
    from_mask.unwrap_or_else(available_parallelism).max(1)
}

/// `std::thread::available_parallelism` (honours cgroup CPU quotas).
pub fn available_parallelism() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Peak resident set size of this process in MB (VmHWM), or 0 when the
/// platform does not report it.
pub fn peak_rss_mb() -> f64 {
    proc_status("VmHWM")
        .and_then(|kb| kb.parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The commit of the checkout, when it is a git work tree.
pub fn commit() -> String {
    let read = |p: &str| std::fs::read_to_string(Path::new(".git").join(p)).ok();
    let Some(head) = read("HEAD") else {
        return "unknown".into();
    };
    let head = head.trim();
    match head.strip_prefix("ref: ") {
        None => head.to_string(),
        Some(reference) => read(reference)
            .map(|s| s.trim().to_string())
            .or_else(|| {
                read("packed-refs")?
                    .lines()
                    .find(|l| l.ends_with(reference))
                    .and_then(|l| l.split_whitespace().next())
                    .map(str::to_string)
            })
            .unwrap_or_else(|| "unknown".into()),
    }
}
