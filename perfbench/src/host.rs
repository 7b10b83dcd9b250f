//! Host and process readings from `/proc`: CPU time, peak memory, the
//! machine's core counts and the share of time the hypervisor stole.

use std::fs;

/// `/proc` reports CPU time in `USER_HZ` ticks, fixed at 100 by the
/// kernel ABI whatever the scheduler's internal tick rate.
const USER_HZ: f64 = 100.0;

/// User plus system CPU time of this whole process (every thread), in
/// milliseconds.
pub fn process_cpu_ms() -> f64 {
    let stat = fs::read_to_string("/proc/self/stat").expect("read /proc/self/stat");
    // The command name (field 2) may contain spaces; fields are counted
    // from the closing parenthesis. utime and stime are fields 14 and 15.
    let rest = &stat[stat.rfind(')').expect("stat has a command name") + 2..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| -> f64 { fields[i].parse::<u64>().expect("numeric tick count") as f64 };
    (ticks(11) + ticks(12)) * 1000.0 / USER_HZ
}

/// `VmHWM` of this process (peak resident set), in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kb = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<u64>().ok())
        .expect("VmHWM line in /proc/self/status");
    kb as f64 / 1024.0
}

/// Aggregate CPU counters from the first line of `/proc/stat`.
#[derive(Clone, Copy)]
pub struct CpuTimes {
    total: u64,
    steal: u64,
}

impl CpuTimes {
    pub fn now() -> Self {
        let stat = fs::read_to_string("/proc/stat").expect("read /proc/stat");
        let line = stat.lines().next().expect("aggregate cpu line");
        // cpu user nice system idle iowait irq softirq steal guest guest_nice;
        // guest time is already counted in user, so it is left out of the total.
        let v: Vec<u64> = line
            .split_whitespace()
            .skip(1)
            .take(8)
            .map(|f| f.parse().expect("numeric cpu counter"))
            .collect();
        CpuTimes {
            total: v.iter().sum(),
            steal: v.get(7).copied().unwrap_or(0),
        }
    }

    /// Share of all CPU time between `self` and `later` that the
    /// hypervisor gave to other guests.
    pub fn steal_frac_until(&self, later: &CpuTimes) -> f64 {
        let total = later.total.saturating_sub(self.total);
        if total == 0 {
            return 0.0;
        }
        later.steal.saturating_sub(self.steal) as f64 / total as f64
    }
}

/// Online CPUs, counted from the per-CPU lines of `/proc/stat`.
pub fn nproc() -> usize {
    fs::read_to_string("/proc/stat")
        .expect("read /proc/stat")
        .lines()
        .filter(|l| l.starts_with("cpu") && l.as_bytes().get(3).is_some_and(u8::is_ascii_digit))
        .count()
}

/// Threads this process may run at once (affinity and cgroup quota).
pub fn available_parallelism() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}
