//! Outside-visible process state: `/proc` readers, child-process
//! resource usage, and signal delivery. Linux only.

use std::collections::BTreeMap;
use std::time::Duration;

/// Clock ticks per second of `/proc/stat` (USER_HZ; 100 on every
/// Linux configuration the kernel ABI allows to be observed).
const USER_HZ: f64 = 100.0;

#[repr(C)]
#[derive(Default)]
struct Timeval {
    sec: i64,
    usec: i64,
}

/// `struct rusage` on 64-bit Linux: two timevals, then 14 longs.
#[repr(C)]
#[derive(Default)]
struct Rusage {
    utime: Timeval,
    stime: Timeval,
    maxrss: i64,
    rest: [i64; 13],
}

extern "C" {
    fn getrusage(who: i32, usage: *mut Rusage) -> i32;
    fn kill(pid: i32, sig: i32) -> i32;
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
}

/// Words of a `cpu_set_t` (1024 CPUs).
const CPU_SET_WORDS: usize = 16;

/// Restrict the calling thread, every thread it starts from now on and
/// every child process it spawns to the lowest-numbered CPU it may run
/// on, and return that CPU. Call it before any other thread exists.
pub fn pin_to_one_cpu() -> Result<usize, String> {
    let mut allowed = [0u64; CPU_SET_WORDS];
    // SAFETY: `allowed` is a live, writable buffer of exactly the size
    // passed; pid 0 names the calling thread.
    let rc = unsafe { sched_getaffinity(0, std::mem::size_of_val(&allowed), allowed.as_mut_ptr()) };
    if rc != 0 {
        return Err(format!(
            "sched_getaffinity: {}",
            std::io::Error::last_os_error()
        ));
    }
    let cpu = (0..CPU_SET_WORDS * 64)
        .find(|&c| allowed[c / 64] >> (c % 64) & 1 == 1)
        .ok_or("sched_getaffinity: empty CPU set")?;
    let mut one = [0u64; CPU_SET_WORDS];
    one[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: `one` is a live buffer of exactly the size passed; pid 0
    // names the calling thread.
    let rc = unsafe { sched_setaffinity(0, std::mem::size_of_val(&one), one.as_ptr()) };
    if rc != 0 {
        return Err(format!(
            "sched_setaffinity: {}",
            std::io::Error::last_os_error()
        ));
    }
    Ok(cpu)
}

const RUSAGE_CHILDREN: i32 = -1;
const SIGTERM: i32 = 15;

/// Resource usage of every child this process has waited for so far.
#[derive(Debug, Clone, Copy, Default)]
pub struct ChildUsage {
    /// User + system CPU seconds.
    pub cpu_s: f64,
    /// Largest peak RSS (`VmHWM`) of any waited-for child, in MB.
    pub max_rss_mb: f64,
}

pub fn children_usage() -> ChildUsage {
    let mut ru = Rusage::default();
    // SAFETY: `ru` is a live, writable `struct rusage` with the 64-bit
    // Linux layout, and RUSAGE_CHILDREN is a valid `who`.
    let rc = unsafe { getrusage(RUSAGE_CHILDREN, &mut ru) };
    if rc != 0 {
        return ChildUsage::default();
    }
    let tv = |t: &Timeval| t.sec as f64 + t.usec as f64 * 1e-6;
    ChildUsage {
        cpu_s: tv(&ru.utime) + tv(&ru.stime),
        // ru_maxrss is in KiB on Linux.
        max_rss_mb: ru.maxrss as f64 / 1024.0,
    }
}

/// Ask `pid` to shut down gracefully.
pub fn terminate(pid: u32) {
    // SAFETY: kill(2) has no memory-safety preconditions; `pid` is a
    // child this process spawned and has not yet reaped.
    unsafe {
        kill(pid as i32, SIGTERM);
    }
}

/// CPU tick counters from one line of `/proc/stat`.
#[derive(Debug, Clone, Copy, Default)]
pub struct CpuTicks {
    pub idle_s: f64,
    pub steal_s: f64,
    pub total_s: f64,
}

/// Counters of CPU `cpu`, or summed over all CPUs for `None`.
pub fn cpu_ticks(cpu: Option<usize>) -> CpuTicks {
    let text = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let label = cpu.map_or("cpu".to_string(), |c| format!("cpu{c}"));
    let Some(line) = text
        .lines()
        .find(|l| l.split_whitespace().next() == Some(label.as_str()))
    else {
        return CpuTicks::default();
    };
    let v: Vec<f64> = line
        .split_whitespace()
        .skip(1)
        .filter_map(|x| x.parse().ok())
        .collect();
    let at = |i: usize| v.get(i).copied().unwrap_or(0.0) / USER_HZ;
    CpuTicks {
        // idle + iowait
        idle_s: at(3) + at(4),
        steal_s: at(7),
        // guest time is already counted in user
        total_s: (0..8).map(at).sum(),
    }
}

impl CpuTicks {
    pub fn since(&self, start: &CpuTicks) -> CpuTicks {
        CpuTicks {
            idle_s: self.idle_s - start.idle_s,
            steal_s: self.steal_s - start.steal_s,
            total_s: self.total_s - start.total_s,
        }
    }
}

/// The 1-minute load average.
pub fn loadavg() -> f64 {
    std::fs::read_to_string("/proc/loadavg")
        .ok()
        .and_then(|s| s.split_whitespace().next().and_then(|x| x.parse().ok()))
        .unwrap_or(0.0)
}

/// `VmHWM` of a live process, in MB.
pub fn vm_hwm_mb(pid: u32) -> f64 {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| {
            v.split_whitespace()
                .next()
                .and_then(|x| x.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// On-CPU nanoseconds of every thread of `pid`, keyed by thread id,
/// with the thread's `comm`.
pub fn thread_cpu(pid: u32) -> BTreeMap<u32, (String, u64)> {
    let mut out = BTreeMap::new();
    let Ok(dir) = std::fs::read_dir(format!("/proc/{pid}/task")) else {
        return out;
    };
    for entry in dir.flatten() {
        let Some(tid) = entry.file_name().to_str().and_then(|s| s.parse().ok()) else {
            continue;
        };
        let path = entry.path();
        let comm = std::fs::read_to_string(path.join("comm")).unwrap_or_default();
        let ns = std::fs::read_to_string(path.join("schedstat"))
            .ok()
            .and_then(|s| s.split_whitespace().next().and_then(|x| x.parse().ok()))
            .unwrap_or(0);
        out.insert(tid, (comm.trim().to_string(), ns));
    }
    out
}

/// Thread role of a daemon thread, from its `comm` (truncated by the
/// kernel to 15 bytes).
pub fn thread_role(comm: &str) -> &'static str {
    if comm.starts_with("lsi-serve-work") {
        "workers"
    } else if comm.starts_with("lsi-serve-batc") {
        "batcher"
    } else if comm.starts_with("lsi-pool") {
        "pool"
    } else {
        "accept"
    }
}

/// On-CPU seconds per thread role between two [`thread_cpu`] samples.
pub fn role_cpu_s(
    start: &BTreeMap<u32, (String, u64)>,
    end: &BTreeMap<u32, (String, u64)>,
) -> BTreeMap<&'static str, f64> {
    let mut out: BTreeMap<&'static str, f64> = ["accept", "workers", "batcher", "pool"]
        .into_iter()
        .map(|r| (r, 0.0))
        .collect();
    for (tid, (comm, ns)) in end {
        let before = start.get(tid).map_or(0, |(_, b)| *b);
        *out.entry(thread_role(comm)).or_default() += ns.saturating_sub(before) as f64 * 1e-9;
    }
    out
}

/// On-CPU seconds of the calling thread so far.
pub fn thread_self_cpu_s() -> f64 {
    std::fs::read_to_string("/proc/thread-self/schedstat")
        .ok()
        .and_then(|s| {
            s.split_whitespace()
                .next()
                .and_then(|x| x.parse::<f64>().ok())
        })
        .map_or(0.0, |ns| ns * 1e-9)
}

/// On-CPU seconds of every thread of `pid` so far.
pub fn process_cpu_s(pid: u32) -> f64 {
    thread_cpu(pid)
        .values()
        .map(|(_, ns)| *ns as f64 * 1e-9)
        .sum()
}

/// Sleep in short steps until `cond` holds or `limit` passes.
pub fn wait_for(limit: Duration, mut cond: impl FnMut() -> bool) -> bool {
    let t0 = std::time::Instant::now();
    while t0.elapsed() < limit {
        if cond() {
            return true;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    cond()
}
