//! Host facts and process counters, read from `/proc`, and CPU
//! confinement.

use std::path::Path;

/// Facts about the machine a result was measured on.
#[derive(Debug, Clone)]
pub struct HostFacts {
    pub nproc: usize,
    pub kernel: String,
    pub cpu_model: String,
    pub git_rev: String,
}

impl HostFacts {
    /// Collects the facts; a field that cannot be read says `unknown`.
    pub fn collect(repo_root: &Path) -> Self {
        HostFacts {
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
            kernel: read_trimmed("/proc/sys/kernel/osrelease"),
            cpu_model: std::fs::read_to_string("/proc/cpuinfo")
                .ok()
                .and_then(|info| {
                    info.lines()
                        .find(|l| l.starts_with("model name"))
                        .and_then(|l| l.split_once(':'))
                        .map(|(_, v)| v.trim().to_string())
                })
                .unwrap_or_else(|| "unknown".into()),
            git_rev: git_rev(repo_root),
        }
    }
}

fn read_trimmed(path: &str) -> String {
    std::fs::read_to_string(path)
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|_| "unknown".into())
}

/// The checked-out commit, read from `.git` without running git; a
/// source tree that is not a git checkout reports `unknown`.
fn git_rev(root: &Path) -> String {
    let git = root.join(".git");
    let Ok(head) = std::fs::read_to_string(git.join("HEAD")) else {
        return "unknown".into();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    if let Ok(rev) = std::fs::read_to_string(git.join(reference)) {
        return rev.trim().to_string();
    }
    std::fs::read_to_string(git.join("packed-refs"))
        .ok()
        .and_then(|packed| {
            packed.lines().find_map(|l| {
                let (rev, name) = l.split_once(' ')?;
                (name == reference).then(|| rev.to_string())
            })
        })
        .unwrap_or_else(|| "unknown".into())
}

/// User + system CPU time of the whole process (every thread, client
/// and daemon alike), in microseconds. `CLOCK_PROCESS_CPUTIME_ID` has
/// nanosecond resolution, where `/proc/self/stat` counts 10 ms ticks:
/// too coarse for windows of 25 ms.
pub fn process_cpu_us() -> u64 {
    let mut ts = sys::Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a writable timespec for the duration of the call.
    if unsafe { sys::clock_gettime(sys::CLOCK_PROCESS_CPUTIME_ID, &mut ts) } != 0 {
        return 0;
    }
    ts.tv_sec as u64 * 1_000_000 + ts.tv_nsec as u64 / 1_000
}

/// The process's resident-set high-water mark in MiB.
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status.lines().find_map(|l| {
                let kib = l.strip_prefix("VmHWM:")?.trim().strip_suffix("kB")?;
                kib.trim().parse::<f64>().ok()
            })
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// The filesystem type holding `path`: the longest mount point in
/// `/proc/self/mountinfo` that prefixes its canonical form.
pub fn fs_type(path: &Path) -> String {
    let Ok(path) = path.canonicalize() else {
        return "unknown".into();
    };
    let Ok(info) = std::fs::read_to_string("/proc/self/mountinfo") else {
        return "unknown".into();
    };
    let mut best: Option<(usize, String)> = None;
    for line in info.lines() {
        // "<id> <parent> <dev> <root> <mount point> <opts> ... - <fstype> ..."
        let mut fields = line.split(' ');
        let Some(mount) = fields.nth(4) else { continue };
        let Some((_, tail)) = line.split_once(" - ") else {
            continue;
        };
        let fstype = tail.split(' ').next().unwrap_or("unknown");
        if path.starts_with(mount) && best.as_ref().is_none_or(|(len, _)| mount.len() >= *len) {
            best = Some((mount.len(), fstype.to_string()));
        }
    }
    best.map_or_else(|| "unknown".into(), |(_, fs)| fs)
}

mod sys {
    //! The libc entry points for CPU confinement, syncfs and the process
    //! CPU clock (the repository declares its few libc calls the same way
    //! instead of pulling in a crate).
    use std::os::raw::{c_int, c_long};

    /// `struct timespec` on Linux.
    #[repr(C)]
    pub struct Timespec {
        pub tv_sec: c_long,
        pub tv_nsec: c_long,
    }

    pub const CLOCK_PROCESS_CPUTIME_ID: c_int = 2;

    extern "C" {
        pub fn clock_gettime(clock: c_int, ts: *mut Timespec) -> c_int;
        pub fn sched_getaffinity(pid: c_int, cpusetsize: usize, mask: *mut u64) -> c_int;
        pub fn sched_setaffinity(pid: c_int, cpusetsize: usize, mask: *const u64) -> c_int;
        pub fn syncfs(fd: c_int) -> c_int;
    }
}

/// Writes back every dirty page of the filesystem holding `dir`, so the
/// run's own fsyncs do not pay for data other programs left behind (a
/// fresh build, say).
pub fn sync_filesystem(dir: &Path) -> Result<(), String> {
    use std::os::fd::AsRawFd;
    let handle = std::fs::File::open(dir).map_err(|e| format!("open {}: {e}", dir.display()))?;
    // SAFETY: the descriptor is open for the duration of the call.
    if unsafe { sys::syncfs(handle.as_raw_fd()) } != 0 {
        return Err(format!("syncfs: {}", std::io::Error::last_os_error()));
    }
    Ok(())
}

/// `cpu_set_t` is 1024 bits.
const CPU_SET_WORDS: usize = 16;

/// Confines the calling thread — and every thread it creates from now
/// on, daemon threads included — to the last `n` CPUs it may run on.
/// Returns the CPUs kept. Call before any other thread starts.
pub fn confine_to_cpus(n: usize) -> Result<Vec<usize>, String> {
    let mut mask = [0u64; CPU_SET_WORDS];
    // SAFETY: `mask` is a writable buffer of exactly the size passed,
    // and pid 0 names the calling thread.
    let rc = unsafe { sys::sched_getaffinity(0, std::mem::size_of_val(&mask), mask.as_mut_ptr()) };
    if rc != 0 {
        return Err(format!(
            "sched_getaffinity: {}",
            std::io::Error::last_os_error()
        ));
    }
    let allowed: Vec<usize> = (0..CPU_SET_WORDS * 64)
        .filter(|&cpu| mask[cpu / 64] & (1 << (cpu % 64)) != 0)
        .collect();
    let kept: Vec<usize> = allowed[allowed.len().saturating_sub(n.max(1))..].to_vec();
    let mut new_mask = [0u64; CPU_SET_WORDS];
    for &cpu in &kept {
        new_mask[cpu / 64] |= 1 << (cpu % 64);
    }
    // SAFETY: `new_mask` is a readable buffer of exactly the size
    // passed, and pid 0 names the calling thread.
    let rc =
        unsafe { sys::sched_setaffinity(0, std::mem::size_of_val(&new_mask), new_mask.as_ptr()) };
    if rc != 0 {
        return Err(format!(
            "sched_setaffinity: {}",
            std::io::Error::last_os_error()
        ));
    }
    Ok(kept)
}
