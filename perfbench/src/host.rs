//! Host-side helpers: seed derivation, provenance, peak memory and the
//! scratch directory a run writes its stores into.

use std::alloc::{GlobalAlloc, Layout, System};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};

use crate::json::Value;

/// SplitMix64 of `seed` salted with `salt` — every seed-moved input of
/// every workload derives through here.
pub fn mix(seed: u64, salt: u64) -> u64 {
    let mut z = seed ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The system allocator, counting live heap bytes and their peak. Unlike
/// the resident set, the live-heap peak does not depend on how the C
/// allocator happens to spread threads over its arenas, so it repeats
/// from run to run.
pub struct CountingAlloc;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

fn grew(by: usize) {
    let now = LIVE.fetch_add(by, Ordering::Relaxed) + by;
    PEAK.fetch_max(now, Ordering::Relaxed);
}

// SAFETY: every call forwards to `System` with the caller's arguments
// unchanged; the counters only observe sizes.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() {
            grew(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc_zeroed(layout);
        if !p.is_null() {
            grew(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = System.realloc(ptr, layout, new_size);
        if !p.is_null() {
            if new_size >= layout.size() {
                grew(new_size - layout.size());
            } else {
                LIVE.fetch_sub(layout.size() - new_size, Ordering::Relaxed);
            }
        }
        p
    }
}

/// Peak live heap of this process so far, in MiB.
pub fn peak_heap_mb() -> f64 {
    PEAK.load(Ordering::Relaxed) as f64 / (1024.0 * 1024.0)
}

/// Peak resident set size of this process in MB (`VmHWM`), 0 when the
/// platform does not report it.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// CPUs available to this process.
pub fn host_cpus() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The commit of the working tree when it is a git checkout (read from
/// `.git` without running git), otherwise `"unknown"`.
pub fn git_commit() -> String {
    let head = match std::fs::read_to_string(".git/HEAD") {
        Ok(h) => h.trim().to_string(),
        Err(_) => return "unknown".into(),
    };
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head;
    };
    std::fs::read_to_string(Path::new(".git").join(reference))
        .map_or_else(|_| "unknown".into(), |c| c.trim().to_string())
}

/// Provenance of one report: what a reader needs to reproduce it.
pub fn provenance(
    workload: &str,
    seed: u64,
    workers: usize,
    config_fps: &[(String, u64)],
) -> Value {
    Value::Obj(vec![
        ("workload".into(), Value::Str(workload.into())),
        ("seed".into(), Value::Num(seed as f64)),
        (
            "kernel_version".into(),
            Value::Num(f64::from(dda_bench::KERNEL_VERSION)),
        ),
        ("host_cpus".into(), Value::Num(host_cpus() as f64)),
        ("workers".into(), Value::Num(workers as f64)),
        ("rustc".into(), Value::Str(env!("PERFBENCH_RUSTC").into())),
        ("git_commit".into(), Value::Str(git_commit())),
        (
            "config_fingerprints".into(),
            Value::Obj(
                config_fps
                    .iter()
                    .map(|(k, h)| (k.clone(), Value::Str(format!("{h:016x}"))))
                    .collect(),
            ),
        ),
    ])
}

/// A directory under `.bench_work/` private to this process, removed
/// (with everything in it) on drop.
#[derive(Debug)]
pub struct WorkDir {
    root: PathBuf,
    next: std::cell::Cell<u64>,
}

impl WorkDir {
    /// Creates `.bench_work/<workload>-<pid>/` under the current directory.
    ///
    /// # Errors
    ///
    /// When the directory cannot be created.
    pub fn create(workload: &str) -> std::io::Result<WorkDir> {
        let root = Path::new(".bench_work").join(format!("{workload}-{}", std::process::id()));
        std::fs::create_dir_all(&root)?;
        Ok(WorkDir {
            root,
            next: std::cell::Cell::new(0),
        })
    }

    /// A fresh, not yet existing subdirectory path.
    pub fn fresh(&self, tag: &str) -> PathBuf {
        let n = self.next.get();
        self.next.set(n + 1);
        self.root.join(format!("{tag}-{n}"))
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.root);
    }
}

/// Removes a store directory; failure only leaks scratch space inside
/// the work directory, which is removed as a whole at exit.
pub fn discard(dir: &Path) {
    let _ = std::fs::remove_dir_all(dir);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mix_is_deterministic_and_salted() {
        assert_eq!(mix(7, 1), mix(7, 1));
        assert_ne!(mix(7, 1), mix(7, 2));
        assert_ne!(mix(7, 1), mix(8, 1));
    }
}
