//! An in-tree thread pool for configuration sweeps and fuzz campaigns.
//!
//! A dependency-free pool sized for the harness's needs: a batch of independent `FnOnce` tasks (one per
//! benchmark × configuration point, or one per fuzz input), executed
//! once, results returned in submission order. Workers claim tasks in
//! submission order from one shared counter.
//!
//! The calling thread is the first worker, and it works the batch alone
//! for its first `SPAWN_AFTER` (10 ms); only a batch still running after that
//! spawns the other workers. A helper thread costs a spawn and a join
//! (tens of microseconds on an idle host, hundreds on a busy one), and
//! while another process holds a CPU a helper sharing it stalls the whole
//! batch at the join: a ten-input fuzz campaign of about 2 ms lost ~30 %
//! of its rate to one competing busy process on a 2-CPU host when it was
//! split over two threads, and nothing when it ran on the caller alone.
//! Sweeps of cells taking milliseconds to seconds each still spread over
//! every worker after the first `SPAWN_AFTER`.
//!
//! Panic isolation: a panicking task never takes the pool down. The
//! worker catches the unwind at the task boundary, records it as that
//! task's `Err` result, and moves on to the next task — the behaviour
//! figure sweeps need when one configuration point is poisoned.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// How long the calling thread works a batch alone before it spawns the
/// other workers: a few scheduler time slices, so a batch that a second
/// thread could shorten by only a few milliseconds never pays for one.
const SPAWN_AFTER: Duration = Duration::from_millis(10);

/// What one task left behind: its value, or the payload of its panic.
pub type TaskResult<T> = std::thread::Result<T>;

/// The number of workers a sweep of `tasks` tasks should use: the
/// `DDA_WORKERS` override when set (read once; useful both to throttle a
/// shared host and to force serial execution for timing comparisons),
/// otherwise one per available CPU — never more than the task count,
/// always at least one.
pub fn default_workers(tasks: usize) -> usize {
    use std::sync::OnceLock;
    static OVERRIDE: OnceLock<Option<usize>> = OnceLock::new();
    let over = *OVERRIDE.get_or_init(|| parse_workers_override(std::env::var("DDA_WORKERS").ok()));
    let cpus = over.unwrap_or_else(|| {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    });
    cpus.min(tasks).max(1)
}

/// Parses the `DDA_WORKERS` value: a positive integer is an override,
/// anything else (absent, garbage, zero) falls back to the CPU count.
fn parse_workers_override(var: Option<String>) -> Option<usize> {
    var.and_then(|v| v.trim().parse::<usize>().ok())
        .filter(|&n| n > 0)
}

/// The host parallelism the pool would use for an unbounded task count —
/// `default_workers` before the task-count clamp. Reported by sweep
/// binaries so a `parallel_speedup` near 1.0 on a 1-core container reads
/// as the host limitation it is, not a pool regression.
pub fn host_parallelism() -> usize {
    default_workers(usize::MAX)
}

/// Runs every task on up to `workers` threads, the calling thread
/// included, and returns their results in submission order.
///
/// Tasks are independent `FnOnce` closures; they must not wait on one
/// another, since a batch shorter than `SPAWN_AFTER` runs on the calling
/// thread alone. A panicking task yields `Err(payload)` at its own index;
/// every other task still runs.
pub fn run_tasks<T, F>(tasks: Vec<F>, workers: usize) -> Vec<TaskResult<T>>
where
    T: Send,
    F: FnOnce() -> T + Send,
{
    let n = tasks.len();
    if n == 0 {
        return Vec::new();
    }
    let workers = workers.clamp(1, n);

    // Task cells: taken exactly once, by whichever worker claims the
    // index.
    let cells: Vec<Mutex<Option<F>>> = tasks.into_iter().map(|t| Mutex::new(Some(t))).collect();
    // Result cells, indexed like the tasks — submission order falls out
    // for free.
    let results: Vec<Mutex<Option<TaskResult<T>>>> = (0..n).map(|_| Mutex::new(None)).collect();
    // The next unclaimed task index.
    let next = AtomicUsize::new(0);

    // Claims and runs the next task; `false` once every task is claimed.
    let run_next = || {
        let idx = next.fetch_add(1, Ordering::Relaxed);
        if idx >= n {
            return false;
        }
        let task = match cells[idx].lock() {
            Ok(mut c) => c.take(),
            Err(_) => None, // poisoned by a panic mid-take: impossible, cell ops don't panic
        };
        if let Some(task) = task {
            let out = catch_unwind(AssertUnwindSafe(task));
            if let Ok(mut r) = results[idx].lock() {
                *r = Some(out);
            }
        }
        true
    };

    std::thread::scope(|s| {
        let start = Instant::now();
        let mut helpers = workers - 1;
        loop {
            if helpers > 0 && start.elapsed() >= SPAWN_AFTER {
                for _ in 0..helpers {
                    s.spawn(|| while run_next() {});
                }
                helpers = 0;
            }
            if !run_next() {
                break;
            }
        }
    });

    results
        .into_iter()
        .map(|r| match r.into_inner() {
            Ok(Some(out)) => out,
            // A cell can only be empty if its task was never run, which
            // the claim counter rules out; a poisoned mutex means the
            // *pool* panicked, not the task. Surface both as a panic
            // payload rather than unwinding the caller.
            _ => Err(Box::new("task result missing".to_string()) as Box<dyn std::any::Any + Send>),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn results_come_back_in_submission_order() {
        let tasks: Vec<_> = (0..100u64).map(|i| move || i * 3).collect();
        let out = run_tasks(tasks, 4);
        for (i, r) in out.iter().enumerate() {
            assert_eq!(*r.as_ref().unwrap(), i as u64 * 3);
        }
    }

    #[test]
    fn every_task_runs_exactly_once() {
        static COUNTER: AtomicU64 = AtomicU64::new(0);
        let tasks: Vec<_> = (0..257)
            .map(|_| || COUNTER.fetch_add(1, Ordering::SeqCst))
            .collect();
        let out = run_tasks(tasks, 8);
        assert_eq!(out.len(), 257);
        assert_eq!(COUNTER.load(Ordering::SeqCst), 257);
        // All increments distinct: each task observed a unique value.
        let mut seen: Vec<u64> = out.into_iter().map(|r| r.unwrap()).collect();
        seen.sort_unstable();
        seen.dedup();
        assert_eq!(seen.len(), 257);
    }

    #[test]
    fn a_panicking_task_is_isolated() {
        let tasks: Vec<Box<dyn FnOnce() -> u64 + Send>> = (0..16)
            .map(|i| {
                let f: Box<dyn FnOnce() -> u64 + Send> = if i == 7 {
                    Box::new(|| panic!("task 7 poisoned"))
                } else {
                    Box::new(move || i)
                };
                f
            })
            .collect();
        let out = run_tasks(tasks, 3);
        for (i, r) in out.iter().enumerate() {
            if i == 7 {
                let msg = r
                    .as_ref()
                    .err()
                    .and_then(|e| e.downcast_ref::<&str>().copied());
                assert_eq!(msg, Some("task 7 poisoned"));
            } else {
                assert_eq!(*r.as_ref().unwrap(), i as u64);
            }
        }
    }

    #[test]
    fn more_workers_than_tasks_is_fine() {
        let tasks: Vec<_> = (0..3u64).map(|i| move || i).collect();
        let out = run_tasks(tasks, 64);
        assert_eq!(out.len(), 3);
    }

    #[test]
    fn empty_task_list_returns_empty() {
        let out = run_tasks(Vec::<Box<dyn FnOnce() -> u8 + Send>>::new(), 4);
        assert!(out.is_empty());
    }

    #[test]
    fn single_worker_degrades_to_serial() {
        let tasks: Vec<_> = (0..20u64).map(|i| move || i + 1).collect();
        let out = run_tasks(tasks, 1);
        for (i, r) in out.iter().enumerate() {
            assert_eq!(*r.as_ref().unwrap(), i as u64 + 1);
        }
    }

    #[test]
    fn a_short_batch_runs_on_the_calling_thread() {
        let caller = std::thread::current().id();
        let tasks: Vec<_> = (0..10).map(|_| || std::thread::current().id()).collect();
        for r in run_tasks(tasks, 4) {
            assert_eq!(r.unwrap(), caller);
        }
    }

    #[test]
    fn a_long_batch_spreads_over_helpers() {
        let caller = std::thread::current().id();
        let tasks: Vec<_> = (0..40)
            .map(|_| {
                || {
                    std::thread::sleep(SPAWN_AFTER / 4);
                    std::thread::current().id()
                }
            })
            .collect();
        let ids: Vec<_> = run_tasks(tasks, 2)
            .into_iter()
            .map(|r| r.unwrap())
            .collect();
        // The caller starts alone, and a helper takes some of the rest.
        assert_eq!(ids[0], caller);
        assert!(ids.iter().any(|&id| id != caller));
    }

    #[test]
    fn default_workers_is_bounded_by_tasks() {
        assert_eq!(default_workers(0), 1);
        assert_eq!(default_workers(1), 1);
        assert!(default_workers(1_000_000) >= 1);
        // The unclamped host view is what the clamp starts from.
        assert!(host_parallelism() >= 1);
        assert_eq!(
            default_workers(1_000_000),
            host_parallelism().min(1_000_000)
        );
    }

    #[test]
    fn workers_override_parses_positive_integers_only() {
        // The env read is cached in a OnceLock (so one process observes
        // one value); the parse itself is tested through its seam.
        assert_eq!(parse_workers_override(None), None);
        assert_eq!(parse_workers_override(Some("".into())), None);
        assert_eq!(parse_workers_override(Some("0".into())), None);
        assert_eq!(parse_workers_override(Some("banana".into())), None);
        assert_eq!(parse_workers_override(Some("3".into())), Some(3));
        assert_eq!(parse_workers_override(Some(" 16 ".into())), Some(16));
    }
}
