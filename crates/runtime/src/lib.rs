//! # dvs-runtime — ordered fan-out over scoped threads
//!
//! [`Pool::map`] runs one task per item on up to `jobs` scoped threads, the
//! caller included, each claiming the next task index from one shared
//! counter, and returns the results **in task order**: tasks that are pure
//! functions of their inputs give the same output for any `jobs`. The
//! workspace's tasks are coarse and independent (experiments, grid cells,
//! check seeds, benchmarks).
//!
//! ```
//! use dvs_runtime::Pool;
//! let pool = Pool::new(4);
//! let squares = pool.map((0..100u64).collect(), |_idx, x| x * x);
//! assert_eq!(squares[7], 49);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::panic;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Environment variable that sets the CLIs' default worker count when
/// `--jobs` is absent; [`env_jobs`] reads it.
pub const JOBS_ENV: &str = "DVS_JOBS";

/// The worker count [`JOBS_ENV`] asks for: `Some(n)` when it holds a
/// positive integer, else `None`, so each caller keeps its own default.
#[must_use]
pub fn env_jobs() -> Option<usize> {
    std::env::var(JOBS_ENV)
        .ok()?
        .trim()
        .parse()
        .ok()
        .filter(|&n| n > 0)
}

/// A fixed-width fan-out. Threads are spawned per [`Pool::map`] call inside
/// a [`std::thread::scope`], so tasks may borrow freely and no thread
/// outlives the call.
#[derive(Debug, Clone)]
pub struct Pool {
    jobs: usize,
}

impl Pool {
    /// A pool that runs `jobs` tasks concurrently. `0` is treated as `1`.
    #[must_use]
    pub fn new(jobs: usize) -> Self {
        Pool { jobs: jobs.max(1) }
    }

    /// The number of concurrent workers this pool uses.
    #[must_use]
    pub fn jobs(&self) -> usize {
        self.jobs
    }

    /// Applies `f` to every item, in parallel, returning results **in task
    /// order** (`out[i]` is `f(i, items[i])`).
    ///
    /// The caller and `min(jobs, items.len()) - 1` scoped helpers each take
    /// the next unclaimed index until none is left, so with one job or one
    /// item no thread starts. Helpers run their tasks in the caller's
    /// [`dvs_obs`] domain, so a task's metrics count where they would
    /// sequentially.
    ///
    /// # Panics
    ///
    /// Re-raises on the caller, with its own payload, a panic from any
    /// task, after every helper has stopped.
    pub fn map<I, T, F>(&self, items: Vec<I>, f: F) -> Vec<T>
    where
        I: Send,
        T: Send,
        F: Fn(usize, I) -> T + Sync,
    {
        let threads = self.jobs.min(items.len());
        // Whichever thread claims an index moves its item out of the slot.
        let slots: Vec<_> = items.into_iter().map(|it| Mutex::new(Some(it))).collect();
        // Hands out task indices. It publishes no data (items move through
        // their slots' locks and results return through the joins), so
        // relaxed ordering suffices.
        let next = AtomicUsize::new(0);
        let take_tasks = || {
            let mut done = Vec::new();
            loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                let Some(slot) = slots.get(i) else {
                    return done;
                };
                let item = slot
                    .lock()
                    .expect("a slot's lock is never held across a task")
                    .take()
                    .expect("each index is claimed once");
                done.push((i, f(i, item)));
            }
        };
        let domain = dvs_obs::current_domain();
        let helper = || {
            let _domain = dvs_obs::enter_domain(domain);
            take_tasks()
        };
        let mut done = std::thread::scope(|s| {
            let helpers: Vec<_> = (1..threads).map(|_| s.spawn(helper)).collect();
            // A panic here unwinds through the scope, which joins the
            // helpers and re-raises this payload.
            let mut done = take_tasks();
            for h in helpers {
                done.extend(h.join().unwrap_or_else(|p| panic::resume_unwind(p)));
            }
            done
        });
        done.sort_unstable_by_key(|&(i, _)| i);
        done.into_iter().map(|(_, t)| t).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
    use std::time::Duration;

    #[test]
    fn map_preserves_task_order() {
        let pool = Pool::new(4);
        let out = pool.map((0..1000u64).collect(), |i, x| {
            assert_eq!(i as u64, x);
            x * 3 + 1
        });
        assert_eq!(out.len(), 1000);
        for (i, v) in out.iter().enumerate() {
            assert_eq!(*v, i as u64 * 3 + 1);
        }
    }

    #[test]
    fn jobs_one_equals_jobs_many() {
        let work = |_: usize, x: u64| {
            // A tiny uneven workload, so threads claim tasks unevenly.
            (0..(x % 37)).fold(x, |a, b| a.wrapping_mul(31).wrapping_add(b))
        };
        let seq = Pool::new(1).map((0..512u64).collect(), work);
        let par = Pool::new(8).map((0..512u64).collect(), work);
        assert_eq!(seq, par);
    }

    #[test]
    fn all_tasks_run_exactly_once() {
        let hits = AtomicUsize::new(0);
        let pool = Pool::new(6);
        let out = pool.map((0..257usize).collect(), |_, x| {
            hits.fetch_add(1, Ordering::Relaxed);
            x
        });
        assert_eq!(hits.load(Ordering::Relaxed), 257);
        assert_eq!(out, (0..257).collect::<Vec<_>>());
    }

    #[test]
    fn unbalanced_work_finishes_in_order() {
        // Front-loaded cost: the first 16 tasks are far heavier. We only
        // assert correctness (the pool can't deadlock or drop tasks under
        // imbalance).
        let pool = Pool::new(4);
        let out = pool.map((0..64u64).collect(), |i, x| {
            if i < 16 {
                std::thread::sleep(Duration::from_millis(2));
            }
            x + 1
        });
        assert_eq!(out, (1..=64).collect::<Vec<_>>());
    }

    #[test]
    fn map_runs_in_parallel() {
        // 8 tasks × 30 ms each: sequential would need ≥ 240 ms. Allow a
        // generous margin for a loaded CI host — just require clear overlap.
        let pool = Pool::new(8);
        let t0 = std::time::Instant::now();
        pool.map((0..8u32).collect(), |_, _| {
            std::thread::sleep(Duration::from_millis(30));
        });
        assert!(
            t0.elapsed() < Duration::from_millis(200),
            "8 sleeps did not overlap: {:?}",
            t0.elapsed()
        );
    }

    #[test]
    fn empty_and_singleton_inputs() {
        let pool = Pool::new(4);
        let empty: Vec<u8> = pool.map(Vec::new(), |_, x| x);
        assert!(empty.is_empty());
        assert_eq!(pool.map(vec![9u8], |_, x| x), vec![9]);
    }

    #[test]
    fn pool_zero_means_one() {
        assert_eq!(Pool::new(0).jobs(), 1);
    }

    /// Spins until `flag` is set, for at most 10 s.
    fn wait_for(flag: &AtomicBool) {
        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        while !flag.load(Ordering::SeqCst) && std::time::Instant::now() < deadline {
            std::thread::yield_now();
        }
    }

    #[test]
    fn a_task_panic_reaches_the_caller_with_its_payload() {
        for jobs in [1, 4] {
            let caller = std::thread::current().id();
            let (first, took_37) = (AtomicBool::new(true), AtomicBool::new(false));
            let got = panic::catch_unwind(|| {
                Pool::new(jobs).map((0..64u32).collect(), |i, _| {
                    if i == 37 {
                        took_37.store(true, Ordering::SeqCst);
                        panic!("task 37 failed");
                    }
                    // With helpers, the caller holds its first task until
                    // one of them has taken task 37.
                    if jobs > 1
                        && std::thread::current().id() == caller
                        && first.swap(false, Ordering::SeqCst)
                    {
                        wait_for(&took_37);
                    }
                })
            })
            .expect_err("task 37 panics");
            let msg = got
                .downcast_ref::<String>()
                .map(String::as_str)
                .or_else(|| got.downcast_ref::<&str>().copied());
            assert_eq!(msg, Some("task 37 failed"), "jobs {jobs}");
        }
    }

    #[test]
    fn every_task_records_in_the_callers_domain() {
        let domain = dvs_obs::register_domain("runtime.test");
        let _domain = dvs_obs::enter_domain(domain);
        let caller = std::thread::current().id();
        for jobs in [1, 4] {
            let (first, helped) = (AtomicBool::new(true), AtomicBool::new(false));
            let seen = Pool::new(jobs).map((0..64u32).collect(), |_, _| {
                if std::thread::current().id() != caller {
                    helped.store(true, Ordering::SeqCst);
                } else if jobs > 1 && first.swap(false, Ordering::SeqCst) {
                    // Hold the caller until a helper has run a task.
                    wait_for(&helped);
                }
                dvs_obs::current_domain()
            });
            assert_eq!(seen, vec![domain; 64], "jobs {jobs}");
            assert_eq!(helped.load(Ordering::SeqCst), jobs > 1, "jobs {jobs}");
        }
    }
}
