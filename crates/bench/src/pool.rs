//! A deterministic fork-join job pool for experiment grids.
//!
//! Every figure binary runs dozens of independent `(protocol ×
//! benchmark)` simulations; this pool spreads them over OS threads with
//! `std::thread::scope` — no external dependencies, so the workspace
//! still builds offline. Determinism matters more than scheduling
//! cleverness here: each job's result is written into a slot addressed
//! by the job's index, so the returned vector is always in submission
//! order and downstream output (tables, CSV rows) is byte-identical to
//! a sequential run regardless of thread count or completion order.
//!
//! [`run_indexed`] isolates panics per job so the whole grid still
//! completes, then re-raises the first panic in submission order (so
//! deterministically the same one regardless of scheduling). A sweep
//! that must survive bad jobs returns a `Result` from each job and
//! catches per-job panics itself (see the `chaos` binary); retry,
//! backoff and wedge handling belong to `rcc-serve`'s supervisor.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Mutex;

/// Runs `f` over `jobs`, using up to `threads` worker threads, and
/// returns the results in submission order.
///
/// With `threads <= 1` (or a single job) the jobs run sequentially on
/// the calling thread — the reference behaviour the parallel path must
/// reproduce byte-for-byte.
///
/// # Panics
///
/// Re-raises the first panicking job *by submission order* — but only
/// after every job has run, so a crash in job 3 never leaves jobs 4..n
/// unexecuted and the propagated panic does not depend on thread timing.
pub fn run_indexed<J, T, F>(jobs: Vec<J>, threads: usize, f: F) -> Vec<T>
where
    J: Send,
    T: Send,
    F: Fn(J) -> T + Sync,
{
    let n = jobs.len();
    let workers = threads.min(n).max(1);
    type Attempt<T> = Result<T, Box<dyn std::any::Any + Send>>;
    let slots: Vec<Mutex<Option<Attempt<T>>>> = (0..n).map(|_| Mutex::new(None)).collect();

    if workers == 1 {
        for (idx, job) in jobs.into_iter().enumerate() {
            let result = catch_unwind(AssertUnwindSafe(|| f(job)));
            *slots[idx].lock().expect("result slot poisoned") = Some(result);
        }
    } else {
        // Job queue: index-stamped so results land in submission order.
        let work: Vec<(usize, J)> = jobs.into_iter().enumerate().collect();
        let work = Mutex::new(work.into_iter());
        std::thread::scope(|scope| {
            for _ in 0..workers {
                scope.spawn(|| loop {
                    // Pull the next job; the iterator hands them out in
                    // submission order, one at a time.
                    let job = work.lock().expect("job queue poisoned").next();
                    let Some((idx, job)) = job else { break };
                    let result = catch_unwind(AssertUnwindSafe(|| f(job)));
                    *slots[idx].lock().expect("result slot poisoned") = Some(result);
                });
            }
        });
    }

    let mut out = Vec::with_capacity(n);
    let mut first_panic = None;
    for slot in slots {
        match slot
            .into_inner()
            .expect("result slot poisoned")
            .expect("every job stores its result")
        {
            Ok(v) => out.push(v),
            Err(payload) => {
                if first_panic.is_none() {
                    first_panic = Some(payload);
                }
            }
        }
    }
    if let Some(payload) = first_panic {
        std::panic::resume_unwind(payload);
    }
    out
}

/// Resolves a `--jobs N` request: `0` means "one per available core".
pub fn resolve_jobs(requested: usize) -> usize {
    if requested == 0 {
        std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
    } else {
        requested
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;

    #[test]
    fn results_in_submission_order() {
        // Jobs finish out of order (larger index sleeps less), yet the
        // results must come back in submission order.
        let jobs: Vec<u64> = (0..32).collect();
        let out = run_indexed(jobs.clone(), 4, |j| {
            std::thread::sleep(std::time::Duration::from_micros(200 - 6 * j.min(30)));
            j * 10
        });
        assert_eq!(out, jobs.iter().map(|j| j * 10).collect::<Vec<_>>());
    }

    #[test]
    fn sequential_and_parallel_agree() {
        let jobs: Vec<u64> = (0..40).collect();
        let seq = run_indexed(jobs.clone(), 1, |j| j * j + 3);
        let par = run_indexed(jobs, 4, |j| j * j + 3);
        assert_eq!(seq, par);
    }

    #[test]
    fn handles_empty_and_single() {
        assert_eq!(run_indexed(Vec::<u64>::new(), 8, |j| j), Vec::<u64>::new());
        assert_eq!(run_indexed(vec![5u64], 8, |j| j + 1), vec![6]);
    }

    #[test]
    fn more_threads_than_jobs() {
        let out = run_indexed(vec![1u64, 2], 16, |j| j);
        assert_eq!(out, vec![1, 2]);
    }

    #[test]
    fn resolve_jobs_zero_means_cores() {
        assert!(resolve_jobs(0) >= 1);
        assert_eq!(resolve_jobs(3), 3);
    }

    #[test]
    fn panicking_job_does_not_starve_the_rest() {
        // Job 1 panics, yet every other job must still run before the
        // panic is re-raised — and the re-raised panic is job 1's,
        // deterministically, not whichever crashed first on the clock.
        let ran = Arc::new(AtomicUsize::new(0));
        let ran2 = Arc::clone(&ran);
        let result = catch_unwind(AssertUnwindSafe(move || {
            run_indexed((0..16u64).collect(), 4, move |j| {
                if j == 1 {
                    panic!("job {j} exploded");
                }
                ran2.fetch_add(1, Ordering::SeqCst);
                j
            })
        }));
        let payload = result.expect_err("panic propagates");
        assert_eq!(
            rcc_common::unwind::panic_reason(payload.as_ref()),
            "job 1 exploded"
        );
        assert_eq!(ran.load(Ordering::SeqCst), 15);
    }
}
