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
//! Two entry points with different failure contracts:
//!
//! - [`run_indexed`] — every job must succeed. Panics are isolated per
//!   job so the whole grid still completes, then the first panic (in
//!   submission order, so deterministically the same one regardless of
//!   scheduling) is re-raised.
//! - [`run_guarded`] — sweeps that must survive bad jobs. Each job runs
//!   under `catch_unwind` with a deterministic retry-with-backoff
//!   schedule and an optional wall-clock timeout; failures come back as
//!   typed [`JobFailure`] rows next to the surviving results instead of
//!   aborting the harness, so one bad seed never kills a 5000-run sweep.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::mpsc;
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// Renders a panic payload as a one-line reason.
fn panic_reason(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "panic with non-string payload".to_string()
    }
}

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

/// Failure policy for [`run_guarded`].
#[derive(Debug, Clone, Copy)]
pub struct GuardPolicy {
    /// Extra attempts after a failed one (0 = single attempt). Retries
    /// are for environmental flakes (resource exhaustion, a timeout on a
    /// loaded machine); a deterministic panic will deterministically
    /// repeat and exhaust them, which is the desired forensic signal.
    pub retries: u32,
    /// Backoff before retry `k` (1-based): `k * backoff_ms` milliseconds.
    /// The schedule is deterministic; it delays wall clock only and
    /// cannot affect simulated results.
    pub backoff_ms: u64,
    /// Wall-clock budget per attempt in milliseconds (0 = unlimited).
    /// A timed-out attempt counts as a failure; its worker thread is
    /// abandoned (detached) rather than killed, so results arriving
    /// after the deadline are discarded.
    pub timeout_ms: u64,
}

impl Default for GuardPolicy {
    fn default() -> Self {
        GuardPolicy {
            retries: 1,
            backoff_ms: 10,
            timeout_ms: 0,
        }
    }
}

/// One job that exhausted its [`GuardPolicy`], reported instead of
/// aborting the sweep.
#[derive(Debug, Clone)]
pub struct JobFailure {
    /// Submission index of the failed job.
    pub index: usize,
    /// Attempts made (1 + retries actually used).
    pub attempts: u32,
    /// Last failure reason: the panic message, or `"timeout after Nms"`.
    pub reason: String,
}

fn attempt_guarded<J, T, F>(job: &J, policy: &GuardPolicy, f: &Arc<F>) -> Result<T, String>
where
    J: Send + Clone + 'static,
    T: Send + 'static,
    F: Fn(J) -> T + Send + Sync + 'static,
{
    if policy.timeout_ms == 0 {
        return catch_unwind(AssertUnwindSafe(|| f(job.clone())))
            .map_err(|p| panic_reason(p.as_ref()));
    }
    // Timed attempt: run on a detached thread and wait on a channel, so
    // a wedged job cannot wedge the sweep. The thread keeps running
    // after a timeout (there is no safe way to kill it); its eventual
    // send fails harmlessly because the receiver is gone.
    let (tx, rx) = mpsc::channel();
    let f = Arc::clone(f);
    let job = job.clone();
    std::thread::spawn(move || {
        let result =
            catch_unwind(AssertUnwindSafe(|| f(job))).map_err(|p| panic_reason(p.as_ref()));
        let _ = tx.send(result);
    });
    match rx.recv_timeout(Duration::from_millis(policy.timeout_ms)) {
        Ok(result) => result,
        Err(_) => Err(format!("timeout after {}ms", policy.timeout_ms)),
    }
}

/// Runs `f` over `jobs` like [`run_indexed`], but isolates failures:
/// each job gets `1 + policy.retries` attempts (with deterministic
/// backoff and an optional per-attempt timeout), and a job that exhausts
/// them yields `None` in the results plus a [`JobFailure`] row — the
/// sweep itself always completes and never panics because of a job.
///
/// Results are in submission order; failures are in submission order.
pub fn run_guarded<J, T, F>(
    jobs: Vec<J>,
    threads: usize,
    policy: GuardPolicy,
    f: F,
) -> (Vec<Option<T>>, Vec<JobFailure>)
where
    J: Send + Clone + 'static,
    T: Send + 'static,
    F: Fn(J) -> T + Send + Sync + 'static,
{
    let f = Arc::new(f);
    let run_one = |job: &J| -> Result<T, JobFailureDraft> {
        let mut last_reason = String::new();
        let max_attempts = 1 + policy.retries;
        for attempt in 1..=max_attempts {
            if attempt > 1 && policy.backoff_ms > 0 {
                std::thread::sleep(Duration::from_millis(
                    u64::from(attempt - 1) * policy.backoff_ms,
                ));
            }
            match attempt_guarded(job, &policy, &f) {
                Ok(v) => return Ok(v),
                Err(reason) => last_reason = reason,
            }
        }
        Err(JobFailureDraft {
            attempts: max_attempts,
            reason: last_reason,
        })
    };
    let outcomes = run_indexed(jobs, threads, |job| run_one(&job));
    let mut results = Vec::with_capacity(outcomes.len());
    let mut failures = Vec::new();
    for (index, outcome) in outcomes.into_iter().enumerate() {
        match outcome {
            Ok(v) => results.push(Some(v)),
            Err(draft) => {
                results.push(None);
                failures.push(JobFailure {
                    index,
                    attempts: draft.attempts,
                    reason: draft.reason,
                });
            }
        }
    }
    (results, failures)
}

/// [`JobFailure`] before its submission index is known.
struct JobFailureDraft {
    attempts: u32,
    reason: String,
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
        assert_eq!(panic_reason(payload.as_ref()), "job 1 exploded");
        assert_eq!(ran.load(Ordering::SeqCst), 15);
    }

    #[test]
    fn guarded_isolates_failures_and_keeps_order() {
        let policy = GuardPolicy {
            retries: 0,
            backoff_ms: 0,
            timeout_ms: 0,
        };
        let (results, failures) = run_guarded((0..10u64).collect(), 4, policy, |j| {
            assert!(j % 4 != 2, "seed {j} is cursed");
            j * 100
        });
        assert_eq!(results.len(), 10);
        for (i, r) in results.iter().enumerate() {
            if i % 4 == 2 {
                assert!(r.is_none());
            } else {
                assert_eq!(*r, Some(i as u64 * 100));
            }
        }
        assert_eq!(
            failures.iter().map(|f| f.index).collect::<Vec<_>>(),
            vec![2, 6]
        );
        assert!(failures[0].reason.contains("cursed"));
        assert_eq!(failures[0].attempts, 1);
    }

    #[test]
    fn guarded_retries_until_success() {
        let counter = Arc::new(AtomicUsize::new(0));
        let c2 = Arc::clone(&counter);
        let policy = GuardPolicy {
            retries: 2,
            backoff_ms: 1,
            timeout_ms: 0,
        };
        // The single job fails twice, then succeeds on the third attempt.
        let (results, failures) = run_guarded(vec![7u64], 1, policy, move |j| {
            let n = c2.fetch_add(1, Ordering::SeqCst);
            assert!(n >= 2, "flaky attempt {n}");
            j
        });
        assert_eq!(results, vec![Some(7)]);
        assert!(failures.is_empty());
        assert_eq!(counter.load(Ordering::SeqCst), 3);
    }

    #[test]
    fn guarded_times_out_wedged_jobs() {
        let policy = GuardPolicy {
            retries: 0,
            backoff_ms: 0,
            timeout_ms: 20,
        };
        let (results, failures) = run_guarded(vec![0u64, 1], 2, policy, |j| {
            if j == 0 {
                // Wedge far past the timeout; the sweep must move on.
                std::thread::sleep(std::time::Duration::from_millis(2_000));
            }
            j
        });
        assert_eq!(results[0], None);
        assert_eq!(results[1], Some(1));
        assert_eq!(failures.len(), 1);
        assert!(failures[0].reason.contains("timeout"), "{failures:?}");
    }
}
