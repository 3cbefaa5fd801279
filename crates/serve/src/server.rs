//! The service itself: worker pool, in-process API, TCP front end.
//!
//! A [`Server`] owns a bounded pool of worker threads draining the
//! priority-aged [`crate::queue::Sched`]. A worker never runs a job to
//! completion blindly: it executes **one quantum** on the job's
//! [`SliceRun`], and a job that yields is re-admitted behind its class
//! peers with the live run parked on its record, next to the in-memory
//! [`Checkpoint`] that describes it. A preemption is therefore a yield:
//! the next slice goes on with the parked machine after checking that
//! its `(cycle, state_digest)` equals the checkpoint's, which proves
//! every journaled checkpoint describes the machine that actually ran.
//! Replay from cycle 0 ([`SliceRun::resume`]) is the recovery path
//! only: a crash retry, a wedged worker, or a restart that rebuilt the
//! job from the journal. Either way preemption is invisible in the
//! results, and a corrupted snapshot surfaces as a typed `checkpoint`
//! failure on that job, never a wedged worker. Trace jobs
//! (`record_trace`) are preempted like every other job: the recorder
//! rides the parked machine, a replay re-records from cycle 0, and the
//! trace is written when the run finishes.
//!
//! A parked run costs one live `System` per preempted job, about 0.5 MB
//! on the 8-core small machine at standard scale (0.4–0.8 MB measured
//! across protocols and benchmarks), so parked memory is bounded by the
//! jobs admitted at once ([`ServerConfig::max_queue`] caps the queue).
//! The workload's warp programs are shared by the job's checkpoints and
//! the simulated cores, not copied.
//!
//! ## Durability
//!
//! With [`ServerConfig::journal`] set, every lifecycle transition is
//! appended to the `RCCJ` write-ahead journal **before** it takes
//! effect in memory (submitted, started, parked — by reference, as the
//! boundary's cycle and state digest — finished, failed, quarantined,
//! drained). [`Server::start`] replays the journal, rebuilds the job
//! table and priority queue, rebuilds each parked job's checkpoint from
//! its submitted spec, resumes it by digest-verified replay, and
//! re-persists any terminal artifact the crash swallowed — so a
//! `kill -9` loses at most the in-flight quantum and recovered results
//! are bit-identical to an uninterrupted run. Journals that embed full
//! `RCCK` checkpoints (`Preempted`, written by earlier builds) still
//! replay.
//!
//! ## Supervision
//!
//! Every failure path is typed: simulation errors map through
//! [`JobError::from_sim`] (deadlocks carry their hang dump), a
//! panicking slice is caught, and a wall-clock watchdog
//! ([`ServerConfig::wedge_timeout_ms`]) abandons wedged workers and
//! spawns replacements. Crash-style failures (`panic`, `hang`) are
//! retried with deterministic exponential backoff up to
//! [`ServerConfig::max_attempts`], then quarantined with the last panic
//! payload or hang dump attached; deterministic simulation failures
//! fail immediately — retrying a deadlock reproduces it.
//!
//! ## Degradation
//!
//! Admission is bounded ([`ServerConfig::max_queue`]): past the cap,
//! submissions get a typed [`Submission::Overloaded`] with a
//! retry-after hint instead of unbounded queue growth, and best-effort
//! priority-3 jobs are shed earlier ([`ServerConfig::shed_queue`]).
//! The TCP front end caps concurrent connections
//! ([`ServerConfig::max_conns`]) by parking the acceptor — backpressure
//! lands in the kernel backlog, not the heap. Shutdown drains
//! gracefully: in-flight slices park on journaled checkpoints, the
//! manifest is written, and a `Drained` marker closes the journal.

use crate::journal::{Journal, Record};
use crate::queue::Sched;
use crate::spec::JobSpec;
use crate::store::{JobError, JobRecord, JobState, ResultSummary, Store};
use crate::wire::{self, Request, WireError};
use rcc_chaos::service::{ServiceFaultSpec, ServiceInjector, WorkerFault};
use rcc_common::GpuConfig;
use rcc_core::ProtocolKind;
use rcc_sim::{Checkpoint, SimError, SimOptions, SliceOutcome, SliceRun};
use rcc_workloads::Workload;
use std::collections::BTreeMap;
use std::io::{BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// Default crash-retry budget before quarantine.
pub const DEFAULT_MAX_ATTEMPTS: u32 = 3;
/// Default base retry backoff (doubles per consumed attempt).
pub const DEFAULT_BACKOFF_MS: u64 = 100;
/// Default concurrent-connection cap for the TCP front end.
pub const DEFAULT_MAX_CONNS: usize = 64;

/// Service configuration.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Worker threads (clamped to at least 1).
    pub workers: usize,
    /// Preemption quantum in cycles; 0 runs every job to completion.
    pub quantum: u64,
    /// Scheduler aging rate (dispatches per class of earned urgency).
    pub aging: u64,
    /// Results directory; `None` keeps everything in memory.
    pub results_dir: Option<PathBuf>,
    /// Write-ahead journal path; `None` runs without durability.
    pub journal: Option<PathBuf>,
    /// Fsync each journal record (leave on outside of tests).
    pub fsync: bool,
    /// Admission cap on queued (not-yet-running) jobs; 0 = unbounded.
    pub max_queue: usize,
    /// Queue depth at which priority-3 jobs are shed; 0 derives
    /// 3/4 × `max_queue` (and stays off when that is unbounded).
    pub shed_queue: usize,
    /// Crash retries (panic/wedge) before quarantine; min 1.
    pub max_attempts: u32,
    /// Base backoff between crash retries; doubles per attempt.
    pub backoff_ms: u64,
    /// Wall-clock watchdog: a worker stuck on one slice this long is
    /// abandoned and replaced. 0 disables the watchdog.
    pub wedge_timeout_ms: u64,
    /// Concurrent TCP connection cap; 0 = unbounded.
    pub max_conns: usize,
    /// Service-level fault injection (tests/soaks only).
    pub faults: Option<ServiceFaultSpec>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            workers: 2,
            quantum: 0,
            aging: 4,
            results_dir: None,
            journal: None,
            fsync: true,
            max_queue: 0,
            shed_queue: 0,
            max_attempts: DEFAULT_MAX_ATTEMPTS,
            backoff_ms: DEFAULT_BACKOFF_MS,
            wedge_timeout_ms: 0,
            max_conns: DEFAULT_MAX_CONNS,
            faults: None,
        }
    }
}

/// Outcome of a submission.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Submission {
    /// The job was admitted under this id.
    Accepted {
        /// Dense job id; the handle for status/watch.
        id: u64,
        /// True when an idempotent resubmit matched an existing job by
        /// `dedup_key` (the id is the original job's).
        duplicate: bool,
    },
    /// The job was rejected with a typed reason; nothing was queued.
    Rejected {
        /// Rejection category (see [`crate::spec::SpecError`]).
        kind: String,
        /// Human-readable reason.
        detail: String,
    },
    /// The queue is full (or shedding best-effort work); nothing was
    /// queued. Resubmit after the hint.
    Overloaded {
        /// Jobs queued at rejection time.
        queued: usize,
        /// Deterministic resubmit hint.
        retry_after_ms: u64,
        /// True when this was priority-3 load shedding (the queue had
        /// room, but not for best-effort work).
        shed: bool,
    },
}

/// Per-state job counts.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Counts {
    /// Waiting in the scheduler (including retry backoff).
    pub queued: usize,
    /// On a worker right now.
    pub running: usize,
    /// Finished with a summary.
    pub done: usize,
    /// Failed with a typed error.
    pub failed: usize,
    /// Quarantined after exhausting crash retries.
    pub quarantined: usize,
}

impl Counts {
    /// Every job the service has ever accepted.
    pub fn total(&self) -> usize {
        self.queued + self.running + self.done + self.failed + self.quarantined
    }
}

/// Durability / degradation counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ServiceStats {
    /// Journal records across its lifetime (replayed + appended).
    pub journal_records: u64,
    /// Journal appends that failed (durability degraded, not lost
    /// correctness: the in-memory state stayed authoritative).
    pub journal_errors: u64,
    /// Artifact writes that failed (the journal still has the result).
    pub store_errors: u64,
    /// True once an injected kill point fired.
    pub killed: bool,
}

/// One per-slice progress event, streamed by `watch`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProgressEvent {
    /// Job id.
    pub job: u64,
    /// Slice ordinal (1 = first quantum).
    pub slice: u64,
    /// Simulated cycle reached.
    pub cycle: u64,
    /// Instructions issued so far.
    pub issued: u64,
    /// Memory operations performed so far.
    pub mem_ops: u64,
    /// Rows the rcc-obs time-series sampler has collected so far
    /// (0 when the job did not request sampling).
    pub samples: u64,
}

impl ProgressEvent {
    /// Wire form.
    pub fn to_json(&self) -> String {
        format!(
            "{{\"event\": \"progress\", \"job\": {}, \"slice\": {}, \"cycle\": {}, \
             \"issued\": {}, \"mem_ops\": {}, \"samples\": {}}}",
            self.job, self.slice, self.cycle, self.issued, self.mem_ops, self.samples
        )
    }
}

struct Job {
    record: JobRecord,
    spec: JobSpec,
    /// The journaled description of the parked run: where the next
    /// slice goes on from, and what a replay rebuilds when `run` is gone.
    ck: Option<Box<Checkpoint>>,
    /// The live machine parked between quanta. The next slice continues
    /// it after checking it against `ck`; `None` after a crash, a wedge
    /// or a restart, when the next slice replays `ck` instead.
    run: Option<SliceRun>,
    /// Fault injection: corrupt the next snapshot this job parks on.
    corrupt_next: bool,
    events: Vec<ProgressEvent>,
    /// Bumped when the watchdog abandons an attempt: a stale worker's
    /// outcome for an older epoch is dropped, so a job is never
    /// double-resolved by its abandoned thread.
    epoch: u64,
    /// True once the current attempt's `Started` record is journaled.
    attempt_started: bool,
}

struct Busy {
    job: usize,
    epoch: u64,
    since: Instant,
    /// Observed by injected wedges (and shutdown) to unblock.
    abandon: Arc<AtomicBool>,
}

struct WorkerSlot {
    /// Generation: bumped when the watchdog replaces the thread; the
    /// old thread notices and exits without touching shared state.
    gen: u64,
    busy: Option<Busy>,
}

struct State {
    jobs: Vec<Job>,
    sched: Sched,
    /// Crash-retried jobs waiting out their backoff: (due, job index).
    deferred: Vec<(Instant, usize)>,
    /// Idempotency: dedup_key → job id.
    dedup: BTreeMap<String, u64>,
    workers: Vec<WorkerSlot>,
    journal: Option<Journal>,
    journal_errors: u64,
    store_errors: u64,
    /// Jobs not yet terminal.
    active: usize,
    shutdown: bool,
    addr: Option<SocketAddr>,
}

struct Inner {
    state: Mutex<State>,
    /// Signaled when work lands in the queue (workers wait here).
    work: Condvar,
    /// Signaled on any job state change (watchers/waiters wait here).
    change: Condvar,
    store: Store,
    quantum: u64,
    max_attempts: u32,
    backoff_ms: u64,
    max_queue: usize,
    shed_queue: usize,
    max_conns: usize,
    injector: Option<Arc<ServiceInjector>>,
    killed: Arc<AtomicBool>,
    /// Open TCP connections, gated by `max_conns`.
    conns: Mutex<usize>,
    conn_done: Condvar,
    handles: Mutex<Vec<std::thread::JoinHandle<()>>>,
}

/// The batch-simulation service. Cheap to clone; all clones share one
/// state.
#[derive(Clone)]
pub struct Server {
    inner: Arc<Inner>,
}

struct Task {
    id: usize,
    spec: JobSpec,
    ck: Option<Box<Checkpoint>>,
    run: Option<SliceRun>,
    attempt: u32,
    epoch: u64,
    abandon: Arc<AtomicBool>,
}

enum QuantumOutcome {
    Finished(Box<rcc_sim::RunMetrics>),
    Preempted {
        ck: Box<Checkpoint>,
        progress: rcc_sim::SliceProgress,
        run: Box<SliceRun>,
    },
    Failed(JobError),
}

/// Crash-style failures get retried; deterministic simulation failures
/// do not (retrying a deadlock reproduces the deadlock).
fn retryable(err: &JobError) -> bool {
    matches!(err.kind, "panic" | "hang")
}

/// Appends to the journal when one is configured. An append failure
/// degrades durability (counted), never in-memory correctness.
fn journal_append(st: &mut State, rec: &Record) -> Result<(), String> {
    let Some(j) = st.journal.as_mut() else {
        return Ok(());
    };
    match j.append(rec) {
        Ok(_) => Ok(()),
        Err(e) => {
            st.journal_errors += 1;
            Err(e.to_string())
        }
    }
}

/// Persists a terminal job's artifact, counting (not propagating)
/// failures: the journal/in-memory record stays authoritative.
fn persist_record(st: &mut State, inner: &Inner, id: usize) {
    if let Err(e) = inner.store.persist(&st.jobs[id].record) {
        st.store_errors += 1;
        eprintln!("rcc-serve: artifact for job {id} not persisted: {e}");
    }
}

/// Moves due retry-backoff jobs into the scheduler; returns the
/// earliest still-pending deadline (for a worker's timed wait).
fn promote_deferred(st: &mut State) -> Option<Instant> {
    let now = Instant::now();
    let mut earliest: Option<Instant> = None;
    let mut i = 0;
    while i < st.deferred.len() {
        let (due, id) = st.deferred[i];
        if due <= now {
            st.deferred.swap_remove(i);
            let priority = st.jobs[id].record.priority;
            st.sched.push(priority, id);
        } else {
            earliest = Some(earliest.map_or(due, |e| e.min(due)));
            i += 1;
        }
    }
    earliest
}

/// A crashed attempt (panic or wedge): consume a retry, defer behind a
/// deterministic exponential backoff, or quarantine once the budget is
/// spent. The crashed attempt's live run is gone; `ck_back` restores the
/// checkpoint it was resuming from, so a retry rebuilds the machine by
/// replay and runs the exact same slice.
fn handle_crash(
    st: &mut State,
    inner: &Inner,
    id: usize,
    err: JobError,
    ck_back: Option<Box<Checkpoint>>,
) {
    let attempts = {
        let job = &mut st.jobs[id];
        job.record.attempts += 1;
        job.attempt_started = false;
        job.record.attempts
    };
    if attempts >= inner.max_attempts.max(1) {
        {
            let job = &mut st.jobs[id];
            job.record.state = JobState::Quarantined;
            job.record.error = Some(err.clone());
            job.ck = None;
        }
        let _ = journal_append(
            st,
            &Record::Quarantined {
                id: id as u64,
                attempts,
                error: err,
            },
        );
        persist_record(st, inner, id);
        st.active -= 1;
    } else {
        let delay = (inner.backoff_ms << (attempts - 1).min(6)).clamp(1, 5_000);
        let job = &mut st.jobs[id];
        job.ck = ck_back;
        job.record.state = JobState::Queued;
        st.deferred
            .push((Instant::now() + Duration::from_millis(delay), id));
        inner.work.notify_all();
    }
}

/// Sets a job's host-side run options: this server's preemption
/// quantum and, for a trace job, where the recording goes. RCCK carries
/// neither, so a fresh start and a checkpoint replayed from the journal
/// both take them from here.
fn host_options(opts: &mut SimOptions, spec: &JobSpec, id: u64, store: &Store, quantum: u64) {
    opts.quantum = quantum;
    if spec.record_trace {
        opts.record_trace = store.trace_path(id);
    }
}

/// What job `id` runs on: its spec's inputs under this server's host
/// options. A fresh start and a checkpoint rebuilt from a `Parked`
/// record both come from here.
fn job_inputs(
    spec: &JobSpec,
    id: u64,
    store: &Store,
    quantum: u64,
) -> (ProtocolKind, GpuConfig, Workload, SimOptions) {
    let (kind, cfg, wl, mut opts) = spec.inputs();
    host_options(&mut opts, spec, id, store, quantum);
    (kind, cfg, wl, opts)
}

fn run_quantum(inner: &Inner, task: &mut Task) -> QuantumOutcome {
    if let Some(inj) = &inner.injector {
        if matches!(
            inj.worker_fault(task.id as u64, task.attempt),
            WorkerFault::Wedge
        ) {
            // Injected hang: burn wall-clock until the watchdog (or
            // shutdown) abandons this worker, then report as a hang so
            // the stale outcome is dropped by the epoch check.
            while !task.abandon.load(Ordering::SeqCst) {
                std::thread::sleep(Duration::from_millis(2));
            }
            return QuantumOutcome::Failed(JobError::internal(
                "hang",
                format!("injected wedge on job {} released", task.id),
            ));
        }
    }
    let parked = task.run.take();
    let res = catch_unwind(AssertUnwindSafe(|| -> Result<QuantumOutcome, SimError> {
        if let Some(inj) = &inner.injector {
            if matches!(
                inj.worker_fault(task.id as u64, task.attempt),
                WorkerFault::Panic
            ) {
                panic!(
                    "injected worker panic (job {}, attempt {})",
                    task.id, task.attempt
                );
            }
        }
        let mut run = match (&task.ck, parked) {
            // The usual case: go on with the machine that ran the last
            // slice, once it is proven to be the journaled one.
            (Some(ck), Some(run)) => {
                run.verify(ck)?;
                run
            }
            // Recovery (crash retry or restart): rebuild by replay.
            (Some(ck), None) => SliceRun::resume(ck)?,
            (None, _) => {
                let (kind, cfg, wl, opts) =
                    job_inputs(&task.spec, task.id as u64, &inner.store, inner.quantum);
                SliceRun::start(kind, &cfg, wl, &opts)
            }
        };
        Ok(match run.next_slice()? {
            SliceOutcome::Finished(m) => QuantumOutcome::Finished(m),
            SliceOutcome::Preempted { ck, progress } => QuantumOutcome::Preempted {
                ck,
                progress,
                run: Box::new(run),
            },
        })
    }));
    match res {
        Err(payload) => {
            let msg = payload
                .downcast_ref::<&str>()
                .map(|s| s.to_string())
                .or_else(|| payload.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "worker slice panicked".into());
            QuantumOutcome::Failed(JobError::internal("panic", msg))
        }
        Ok(Err(e)) => QuantumOutcome::Failed(JobError::from_sim(&e)),
        Ok(Ok(outcome)) => outcome,
    }
}

fn worker_loop(inner: &Inner, slot: usize, my_gen: u64) {
    loop {
        let mut task = {
            let mut st = inner.state.lock().expect("server state poisoned");
            loop {
                if st.shutdown || st.workers[slot].gen != my_gen {
                    return;
                }
                let next_due = promote_deferred(&mut st);
                if let Some(id) = st.sched.pop() {
                    let (spec, ck, run, attempt, epoch, need_start) = {
                        let job = &mut st.jobs[id];
                        job.record.state = JobState::Running;
                        let need = !job.attempt_started;
                        job.attempt_started = true;
                        (
                            job.spec.clone(),
                            job.ck.take(),
                            job.run.take(),
                            job.record.attempts,
                            job.epoch,
                            need,
                        )
                    };
                    if need_start {
                        let _ = journal_append(
                            &mut st,
                            &Record::Started {
                                id: id as u64,
                                attempt,
                            },
                        );
                    }
                    let abandon = Arc::new(AtomicBool::new(false));
                    st.workers[slot].busy = Some(Busy {
                        job: id,
                        epoch,
                        since: Instant::now(),
                        abandon: Arc::clone(&abandon),
                    });
                    break Task {
                        id,
                        spec,
                        ck,
                        run,
                        attempt,
                        epoch,
                        abandon,
                    };
                }
                st = match next_due {
                    Some(due) => {
                        let wait = due
                            .saturating_duration_since(Instant::now())
                            .max(Duration::from_millis(1));
                        inner
                            .work
                            .wait_timeout(st, wait)
                            .expect("server state poisoned")
                            .0
                    }
                    None => inner.work.wait(st).expect("server state poisoned"),
                };
            }
        };
        let outcome = run_quantum(inner, &mut task);
        let mut st = inner.state.lock().expect("server state poisoned");
        if st.workers[slot].gen != my_gen {
            // The watchdog abandoned this thread mid-quantum: a
            // replacement owns the slot and the job was already
            // retried or quarantined. Exit without touching anything.
            return;
        }
        st.workers[slot].busy = None;
        if st.jobs[task.id].epoch != task.epoch {
            inner.change.notify_all();
            continue;
        }
        let priority = st.jobs[task.id].record.priority;
        match outcome {
            QuantumOutcome::Finished(m) => {
                let summary = ResultSummary::from_metrics(&m);
                let (slices, preemptions) = {
                    let job = &mut st.jobs[task.id];
                    job.record.slices += 1;
                    job.record.summary = Some(summary.clone());
                    job.record.state = JobState::Done;
                    (job.record.slices, job.record.preemptions)
                };
                let _ = journal_append(
                    &mut st,
                    &Record::Finished {
                        id: task.id as u64,
                        slices,
                        preemptions,
                        summary,
                    },
                );
                persist_record(&mut st, inner, task.id);
                st.active -= 1;
            }
            QuantumOutcome::Failed(err) if retryable(&err) => {
                handle_crash(&mut st, inner, task.id, err, task.ck.take());
            }
            QuantumOutcome::Failed(err) => {
                let (slices, preemptions) = {
                    let job = &mut st.jobs[task.id];
                    job.record.slices += 1;
                    job.record.state = JobState::Failed;
                    job.record.error = Some(err.clone());
                    (job.record.slices, job.record.preemptions)
                };
                let _ = journal_append(
                    &mut st,
                    &Record::Failed {
                        id: task.id as u64,
                        slices,
                        preemptions,
                        error: err,
                    },
                );
                persist_record(&mut st, inner, task.id);
                st.active -= 1;
            }
            QuantumOutcome::Preempted {
                mut ck,
                progress,
                run,
            } => {
                let (slices, preemptions) = {
                    let job = &mut st.jobs[task.id];
                    if std::mem::take(&mut job.corrupt_next) {
                        ck.state_digest ^= 0xdead_beef_dead_beef;
                    }
                    job.record.slices += 1;
                    job.record.preemptions += 1;
                    job.events.push(ProgressEvent {
                        job: task.id as u64,
                        slice: job.record.slices,
                        cycle: progress.cycle,
                        issued: progress.issued,
                        mem_ops: progress.mem_ops,
                        samples: progress.samples,
                    });
                    (job.record.slices, job.record.preemptions)
                };
                // Journal the parked state before exposing it: on-disk
                // never lags what a restart would need. The spec is
                // already journaled, so the boundary is enough.
                let _ = journal_append(
                    &mut st,
                    &Record::Parked {
                        id: task.id as u64,
                        slices,
                        preemptions,
                        cycle: ck.cycle,
                        state_digest: ck.state_digest,
                    },
                );
                let job = &mut st.jobs[task.id];
                job.ck = Some(ck);
                job.run = Some(*run);
                job.record.state = JobState::Queued;
                st.sched.push(priority, task.id);
                inner.work.notify_one();
            }
        }
        inner.change.notify_all();
    }
}

/// The wall-clock watchdog: abandons workers stuck on one slice past
/// the wedge timeout, retries/quarantines their job, and spawns a
/// replacement thread into the same slot.
fn supervisor_loop(inner: &Arc<Inner>, timeout: Duration) {
    let poll = (timeout / 4).max(Duration::from_millis(10));
    let mut st = inner.state.lock().expect("server state poisoned");
    loop {
        if st.shutdown {
            return;
        }
        let now = Instant::now();
        let wedged: Vec<usize> = st
            .workers
            .iter()
            .enumerate()
            .filter(|(_, w)| {
                w.busy
                    .as_ref()
                    .is_some_and(|b| now.duration_since(b.since) >= timeout)
            })
            .map(|(i, _)| i)
            .collect();
        for slot in wedged {
            let Some(busy) = st.workers[slot].busy.take() else {
                continue;
            };
            busy.abandon.store(true, Ordering::SeqCst);
            st.workers[slot].gen += 1;
            let gen = st.workers[slot].gen;
            let id = busy.job;
            if st.jobs[id].epoch == busy.epoch {
                st.jobs[id].epoch += 1;
                let waited = now.duration_since(busy.since).as_millis() as u64;
                let attempt = st.jobs[id].record.attempts;
                let mut err = JobError::internal(
                    "hang",
                    format!("worker wedged for {waited}ms on job {id} (attempt {attempt})"),
                );
                err.hang_dump = Some(format!(
                    "{{\"kind\": \"wedge\", \"worker\": {slot}, \"waited_ms\": {waited}, \
                     \"attempt\": {attempt}}}"
                ));
                // The abandoned thread owns the live run and the
                // checkpoint it was resuming; a retry restarts the job
                // from scratch.
                handle_crash(&mut st, inner, id, err, None);
            }
            let inner2 = Arc::clone(inner);
            if let Ok(h) = std::thread::Builder::new()
                .name(format!("rcc-serve-worker-{slot}g{gen}"))
                .spawn(move || worker_loop(&inner2, slot, gen))
            {
                inner.handles.lock().expect("handle list poisoned").push(h);
            }
            inner.change.notify_all();
        }
        st = inner
            .change
            .wait_timeout(st, poll)
            .expect("server state poisoned")
            .0;
    }
}

fn job_mut(st: &mut State, id: u64) -> Result<&mut Job, String> {
    let len = st.jobs.len();
    st.jobs
        .get_mut(id as usize)
        .ok_or_else(|| format!("journal replay: record for unknown job {id} ({len} submitted)"))
}

/// Rebuilds the job table from replayed journal records. Fails closed
/// on semantic inconsistency (out-of-order ids, invalid specs,
/// undecodable checkpoints): guessing would diverge from what ran.
fn rebuild_from_journal(
    st: &mut State,
    records: &[Record],
    store: &Store,
    quantum: u64,
) -> Result<(), String> {
    // The last boundary each job parked at by reference: its checkpoint
    // is built from the spec once, after the last record, not per record.
    let mut parked: BTreeMap<u64, (u64, u64)> = BTreeMap::new();
    for rec in records {
        match rec {
            Record::Submitted {
                id,
                priority,
                spec_json,
                dedup_key,
            } => {
                let next = st.jobs.len() as u64;
                if *id != next {
                    return Err(format!(
                        "journal replay: job {id} submitted out of order (expected {next})"
                    ));
                }
                let spec = JobSpec::parse(spec_json)
                    .map_err(|e| format!("journal replay: job {id} spec rejected: {}", e.detail))?;
                st.jobs.push(Job {
                    record: JobRecord {
                        id: *id,
                        state: JobState::Queued,
                        spec_json: spec_json.clone(),
                        priority: *priority,
                        slices: 0,
                        preemptions: 0,
                        attempts: 0,
                        dedup_key: dedup_key.clone(),
                        summary: None,
                        error: None,
                    },
                    spec,
                    ck: None,
                    run: None,
                    corrupt_next: false,
                    events: Vec::new(),
                    epoch: 0,
                    attempt_started: false,
                });
                if let Some(k) = dedup_key {
                    st.dedup.insert(k.clone(), *id);
                }
            }
            Record::Started { id, attempt } => {
                let job = job_mut(st, *id)?;
                job.record.attempts = (*attempt).max(job.record.attempts);
            }
            Record::Preempted {
                id,
                slices,
                preemptions,
                checkpoint,
            } => {
                let mut ck = Checkpoint::decode(checkpoint)
                    .map_err(|e| format!("journal replay: job {id} checkpoint: {e}"))?;
                let job = job_mut(st, *id)?;
                host_options(&mut ck.opts, &job.spec, *id, store, quantum);
                job.ck = Some(Box::new(ck));
                job.record.slices = *slices;
                job.record.preemptions = *preemptions;
                parked.remove(id);
            }
            Record::Parked {
                id,
                slices,
                preemptions,
                cycle,
                state_digest,
            } => {
                let job = job_mut(st, *id)?;
                job.ck = None;
                job.record.slices = *slices;
                job.record.preemptions = *preemptions;
                parked.insert(*id, (*cycle, *state_digest));
            }
            Record::Finished {
                id,
                slices,
                preemptions,
                summary,
            } => {
                let job = job_mut(st, *id)?;
                job.record.state = JobState::Done;
                job.record.slices = *slices;
                job.record.preemptions = *preemptions;
                job.record.summary = Some(summary.clone());
                job.ck = None;
            }
            Record::Failed {
                id,
                slices,
                preemptions,
                error,
            } => {
                let job = job_mut(st, *id)?;
                job.record.state = JobState::Failed;
                job.record.slices = *slices;
                job.record.preemptions = *preemptions;
                job.record.error = Some(error.clone());
                job.ck = None;
            }
            Record::Quarantined {
                id,
                attempts,
                error,
            } => {
                let job = job_mut(st, *id)?;
                job.record.state = JobState::Quarantined;
                job.record.attempts = *attempts;
                job.record.error = Some(error.clone());
                job.ck = None;
            }
            Record::Drained => {}
        }
    }
    // Requeue every non-terminal job in id order: preempted ones resume
    // from their journaled checkpoint, the rest start fresh.
    for idx in 0..st.jobs.len() {
        let (priority, terminal) = {
            let j = &st.jobs[idx];
            (j.record.priority, j.record.state.terminal())
        };
        if terminal {
            continue;
        }
        if let Some(&(cycle, state_digest)) = parked.get(&(idx as u64)) {
            let job = &mut st.jobs[idx];
            let (kind, cfg, wl, opts) = job_inputs(&job.spec, idx as u64, store, quantum);
            job.ck = Some(Box::new(Checkpoint {
                kind,
                cfg,
                workload: Arc::new(wl),
                opts,
                cycle,
                state_digest,
            }));
        }
        st.jobs[idx].record.state = JobState::Queued;
        st.sched.push(priority, idx);
        st.active += 1;
    }
    Ok(())
}

/// Releases a TCP connection slot on scope exit (even if the handler
/// errors out early).
struct ConnSlot(Server);

impl Drop for ConnSlot {
    fn drop(&mut self) {
        let mut n = self.0.inner.conns.lock().expect("conn count poisoned");
        *n = n.saturating_sub(1);
        self.0.inner.conn_done.notify_one();
    }
}

impl Server {
    /// Starts the worker pool, replaying the journal first when one is
    /// configured. No sockets yet — tests drive the in-process API
    /// directly; call [`Server::listen`] for TCP.
    pub fn start(cfg: ServerConfig) -> Result<Server, String> {
        let killed = Arc::new(AtomicBool::new(false));
        let injector = cfg
            .faults
            .clone()
            .map(|s| Arc::new(ServiceInjector::new(s)));
        let store = Store::with_faults(
            cfg.results_dir.clone(),
            injector.clone(),
            Arc::clone(&killed),
        )?;
        let mut journal = None;
        let mut replayed = Vec::new();
        if let Some(path) = &cfg.journal {
            let (j, replay) = Journal::open(path, cfg.fsync, injector.clone(), Arc::clone(&killed))
                .map_err(|e| e.to_string())?;
            replayed = replay.records;
            journal = Some(j);
        }
        let workers = cfg.workers.max(1);
        let mut st = State {
            jobs: Vec::new(),
            sched: Sched::new(cfg.aging),
            deferred: Vec::new(),
            dedup: BTreeMap::new(),
            workers: (0..workers)
                .map(|_| WorkerSlot { gen: 0, busy: None })
                .collect(),
            journal,
            journal_errors: 0,
            store_errors: 0,
            active: 0,
            shutdown: false,
            addr: None,
        };
        rebuild_from_journal(&mut st, &replayed, &store, cfg.quantum)?;
        let shed_queue = if cfg.shed_queue > 0 {
            cfg.shed_queue
        } else if cfg.max_queue > 0 {
            (cfg.max_queue * 3) / 4
        } else {
            0
        };
        let inner = Arc::new(Inner {
            state: Mutex::new(st),
            work: Condvar::new(),
            change: Condvar::new(),
            store,
            quantum: cfg.quantum,
            max_attempts: cfg.max_attempts.max(1),
            backoff_ms: cfg.backoff_ms,
            max_queue: cfg.max_queue,
            shed_queue,
            max_conns: cfg.max_conns,
            injector,
            killed,
            conns: Mutex::new(0),
            conn_done: Condvar::new(),
            handles: Mutex::new(Vec::new()),
        });
        {
            // Re-persist any terminal artifact a crash swallowed: the
            // journal has the result, the results dir may not.
            let mut st = inner.state.lock().expect("server state poisoned");
            for id in 0..st.jobs.len() {
                if !st.jobs[id].record.state.terminal() {
                    continue;
                }
                let missing = inner
                    .store
                    .artifact_path(id as u64)
                    .map(|p| !p.exists())
                    .unwrap_or(false);
                if missing {
                    persist_record(&mut st, &inner, id);
                }
            }
        }
        let mut handles = Vec::new();
        for i in 0..workers {
            let inner2 = Arc::clone(&inner);
            handles.push(
                std::thread::Builder::new()
                    .name(format!("rcc-serve-worker-{i}"))
                    .spawn(move || worker_loop(&inner2, i, 0))
                    .map_err(|e| format!("spawn worker: {e}"))?,
            );
        }
        if cfg.wedge_timeout_ms > 0 {
            let inner2 = Arc::clone(&inner);
            let timeout = Duration::from_millis(cfg.wedge_timeout_ms);
            handles.push(
                std::thread::Builder::new()
                    .name("rcc-serve-supervisor".into())
                    .spawn(move || supervisor_loop(&inner2, timeout))
                    .map_err(|e| format!("spawn supervisor: {e}"))?,
            );
        }
        inner
            .handles
            .lock()
            .expect("handle list poisoned")
            .extend(handles);
        if !replayed.is_empty() {
            inner.work.notify_all();
        }
        Ok(Server { inner })
    }

    /// Submits a job from raw JSON text.
    pub fn submit_json(&self, text: &str) -> Submission {
        match JobSpec::parse(text) {
            Ok(spec) => self.submit_spec(spec),
            Err(e) => Submission::Rejected {
                kind: e.kind.to_string(),
                detail: e.detail,
            },
        }
    }

    /// Submits an already-parsed spec value.
    pub fn submit_value(&self, v: &rcc_obs::json::JsonValue) -> Submission {
        match JobSpec::from_value(v) {
            Ok(spec) => self.submit_spec(spec),
            Err(e) => Submission::Rejected {
                kind: e.kind.to_string(),
                detail: e.detail,
            },
        }
    }

    /// Admits a validated spec into the queue: idempotent on
    /// `dedup_key`, bounded by `max_queue`, shedding priority-3 work
    /// under pressure, and journaled before it is acknowledged.
    pub fn submit_spec(&self, spec: JobSpec) -> Submission {
        if spec.record_trace && !self.inner.store.persistent() {
            return Submission::Rejected {
                kind: "options".into(),
                detail: "record_trace requires a results dir".into(),
            };
        }
        let mut st = self.inner.state.lock().expect("server state poisoned");
        if st.shutdown {
            return Submission::Rejected {
                kind: "shutdown".into(),
                detail: "server is shutting down".into(),
            };
        }
        let spec_json = spec.to_canonical_json();
        if let Some(key) = &spec.dedup_key {
            if let Some(&existing) = st.dedup.get(key) {
                if st.jobs[existing as usize].record.spec_json == spec_json {
                    return Submission::Accepted {
                        id: existing,
                        duplicate: true,
                    };
                }
                return Submission::Rejected {
                    kind: "dedup".into(),
                    detail: format!("dedup_key reused by job {existing} with a different spec"),
                };
            }
        }
        let queued = st.sched.len() + st.deferred.len();
        let retry_after_ms = ((queued as u64) * 25).clamp(100, 10_000);
        if self.inner.max_queue > 0 && queued >= self.inner.max_queue {
            return Submission::Overloaded {
                queued,
                retry_after_ms,
                shed: false,
            };
        }
        if spec.priority == 3 && self.inner.shed_queue > 0 && queued >= self.inner.shed_queue {
            return Submission::Overloaded {
                queued,
                retry_after_ms,
                shed: true,
            };
        }
        let id = st.jobs.len() as u64;
        if let Err(e) = journal_append(
            &mut st,
            &Record::Submitted {
                id,
                priority: spec.priority,
                spec_json: spec_json.clone(),
                dedup_key: spec.dedup_key.clone(),
            },
        ) {
            // Fail closed at admission: a job the journal never saw
            // would silently vanish on restart.
            return Submission::Rejected {
                kind: "journal".into(),
                detail: format!("not admitted: {e}"),
            };
        }
        let idx = st.jobs.len();
        st.sched.push(spec.priority, idx);
        if let Some(key) = &spec.dedup_key {
            st.dedup.insert(key.clone(), id);
        }
        st.jobs.push(Job {
            record: JobRecord {
                id,
                state: JobState::Queued,
                spec_json,
                priority: spec.priority,
                slices: 0,
                preemptions: 0,
                attempts: 0,
                dedup_key: spec.dedup_key.clone(),
                summary: None,
                error: None,
            },
            spec,
            ck: None,
            run: None,
            corrupt_next: false,
            events: Vec::new(),
            epoch: 0,
            attempt_started: false,
        });
        st.active += 1;
        self.inner.work.notify_one();
        Submission::Accepted {
            id,
            duplicate: false,
        }
    }

    /// A snapshot of one job's record.
    pub fn status(&self, id: u64) -> Option<JobRecord> {
        let st = self.inner.state.lock().expect("server state poisoned");
        st.jobs.get(id as usize).map(|j| j.record.clone())
    }

    /// The progress events a job has emitted so far.
    pub fn progress(&self, id: u64) -> Option<Vec<ProgressEvent>> {
        let st = self.inner.state.lock().expect("server state poisoned");
        st.jobs.get(id as usize).map(|j| j.events.clone())
    }

    /// Blocks until the job is terminal; returns its final record.
    pub fn wait(&self, id: u64) -> Option<JobRecord> {
        let mut st = self.inner.state.lock().expect("server state poisoned");
        loop {
            let job = st.jobs.get(id as usize)?;
            if job.record.state.terminal() {
                return Some(job.record.clone());
            }
            st = self.inner.change.wait(st).expect("server state poisoned");
        }
    }

    /// Blocks until no job is queued or running.
    pub fn wait_idle(&self) {
        let mut st = self.inner.state.lock().expect("server state poisoned");
        while st.active > 0 {
            let (guard, _) = self
                .inner
                .change
                .wait_timeout(st, Duration::from_millis(100))
                .expect("server state poisoned");
            st = guard;
        }
    }

    /// Fault-injection hook for the preemption-fidelity suite: corrupts
    /// job `id`'s mid-run snapshot — directly if it is parked on one,
    /// or the next one it parks on if a worker is mid-quantum (blocking
    /// until either happens). The next resume must then fail with a
    /// typed `checkpoint` error on this job — and only this job.
    /// Returns false when the job finished before it could be hit.
    pub fn corrupt_checkpoint(&self, id: u64) -> bool {
        let mut st = self.inner.state.lock().expect("server state poisoned");
        loop {
            let Some(job) = st.jobs.get_mut(id as usize) else {
                return false;
            };
            if job.record.state.terminal() {
                return false;
            }
            if job.record.state == JobState::Queued {
                if let Some(ck) = &mut job.ck {
                    ck.state_digest ^= 0xdead_beef_dead_beef;
                    return true;
                }
            } else if job.record.state == JobState::Running {
                job.corrupt_next = true;
                return true;
            }
            st = self.inner.change.wait(st).expect("server state poisoned");
        }
    }

    /// Per-state job counts.
    pub fn counts(&self) -> Counts {
        let st = self.inner.state.lock().expect("server state poisoned");
        let mut c = Counts::default();
        for j in &st.jobs {
            match j.record.state {
                JobState::Queued => c.queued += 1,
                JobState::Running => c.running += 1,
                JobState::Done => c.done += 1,
                JobState::Failed => c.failed += 1,
                JobState::Quarantined => c.quarantined += 1,
            }
        }
        c
    }

    /// Durability / degradation counters.
    pub fn stats(&self) -> ServiceStats {
        let st = self.inner.state.lock().expect("server state poisoned");
        ServiceStats {
            journal_records: st.journal.as_ref().map(Journal::records).unwrap_or(0),
            journal_errors: st.journal_errors,
            store_errors: st.store_errors,
            killed: self.inner.killed.load(Ordering::SeqCst),
        }
    }

    /// Asks the service to stop: no new submissions, workers park their
    /// current slice at the next checkpoint, the accept loop unblocks.
    pub fn request_shutdown(&self) {
        let addr = {
            let mut st = self.inner.state.lock().expect("server state poisoned");
            st.shutdown = true;
            for w in &st.workers {
                if let Some(b) = &w.busy {
                    // Releases injected wedges so drain cannot hang on a
                    // fault that only the (now exiting) watchdog clears.
                    b.abandon.store(true, Ordering::SeqCst);
                }
            }
            st.addr
        };
        self.inner.work.notify_all();
        self.inner.change.notify_all();
        self.inner.conn_done.notify_all();
        if let Some(addr) = addr {
            // Unblock the acceptor.
            let _ = TcpStream::connect(addr);
        }
    }

    /// Full stop: requests shutdown, joins every thread (in-flight
    /// slices park on journaled checkpoints), writes the results
    /// manifest, then closes the journal with a `Drained` marker.
    /// Idempotent.
    pub fn shutdown(&self) -> Result<(), String> {
        self.request_shutdown();
        loop {
            // The supervisor may spawn replacement workers while we
            // join; drain until the handle list stays empty.
            let handles: Vec<_> = self
                .inner
                .handles
                .lock()
                .expect("handle list poisoned")
                .drain(..)
                .collect();
            if handles.is_empty() {
                break;
            }
            for h in handles {
                let _ = h.join();
            }
        }
        let records: Vec<JobRecord> = {
            let st = self.inner.state.lock().expect("server state poisoned");
            st.jobs.iter().map(|j| j.record.clone()).collect()
        };
        let manifest = self.inner.store.write_manifest(&records);
        if manifest.is_ok() {
            let mut st = self.inner.state.lock().expect("server state poisoned");
            let _ = journal_append(&mut st, &Record::Drained);
        }
        manifest.map(|_| ())
    }

    /// Blocks until something requests shutdown (the TCP `shutdown`
    /// verb, or [`Server::request_shutdown`] from another thread).
    pub fn wait_for_shutdown_request(&self) {
        let mut st = self.inner.state.lock().expect("server state poisoned");
        while !st.shutdown {
            st = self.inner.change.wait(st).expect("server state poisoned");
        }
    }

    fn is_shutdown(&self) -> bool {
        self.inner
            .state
            .lock()
            .expect("server state poisoned")
            .shutdown
    }

    /// Blocks until a connection slot frees up (accept backpressure);
    /// false when shutdown arrived instead.
    fn acquire_conn_slot(&self) -> bool {
        let mut n = self.inner.conns.lock().expect("conn count poisoned");
        loop {
            if self.is_shutdown() {
                return false;
            }
            if self.inner.max_conns == 0 || *n < self.inner.max_conns {
                *n += 1;
                return true;
            }
            n = self
                .inner
                .conn_done
                .wait_timeout(n, Duration::from_millis(100))
                .expect("conn count poisoned")
                .0;
        }
    }

    /// Binds `addr` and starts the accept loop. Returns the bound
    /// address (use port 0 to let the OS pick).
    pub fn listen(&self, addr: &str) -> Result<SocketAddr, String> {
        let listener = TcpListener::bind(addr).map_err(|e| format!("bind {addr}: {e}"))?;
        let local = listener.local_addr().map_err(|e| e.to_string())?;
        self.inner.state.lock().expect("server state poisoned").addr = Some(local);
        let server = self.clone();
        let handle = std::thread::Builder::new()
            .name("rcc-serve-accept".into())
            .spawn(move || {
                for conn in listener.incoming() {
                    if server.is_shutdown() {
                        break;
                    }
                    let Ok(stream) = conn else { continue };
                    // Accept backpressure: at the cap, the acceptor
                    // parks here and later connections wait in the
                    // kernel backlog instead of spawning threads.
                    if !server.acquire_conn_slot() {
                        break;
                    }
                    let conn_server = server.clone();
                    // Connection threads are detached; they exit on EOF,
                    // socket error, or server shutdown.
                    let spawned = std::thread::Builder::new()
                        .name("rcc-serve-conn".into())
                        .spawn(move || {
                            let _slot = ConnSlot(conn_server.clone());
                            conn_server.handle_conn(stream);
                        });
                    if spawned.is_err() {
                        // The slot's Drop never ran in the thread.
                        drop(ConnSlot(server.clone()));
                    }
                }
            })
            .map_err(|e| format!("spawn acceptor: {e}"))?;
        self.inner
            .handles
            .lock()
            .expect("handle list poisoned")
            .push(handle);
        Ok(local)
    }

    /// Wire form of one job's status.
    fn status_line(&self, id: u64) -> String {
        match self.status(id) {
            None => wire::error_line("request", &format!("no such job {id}")),
            Some(rec) => record_json(&rec),
        }
    }

    fn handle_conn(&self, stream: TcpStream) {
        let mut reader = BufReader::new(match stream.try_clone() {
            Ok(s) => s,
            Err(_) => return,
        });
        let mut out = stream;
        loop {
            let frame = match wire::read_frame(&mut reader) {
                Ok(Some(f)) => f,
                Ok(None) | Err(_) => return,
            };
            let reply = match frame.and_then(|line| wire::parse_request(&line)) {
                Err(WireError { kind, detail }) => wire::error_line(kind, &detail),
                Ok(Request::Submit(spec)) => match self.submit_value(&spec) {
                    Submission::Accepted { id, duplicate } => {
                        format!("{{\"ok\": true, \"job\": {id}, \"duplicate\": {duplicate}}}")
                    }
                    Submission::Rejected { kind, detail } => wire::error_line(&kind, &detail),
                    Submission::Overloaded {
                        queued,
                        retry_after_ms,
                        shed,
                    } => format!(
                        "{{\"ok\": false, \"error\": {{\"kind\": \"{}\", \"detail\": \
                         \"queue holds {queued} jobs\", \"retry_after_ms\": {retry_after_ms}}}}}",
                        if shed { "shed" } else { "overloaded" }
                    ),
                },
                Ok(Request::Status(id)) => self.status_line(id),
                Ok(Request::List) => {
                    let c = self.counts();
                    format!(
                        "{{\"ok\": true, \"jobs\": {}, \"queued\": {}, \"running\": {}, \
                         \"done\": {}, \"failed\": {}, \"quarantined\": {}}}",
                        c.total(),
                        c.queued,
                        c.running,
                        c.done,
                        c.failed,
                        c.quarantined
                    )
                }
                Ok(Request::Shutdown) => {
                    let _ = writeln!(out, "{{\"ok\": true, \"stopping\": true}}");
                    self.request_shutdown();
                    return;
                }
                Ok(Request::Watch(id)) => {
                    if self.stream_watch(id, &mut out).is_err() {
                        return;
                    }
                    continue;
                }
            };
            if writeln!(out, "{reply}").is_err() {
                return;
            }
        }
    }

    /// Streams progress events for `id` until it is terminal, then the
    /// final status line.
    fn stream_watch(&self, id: u64, out: &mut TcpStream) -> std::io::Result<()> {
        {
            let st = self.inner.state.lock().expect("server state poisoned");
            if st.jobs.get(id as usize).is_none() {
                drop(st);
                writeln!(out, "{}", wire::error_line("request", "no such job"))?;
                return Ok(());
            }
        }
        let mut cursor = 0usize;
        loop {
            let (events, terminal) = {
                let mut st = self.inner.state.lock().expect("server state poisoned");
                loop {
                    let job = &st.jobs[id as usize];
                    if job.events.len() > cursor || job.record.state.terminal() || st.shutdown {
                        break (
                            job.events[cursor..].to_vec(),
                            job.record.state.terminal() || st.shutdown,
                        );
                    }
                    let (guard, _) = self
                        .inner
                        .change
                        .wait_timeout(st, Duration::from_millis(200))
                        .expect("server state poisoned");
                    st = guard;
                }
            };
            for e in &events {
                writeln!(out, "{}", e.to_json())?;
            }
            cursor += events.len();
            if terminal {
                writeln!(out, "{}", self.status_line(id))?;
                return Ok(());
            }
        }
    }
}

/// Wire/status JSON for a job record.
pub fn record_json(rec: &JobRecord) -> String {
    format!(
        "{{\"ok\": true, \"job\": {}, \"state\": \"{}\", \"priority\": {}, \
         \"slices\": {}, \"preemptions\": {}, \"attempts\": {}, \"result\": {}, \"error\": {}}}",
        rec.id,
        rec.state.label(),
        rec.priority,
        rec.slices,
        rec.preemptions,
        rec.attempts,
        rec.summary
            .as_ref()
            .map(ResultSummary::to_json)
            .unwrap_or_else(|| "null".into()),
        rec.error
            .as_ref()
            .map(JobError::to_json)
            .unwrap_or_else(|| "null".into()),
    )
}

/// The default quantum the `rcc-serve` binary advertises: long enough
/// that a quick job finishes in one slice, short enough that a
/// full-scale run yields many times.
pub const DEFAULT_QUANTUM: u64 = 50_000;
