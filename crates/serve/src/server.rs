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
//! only: a crash retry, a wedged worker, or a restart, each from the
//! boundary the journal last parked the job at. Either way preemption
//! is invisible in the results, and a corrupted snapshot surfaces as a
//! typed `checkpoint` failure on that job, never a wedged worker. Trace
//! jobs (`record_trace`) are preempted like every other job: the
//! recorder rides the parked machine, a replay re-records from cycle 0,
//! and the trace is written when the run finishes.
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
//! A job's durable state is its record (terminal state, slices,
//! preemptions, attempts, summary and error), its dedup entry and the
//! boundary it last parked at. One function, `apply`, changes it, and
//! only from a journal [`Record`]: the live path builds the record,
//! appends it to the `RCCJ` write-ahead journal (with
//! [`ServerConfig::journal`] set), then applies it, so the journal never
//! lags memory. [`Server::start`] applies every journaled record in
//! order through the same function and requeues each non-terminal job:
//! recovery is the live path fed from the journal. A parked job's
//! checkpoint is rebuilt from its submitted spec at the journaled
//! `(cycle, state_digest)` by the slice that next replays it, after a
//! restart, a crash or a wedge alike. Start-up also re-persists any
//! terminal artifact the crash swallowed, so a `kill -9` loses at most
//! the in-flight quantum and recovered results are bit-identical to an
//! uninterrupted run. Journals that embed full `RCCK` checkpoints
//! (`Preempted`, written by earlier builds) still replay: the record
//! stands for its boundary's cycle and digest. A boundary parked by a
//! build whose `state_digest` differs from this one's fails its job
//! once, with a typed `checkpoint` error naming both digests, and no
//! retry: drain a service before such an upgrade.
//!
//! ## Supervision
//!
//! Every failure path is typed: simulation errors map through
//! [`JobError::from_sim`] (deadlocks carry their hang dump), a
//! panicking slice is caught, and a wall-clock watchdog
//! ([`ServerConfig::wedge_timeout_ms`]) abandons wedged workers and
//! spawns replacements. Crash-style failures (`panic`, `hang`) are
//! retried with deterministic exponential backoff up to
//! [`ServerConfig::max_attempts`], each consumed attempt journaled
//! (`Retried`) before the retry runs, then quarantined with the last
//! panic payload or hang dump attached; deterministic simulation
//! failures fail immediately — retrying a deadlock reproduces it.
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
    /// The boundary `(cycle, state_digest)` the journal last parked the
    /// job at. A replay goes on from here: a crash retry, a wedge retry
    /// or a restart. Durable, like `record`: only [`apply`] writes it.
    parked: Option<(u64, u64)>,
    /// The live machine parked between quanta and the checkpoint
    /// `next_slice` handed back for it. The next slice continues it after
    /// checking it against that checkpoint; `None` after a crash, a wedge
    /// or a restart, when the next slice replays `parked` instead.
    live: Option<(SliceRun, Box<Checkpoint>)>,
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
    shutdown: bool,
    addr: Option<SocketAddr>,
    /// Every record the live path committed, with the durable state
    /// right after it: what the journal-prefix property test replays.
    #[cfg(test)]
    committed: Vec<(Record, tests::Durable)>,
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
    parked: Option<(u64, u64)>,
    live: Option<(SliceRun, Box<Checkpoint>)>,
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

/// The one way a job's durable state changes: its record (terminal
/// state, slices, preemptions, attempts, summary and error), its dedup
/// entry and the boundary it last parked at. The live path journals a
/// record, then applies it ([`commit`]); recovery applies every
/// journaled record in order. Fails closed where a guess would diverge
/// from what ran: a `Submitted` id out of order, a record for an unknown
/// job, a spec that no longer parses, an undecodable legacy checkpoint.
fn apply(st: &mut State, rec: &Record) -> Result<(), String> {
    if let Record::Submitted {
        id,
        priority,
        spec_json,
        dedup_key,
    } = rec
    {
        let next = st.jobs.len() as u64;
        if *id != next {
            return Err(format!("job {id} submitted out of order (expected {next})"));
        }
        let spec = JobSpec::parse(spec_json)
            .map_err(|e| format!("job {id} spec rejected: {}", e.detail))?;
        if let Some(k) = dedup_key {
            st.dedup.insert(k.clone(), *id);
        }
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
            parked: None,
            live: None,
            corrupt_next: false,
            events: Vec::new(),
            epoch: 0,
            attempt_started: false,
        });
        return Ok(());
    }
    let Some(id) = rec.job_id() else {
        return Ok(());
    };
    let len = st.jobs.len();
    let job = st
        .jobs
        .get_mut(id as usize)
        .ok_or_else(|| format!("record for unknown job {id} ({len} submitted)"))?;
    let r = &mut job.record;
    match rec {
        Record::Submitted { .. } | Record::Drained => {}
        // Earlier builds journaled no crash: a retry's `Started` carried
        // the attempts consumed, so it still raises them.
        Record::Started { attempt, .. } => r.attempts = r.attempts.max(*attempt),
        Record::Retried { attempts, .. } => r.attempts = *attempts,
        Record::Preempted {
            slices,
            preemptions,
            checkpoint,
            ..
        } => {
            let ck =
                Checkpoint::decode(checkpoint).map_err(|e| format!("job {id} checkpoint: {e}"))?;
            (r.slices, r.preemptions) = (*slices, *preemptions);
            job.parked = Some((ck.cycle, ck.state_digest));
        }
        Record::Parked {
            slices,
            preemptions,
            cycle,
            state_digest,
            ..
        } => {
            (r.slices, r.preemptions) = (*slices, *preemptions);
            job.parked = Some((*cycle, *state_digest));
        }
        Record::Finished {
            slices,
            preemptions,
            summary,
            ..
        } => {
            (r.state, r.slices, r.preemptions) = (JobState::Done, *slices, *preemptions);
            r.summary = Some(summary.clone());
        }
        Record::Failed {
            slices,
            preemptions,
            error,
            ..
        } => {
            (r.state, r.slices, r.preemptions) = (JobState::Failed, *slices, *preemptions);
            r.error = Some(error.clone());
        }
        Record::Quarantined {
            attempts, error, ..
        } => {
            (r.state, r.attempts) = (JobState::Quarantined, *attempts);
            r.error = Some(error.clone());
        }
    }
    Ok(())
}

/// The live path's one way to change a job's durable state: journal
/// `rec` (when a journal is configured), apply it, and persist the
/// artifact of a terminal record. A failed append degrades durability
/// (counted), never in-memory correctness, so the record still applies.
/// The exception is `Submitted`: a job the journal never saw would
/// silently vanish on restart, so admission fails closed with the error.
fn commit(st: &mut State, inner: &Inner, rec: Record) -> Result<(), String> {
    if let Some(Err(e)) = st.journal.as_mut().map(|j| j.append(&rec)) {
        st.journal_errors += 1;
        if matches!(rec, Record::Submitted { .. }) {
            return Err(e.to_string());
        }
    }
    apply(st, &rec)?;
    if let Some(id) = rec.job_id().filter(|_| rec.is_terminal()) {
        persist_record(st, &inner.store, id as usize);
    }
    #[cfg(test)]
    {
        let durable = tests::durable(st);
        st.committed.push((rec, durable));
    }
    Ok(())
}

/// Persists a terminal job's artifact, counting (not propagating)
/// failures: the journal/in-memory record stays authoritative.
fn persist_record(st: &mut State, store: &Store, id: usize) {
    if let Err(e) = store.persist(&st.jobs[id].record) {
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

/// A crashed attempt (panic or wedge) consumes a retry: the job is
/// deferred behind a deterministic exponential backoff, or quarantined
/// once the budget is spent, and either way the crash is journaled
/// before it takes effect. The crashed attempt's live run is gone; the
/// retry replays the job's journaled boundary, exactly as a restart
/// would, and runs the exact same slice.
fn handle_crash(st: &mut State, inner: &Inner, id: usize, error: JobError) {
    let attempts = st.jobs[id].record.attempts + 1;
    st.jobs[id].attempt_started = false;
    let id64 = id as u64;
    if attempts >= inner.max_attempts {
        let _ = commit(
            st,
            inner,
            Record::Quarantined {
                id: id64,
                attempts,
                error,
            },
        );
    } else {
        let _ = commit(st, inner, Record::Retried { id: id64, attempts });
        st.jobs[id].record.state = JobState::Queued;
        let delay = (inner.backoff_ms << (attempts - 1).min(6)).clamp(1, 5_000);
        st.deferred
            .push((Instant::now() + Duration::from_millis(delay), id));
        inner.work.notify_all();
    }
}

/// What job `id` runs on: its spec's inputs under this server's host
/// options, the preemption quantum and, for a trace job, where the
/// recording goes. RCCK carries neither, so a fresh start and a replay
/// of the journaled boundary both take them from here.
fn job_inputs(
    spec: &JobSpec,
    id: u64,
    store: &Store,
    quantum: u64,
) -> (ProtocolKind, GpuConfig, Workload, SimOptions) {
    let (kind, cfg, wl, mut opts) = spec.inputs();
    opts.quantum = quantum;
    if spec.record_trace {
        opts.record_trace = store.trace_path(id);
    }
    (kind, cfg, wl, opts)
}

fn run_quantum(inner: &Inner, task: &mut Task) -> QuantumOutcome {
    if let Some(inj) = &inner.injector {
        if matches!(
            inj.worker_fault(task.id as u64, task.attempt, task.parked.is_some()),
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
    let live = task.live.take();
    let res = catch_unwind(AssertUnwindSafe(|| -> Result<QuantumOutcome, SimError> {
        if let Some(inj) = &inner.injector {
            if matches!(
                inj.worker_fault(task.id as u64, task.attempt, task.parked.is_some()),
                WorkerFault::Panic
            ) {
                panic!(
                    "injected worker panic (job {}, attempt {})",
                    task.id, task.attempt
                );
            }
        }
        let mut run = match live {
            // The usual case: go on with the machine that ran the last
            // slice, once it is proven to be the journaled one.
            Some((run, ck)) => {
                run.verify(&ck)?;
                run
            }
            None => {
                let (kind, cfg, wl, opts) =
                    job_inputs(&task.spec, task.id as u64, &inner.store, inner.quantum);
                match task.parked {
                    // Recovery (a crash or wedge retry, or a restart):
                    // rebuild the journaled boundary and replay to it.
                    Some((cycle, state_digest)) => SliceRun::resume(&Checkpoint {
                        kind,
                        cfg,
                        workload: Arc::new(wl),
                        opts,
                        cycle,
                        state_digest,
                    })?,
                    None => SliceRun::start(kind, &cfg, wl, &opts),
                }
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
        Err(payload) => QuantumOutcome::Failed(JobError::internal(
            "panic",
            rcc_common::unwind::panic_reason(payload.as_ref()),
        )),
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
                    let job = &mut st.jobs[id];
                    job.record.state = JobState::Running;
                    let first = !std::mem::replace(&mut job.attempt_started, true);
                    let task = Task {
                        id,
                        spec: job.spec.clone(),
                        parked: job.parked,
                        live: job.live.take(),
                        attempt: job.record.attempts,
                        epoch: job.epoch,
                        abandon: Arc::new(AtomicBool::new(false)),
                    };
                    if first {
                        let started = Record::Started {
                            id: id as u64,
                            attempt: task.attempt,
                        };
                        let _ = commit(&mut st, inner, started);
                    }
                    st.workers[slot].busy = Some(Busy {
                        job: id,
                        epoch: task.epoch,
                        since: Instant::now(),
                        abandon: Arc::clone(&task.abandon),
                    });
                    break task;
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
        let id = task.id;
        if st.jobs[id].epoch != task.epoch {
            inner.change.notify_all();
            continue;
        }
        // The quantum that just ran is one more slice.
        let (slices, preemptions) = {
            let r = &st.jobs[id].record;
            (r.slices + 1, r.preemptions)
        };
        let id64 = id as u64;
        match outcome {
            QuantumOutcome::Finished(m) => {
                let summary = ResultSummary::from_metrics(&m);
                let rec = Record::Finished {
                    id: id64,
                    slices,
                    preemptions,
                    summary,
                };
                let _ = commit(&mut st, inner, rec);
            }
            QuantumOutcome::Failed(err) if retryable(&err) => {
                handle_crash(&mut st, inner, id, err);
            }
            QuantumOutcome::Failed(error) => {
                let rec = Record::Failed {
                    id: id64,
                    slices,
                    preemptions,
                    error,
                };
                let _ = commit(&mut st, inner, rec);
            }
            QuantumOutcome::Preempted {
                mut ck,
                progress,
                run,
            } => {
                if std::mem::take(&mut st.jobs[id].corrupt_next) {
                    ck.state_digest ^= 0xdead_beef_dead_beef;
                }
                // Journal the parked state before exposing it: on-disk
                // never lags what a restart would need. The spec is
                // already journaled, so the boundary is enough.
                let rec = Record::Parked {
                    id: id64,
                    slices,
                    preemptions: preemptions + 1,
                    cycle: ck.cycle,
                    state_digest: ck.state_digest,
                };
                let _ = commit(&mut st, inner, rec);
                let job = &mut st.jobs[id];
                job.events.push(ProgressEvent {
                    job: id64,
                    slice: slices,
                    cycle: progress.cycle,
                    issued: progress.issued,
                    mem_ops: progress.mem_ops,
                    samples: progress.samples,
                });
                job.live = Some((*run, ck));
                job.record.state = JobState::Queued;
                let priority = job.record.priority;
                st.sched.push(priority, id);
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
                // The abandoned thread owns the live run; a retry
                // replays the job's journaled boundary.
                handle_crash(&mut st, inner, id, err);
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
            shutdown: false,
            addr: None,
            #[cfg(test)]
            committed: Vec::new(),
        };
        // Recovery is the live path fed from the journal: apply every
        // record, then requeue each non-terminal job in id order (a parked
        // one replays its journaled boundary, the rest start fresh) and
        // re-persist any terminal artifact a crash swallowed: the journal
        // has the result, the results dir may not.
        for rec in &replayed {
            apply(&mut st, rec).map_err(|e| format!("journal replay: {e}"))?;
        }
        for id in 0..st.jobs.len() {
            let record = &st.jobs[id].record;
            if !record.state.terminal() {
                st.sched.push(record.priority, id);
            } else if store.artifact_path(id as u64).is_some_and(|p| !p.exists()) {
                persist_record(&mut st, &store, id);
            }
        }
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
        let submitted = Record::Submitted {
            id,
            priority: spec.priority,
            spec_json,
            dedup_key: spec.dedup_key,
        };
        if let Err(e) = commit(&mut st, &self.inner, submitted) {
            return Submission::Rejected {
                kind: "journal".into(),
                detail: format!("not admitted: {e}"),
            };
        }
        st.sched.push(spec.priority, id as usize);
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
        while st.jobs.iter().any(|j| !j.record.state.terminal()) {
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
                if let Some((_, ck)) = &mut job.live {
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
            let _ = commit(&mut st, &self.inner, Record::Drained);
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

#[cfg(test)]
mod tests;
