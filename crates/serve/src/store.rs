//! Job records, result summaries, and the on-disk artifact store.
//!
//! Every persisted document is validated against its schema
//! (`schemas/job_result.schema.json`, `schemas/job_manifest.schema.json`)
//! *before* it is written; a document the schema rejects is a bug in
//! the producer and surfaces as an error instead of a corrupt artifact.
//!
//! [`ResultSummary`] is the pure-simulation slice of a finished job:
//! exactly the fields two runs of the same spec must agree on, plus the
//! [`rcc_sim::RunMetrics::digest`] over the full
//! same-simulated-results field set. The stress suite compares the
//! serialized summary byte-for-byte against a direct `try_simulate` of
//! the same spec; service-side scheduling facts (slices, preemptions)
//! live outside it, since they legitimately differ run to run.

use rcc_chaos::service::ServiceInjector;
use rcc_obs::json::escape;
use rcc_sim::{RunMetrics, SimError};
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// Artifact format version.
pub const RESULT_VERSION: u64 = 1;

/// Lifecycle of a job inside the service.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobState {
    /// Waiting in the scheduler (fresh, parked mid-run on a checkpoint,
    /// or deferred behind a retry backoff).
    Queued,
    /// A worker is running a quantum of it right now.
    Running,
    /// Finished; a [`ResultSummary`] is available.
    Done,
    /// Failed with a typed [`JobError`].
    Failed,
    /// Crash-looped (panic or wedge) through `max_attempts` retries;
    /// the supervisor pulled it out of rotation. Terminal, with the
    /// last panic payload or hang dump on the [`JobError`].
    Quarantined,
}

impl JobState {
    /// Wire/artifact label.
    pub fn label(self) -> &'static str {
        match self {
            JobState::Queued => "queued",
            JobState::Running => "running",
            JobState::Done => "done",
            JobState::Failed => "failed",
            JobState::Quarantined => "quarantined",
        }
    }

    /// True once the job can never change state again.
    pub fn terminal(self) -> bool {
        matches!(
            self,
            JobState::Done | JobState::Failed | JobState::Quarantined
        )
    }
}

/// The pure-simulation result of a finished job.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ResultSummary {
    /// Protocol label (as in the paper's figures).
    pub protocol: String,
    /// Workload name.
    pub workload: String,
    /// Cycles to retire every warp.
    pub cycles: u64,
    /// Instructions issued.
    pub issued: u64,
    /// Memory operations performed.
    pub mem_ops: u64,
    /// SC scoreboard violations observed.
    pub sc_violations: u64,
    /// [`RunMetrics::digest`] over the full deterministic field set,
    /// seeded with the bench harness seed.
    pub metrics_digest: u64,
}

impl ResultSummary {
    /// Summarizes a finished run.
    pub fn from_metrics(m: &RunMetrics) -> Self {
        ResultSummary {
            protocol: m.kind.label().to_string(),
            workload: m.workload.clone(),
            cycles: m.cycles,
            issued: m.core.issued,
            mem_ops: m.core.mem_ops,
            sc_violations: m.sc_violations as u64,
            metrics_digest: m.digest(rcc_bench::SEED),
        }
    }

    /// Deterministic JSON form — the byte string the stress suite
    /// compares across service and direct runs.
    pub fn to_json(&self) -> String {
        format!(
            "{{\"protocol\": \"{}\", \"workload\": \"{}\", \"cycles\": {}, \
             \"issued\": {}, \"mem_ops\": {}, \"sc_violations\": {}, \
             \"metrics_digest\": \"{:016x}\"}}",
            escape(&self.protocol),
            escape(&self.workload),
            self.cycles,
            self.issued,
            self.mem_ops,
            self.sc_violations,
            self.metrics_digest
        )
    }
}

/// A typed job failure, preserving the [`SimError`] taxonomy across the
/// service boundary. Deadlocks carry the full forensic hang dump.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JobError {
    /// Stable failure category.
    pub kind: &'static str,
    /// The error's display form.
    pub detail: String,
    /// `HangDump::to_json()` for deadlocks, folded onto one line.
    pub hang_dump: Option<String>,
}

impl JobError {
    /// Maps a simulation error into its wire/artifact form.
    pub fn from_sim(e: &SimError) -> Self {
        let kind = match e {
            SimError::Deadlock(_) => "deadlock",
            SimError::CyclesExceeded { .. } => "cycles-exceeded",
            SimError::ProtocolInvariant { .. } => "protocol-invariant",
            SimError::ScViolation { .. } => "sc-violation",
            SimError::SanitizerViolation { .. } => "sanitizer-violation",
            SimError::ProbeMissing { .. } => "probe-missing",
            SimError::Checkpoint(_) => "checkpoint",
            SimError::Trace(_) => "trace",
        };
        let hang_dump = match e {
            SimError::Deadlock(dump) => Some(one_line(&dump.to_json())),
            _ => None,
        };
        JobError {
            kind,
            detail: e.to_string(),
            hang_dump,
        }
    }

    /// An internal service failure (e.g. a panicking worker closure).
    pub fn internal(kind: &'static str, detail: impl Into<String>) -> Self {
        JobError {
            kind,
            detail: detail.into(),
            hang_dump: None,
        }
    }

    /// Wire/artifact form.
    pub fn to_json(&self) -> String {
        let mut s = format!(
            "{{\"kind\": \"{}\", \"detail\": \"{}\"",
            escape(self.kind),
            escape(&self.detail)
        );
        if let Some(dump) = &self.hang_dump {
            // Journals written before dumps were stored on one line
            // still hold pretty-printed ones.
            let _ = write!(s, ", \"hang_dump\": {}", one_line(dump));
        }
        s.push('}');
        s
    }
}

/// Folds a pretty-printed JSON document onto one line, so it can ride
/// in a reply of the line-delimited wire protocol. The document's
/// strings hold no raw newlines (JSON forbids them), so only the
/// indentation between tokens changes.
fn one_line(json: &str) -> String {
    json.lines()
        .map(str::trim)
        .filter(|l| !l.is_empty())
        .collect::<Vec<_>>()
        .join(" ")
}

/// Everything the service knows about one job.
#[derive(Debug, Clone, PartialEq)]
pub struct JobRecord {
    /// Job id (dense, assigned at accept time).
    pub id: u64,
    /// Current lifecycle state.
    pub state: JobState,
    /// The accepted spec in canonical JSON form.
    pub spec_json: String,
    /// Priority class it was admitted at.
    pub priority: u8,
    /// Quanta executed so far (a completed unpreempted job has 1).
    pub slices: u64,
    /// Times the job was parked on a checkpoint and requeued.
    pub preemptions: u64,
    /// 0-based retry attempts consumed (0 = never crashed).
    pub attempts: u32,
    /// Client-supplied idempotency key, if any.
    pub dedup_key: Option<String>,
    /// Summary, once `Done`.
    pub summary: Option<ResultSummary>,
    /// Failure, once `Failed` or `Quarantined`.
    pub error: Option<JobError>,
}

impl JobRecord {
    /// The persisted artifact for a terminal job, shaped by
    /// `schemas/job_result.schema.json`.
    pub fn artifact_json(&self) -> String {
        format!(
            "{{\"version\": {RESULT_VERSION}, \"job_id\": {}, \"state\": \"{}\", \
             \"spec\": {}, \"result\": {}, \"error\": {}, \
             \"service\": {{\"priority\": {}, \"slices\": {}, \"preemptions\": {}, \
             \"attempts\": {}}}}}",
            self.id,
            self.state.label(),
            self.spec_json,
            self.summary
                .as_ref()
                .map(ResultSummary::to_json)
                .unwrap_or_else(|| "null".into()),
            self.error
                .as_ref()
                .map(JobError::to_json)
                .unwrap_or_else(|| "null".into()),
            self.priority,
            self.slices,
            self.preemptions,
            self.attempts
        )
    }
}

/// The artifact store: a results directory, or nothing (in-memory
/// service, as the tests mostly run it).
#[derive(Debug)]
pub struct Store {
    dir: Option<PathBuf>,
    /// Service-level fault injection for artifact writes.
    injector: Option<Arc<ServiceInjector>>,
    /// Kill switch shared with the journal: once set, writes are
    /// silently dropped (the "process" is dead — see `journal`).
    killed: Arc<AtomicBool>,
}

impl Store {
    /// Creates the store, making the directory if needed.
    pub fn new(dir: Option<PathBuf>) -> Result<Store, String> {
        Store::with_faults(dir, None, Arc::new(AtomicBool::new(false)))
    }

    /// Creates the store with a fault injector and shared kill switch.
    pub fn with_faults(
        dir: Option<PathBuf>,
        injector: Option<Arc<ServiceInjector>>,
        killed: Arc<AtomicBool>,
    ) -> Result<Store, String> {
        if let Some(d) = &dir {
            std::fs::create_dir_all(d).map_err(|e| format!("results dir {}: {e}", d.display()))?;
        }
        Ok(Store {
            dir,
            injector,
            killed,
        })
    }

    /// True when artifacts are being persisted.
    pub fn persistent(&self) -> bool {
        self.dir.is_some()
    }

    /// The path trace-recording jobs write their RCCT binary to.
    pub fn trace_path(&self, id: u64) -> Option<String> {
        self.dir
            .as_ref()
            .map(|d| d.join(format!("trace-{id}.rcct")).display().to_string())
    }

    /// Persists a terminal job's artifact, schema-validating first.
    /// Returns the relative artifact name, or `None` when the store is
    /// in-memory.
    pub fn persist(&self, rec: &JobRecord) -> Result<Option<String>, String> {
        debug_assert!(rec.state.terminal());
        let Some(dir) = &self.dir else {
            return Ok(None);
        };
        if self.killed.load(Ordering::SeqCst) {
            // Dead process: nothing lands, nobody is told. Recovery
            // re-persists terminal artifacts from the journal.
            return Ok(None);
        }
        if let Some(inj) = &self.injector {
            if inj.store_fault(rec.id) {
                return Err(format!("injected io error writing job {}", rec.id));
            }
        }
        let doc = rec.artifact_json();
        rcc_bench::report::check_schema(
            "job artifact",
            rcc_bench::report::schemas::JOB_RESULT,
            &doc,
        )?;
        let name = format!("job-{}.json", rec.id);
        std::fs::write(dir.join(&name), doc.as_bytes())
            .map_err(|e| format!("write {name}: {e}"))?;
        Ok(Some(name))
    }

    /// Writes `manifest.json` indexing every terminal job, validated
    /// against `schemas/job_manifest.schema.json`.
    pub fn write_manifest(&self, records: &[JobRecord]) -> Result<Option<PathBuf>, String> {
        let Some(dir) = &self.dir else {
            return Ok(None);
        };
        if self.killed.load(Ordering::SeqCst) {
            return Ok(None);
        }
        let terminal: Vec<&JobRecord> = records.iter().filter(|r| r.state.terminal()).collect();
        let done = terminal
            .iter()
            .filter(|r| r.state == JobState::Done)
            .count();
        let quarantined = terminal
            .iter()
            .filter(|r| r.state == JobState::Quarantined)
            .count();
        let mut doc = format!(
            "{{\"version\": {RESULT_VERSION}, \"jobs\": {}, \"done\": {done}, \
             \"failed\": {}, \"quarantined\": {quarantined}, \"entries\": [",
            terminal.len(),
            terminal.len() - done - quarantined
        );
        for (i, r) in terminal.iter().enumerate() {
            if i > 0 {
                doc.push_str(", ");
            }
            let _ = write!(
                doc,
                "{{\"job_id\": {}, \"state\": \"{}\", \"path\": \"job-{}.json\"}}",
                r.id,
                r.state.label(),
                r.id
            );
        }
        doc.push_str("]}");
        rcc_bench::report::check_schema(
            "job manifest",
            rcc_bench::report::schemas::JOB_MANIFEST,
            &doc,
        )?;
        let path = dir.join("manifest.json");
        std::fs::write(&path, doc.as_bytes()).map_err(|e| format!("write manifest: {e}"))?;
        Ok(Some(path))
    }

    /// The artifact path for a job id, when persistent.
    pub fn artifact_path(&self, id: u64) -> Option<PathBuf> {
        self.dir.as_ref().map(|d| d.join(format!("job-{id}.json")))
    }

    /// The results directory, when persistent.
    pub fn dir(&self) -> Option<&Path> {
        self.dir.as_deref()
    }
}
