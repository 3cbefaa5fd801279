#![forbid(unsafe_code)]
#![warn(missing_docs)]
//! `rcc-serve` — a long-running batch-simulation service.
//!
//! The service accepts simulation job requests (protocol × machine ×
//! workload × options), runs them on a bounded worker pool, and
//! persists schema-validated result artifacts. Long jobs are
//! preemptible: a worker runs one quantum at a time on a
//! [`rcc_sim::SliceRun`], parks the live machine on the job together
//! with the [`rcc_sim::Checkpoint`] that describes it, and requeues the
//! job, so a flood of short jobs cannot starve behind a long one. The
//! next slice goes on with the parked machine once its state digest
//! matches the checkpoint's; only recovery (a crash retry or a restart)
//! rebuilds a run by replaying the checkpoint. Either way a preempted
//! job's results are bit-identical to an uninterrupted run of the same
//! spec (the stress and preemption suites assert this byte for byte).
//!
//! Layers, bottom to top:
//!
//! - [`queue`] — the pure priority-aged FIFO scheduler (provable
//!   starvation bound, deterministic for a fixed arrival order).
//! - [`spec`] — job validation: JSON Schema (`schemas/job.schema.json`)
//!   first, then semantic checks, then resolution into the exact
//!   `(ProtocolKind, GpuConfig, Workload, SimOptions)` the driver's
//!   `try_simulate` would use.
//! - [`store`] — result summaries, typed job errors (hang dumps
//!   attached), and the on-disk artifact/manifest writer, all validated
//!   against `schemas/job_result.schema.json` /
//!   `schemas/job_manifest.schema.json` before anything is written.
//! - [`journal`] — the `RCCJ` write-ahead journal: every lifecycle
//!   transition fsync'd before it takes effect, torn tails tolerated,
//!   interior corruption failed closed, so a `kill -9` loses at most
//!   the in-flight quantum and recovery is bit-identical.
//! - [`server`] — the worker pool, the in-process [`server::Server`]
//!   API the tests drive, and the line-delimited JSON TCP front end.
//! - [`wire`] — the fail-closed wire protocol (bounded frames, typed
//!   [`wire::WireError`] rejections; malformed input can never kill the
//!   accept loop or a worker).
//!
//! The stress suite cross-checks the service against direct simulation:
//! every finished job's summary must equal a direct `try_simulate` of
//! the same resolved spec, byte for byte.

pub mod journal;
pub mod queue;
pub mod server;
pub mod spec;
pub mod store;
pub mod wire;

pub use journal::{Journal, JournalError, Record, Replay};
pub use queue::Sched;
pub use server::{Counts, Server, ServerConfig, ServiceStats, Submission};
pub use spec::{JobSpec, SpecError, WorkloadSpec};
pub use store::{JobError, JobState, ResultSummary};
