//! Protocol dispatch, run options, and the one driver every run goes
//! through.
//!
//! [`SliceRun`] owns the live machine of a run and executes it one
//! quantum ([`SimOptions::quantum`]) at a time. A whole run
//! ([`try_simulate`], [`resume`]) is [`SliceRun::finish`]: the same
//! slices back to back, each boundary checkpoint saved to
//! [`SimOptions::checkpoint`] when a path is named. rcc-serve keeps the
//! handle between slices instead, so a preemption is a yield. Replay
//! from cycle 0 ([`SliceRun::resume`]) rebuilds a run from its
//! [`Checkpoint`] and is digest-verified before it goes on.

use crate::checkpoint::Checkpoint;
use crate::error::SimError;
use crate::metrics::RunMetrics;
use crate::system::System;
use rcc_common::config::GpuConfig;
use rcc_core::protocol::Protocol;
use rcc_core::{with_protocol, ProtocolKind};
use rcc_workloads::Workload;
use std::sync::Arc;

/// Options for a simulation run.
#[derive(Debug, Clone)]
pub struct SimOptions {
    /// Verify the execution with the SC scoreboard. Only applied to
    /// protocols that claim SC support — TC-Weak and RCC-WO are weakly
    /// ordered by design and SC-IDEAL is a performance idealization.
    pub check_sc: bool,
    /// Attach the runtime SC sanitizer (`rcc-verify`): record every
    /// access and, at the end of the run, check that an SC total order
    /// explains the observed values (po ∪ rf ∪ co ∪ fr acyclicity). The
    /// verdict lands in [`RunMetrics::sanitizer_sc`]; for SC-capable
    /// protocols a non-SC verdict is a [`SimError::SanitizerViolation`].
    pub sanitize: bool,
    /// Abort with [`SimError::CyclesExceeded`] if the run exceeds this
    /// many cycles.
    pub max_cycles: u64,
    /// The engine's due policy: on (the default), each component runs
    /// only at its exact wake events and provably idle cycles are
    /// skipped; off, every component runs every cycle. Same results,
    /// slower — see DESIGN.md, "Simulation performance".
    pub fast_forward: bool,
    /// Deterministic perturbation injection (see `rcc-chaos` and
    /// DESIGN.md, "Perturbation testing"). `None` — the default — arms
    /// nothing and leaves the run bit-identical to a build without the
    /// chaos subsystem.
    pub chaos: Option<rcc_chaos::ChaosSpec>,
    /// Record a time-series sample every this many cycles (0 — the
    /// default — disables sampling). The sampled series lands in
    /// [`RunMetrics::obs`]. Observation is passive: simulated results
    /// are bit-identical with sampling on or off.
    pub sample_every: u64,
    /// Record structured trace events (Chrome-trace/Perfetto export; see
    /// `rcc-obs`). The trace lands in [`RunMetrics::obs`].
    pub trace: bool,
    /// Profile the simulator itself: per-phase wall-clock attribution in
    /// [`RunMetrics::profile`]. Host-machine measurement only.
    pub profile: bool,
    /// Checkpoint file path for whole runs ([`SliceRun::finish`]): the
    /// checkpoint at every quantum boundary lands here, each overwriting
    /// the last, and if the watchdog fires an auto-checkpoint of the
    /// hung state is written next to it (`<path>.hang`) for forensic
    /// replay. A JSON manifest sidecar (`<path>.manifest.json`)
    /// accompanies every snapshot. Host-local state that checkpoints do
    /// not carry.
    pub checkpoint: Option<String>,
    /// Record the run's per-warp memory-access trace (issue cycles at
    /// program-op granularity) and write it to this path as an RCCT
    /// binary, with a JSON manifest sidecar (`<path>.manifest.json`),
    /// when the run finishes. Recording is passive: simulated results
    /// are bit-identical with it on or off, and a run replayed from a
    /// checkpoint re-records identical bytes. Like
    /// [`SimOptions::checkpoint`], the path is host-local state that
    /// on-disk checkpoints do not carry.
    pub record_trace: Option<String>,
    /// Slice quantum in cycles: [`SliceRun::next_slice`] runs at most
    /// this many cycles past its starting point, then yields a
    /// [`Checkpoint`] instead of finishing. `0` — the default — runs to
    /// completion in one slice. rcc-serve preempts jobs at it; a whole
    /// run saves each boundary to [`SimOptions::checkpoint`]
    /// (`--checkpoint-every`). Host-side scheduling state: it cannot
    /// affect simulated results (pausing a run is transparent, and a
    /// replayed resume is digest-verified) and is not serialized into
    /// on-disk checkpoints.
    pub quantum: u64,
}

impl SimOptions {
    /// Default options: no checking, generous cycle budget.
    pub fn fast() -> Self {
        SimOptions {
            check_sc: false,
            sanitize: false,
            max_cycles: 200_000_000,
            fast_forward: true,
            chaos: None,
            sample_every: 0,
            trace: false,
            profile: false,
            checkpoint: None,
            record_trace: None,
            quantum: 0,
        }
    }

    /// Fast options plus full observation (sampling at `every` cycles,
    /// trace recording, self-profiling).
    pub fn observed(every: u64) -> Self {
        SimOptions {
            sample_every: every,
            trace: true,
            profile: true,
            ..SimOptions::fast()
        }
    }

    /// Checked options for tests.
    pub fn checked() -> Self {
        SimOptions {
            check_sc: true,
            ..SimOptions::fast()
        }
    }
}

impl Default for SimOptions {
    fn default() -> Self {
        SimOptions::fast()
    }
}

/// Builds the system one run of `opts` executes on, with every
/// simulated, observational and recording option armed.
fn build_system<P: Protocol>(
    protocol: &P,
    cfg: &GpuConfig,
    workload: &Workload,
    opts: &SimOptions,
) -> System<P> {
    let check = opts.check_sc && protocol.kind().supports_sc();
    let mut system = System::new(protocol, cfg, workload, check);
    system.set_fast_forward(opts.fast_forward);
    if let Some(spec) = &opts.chaos {
        system.set_chaos(spec);
    }
    if opts.sanitize {
        system.enable_sanitizer();
    }
    if opts.sample_every > 0 || opts.trace {
        system.set_observer(rcc_obs::ObsConfig {
            sample_every: opts.sample_every,
            trace: opts.trace,
            max_trace_events: 1_000_000,
        });
    }
    system.set_profiling(opts.profile);
    if opts.record_trace.is_some() {
        system.set_trace_recorder(rcc_trace::TraceRecorder::new(workload));
    }
    system
}

/// The engine surface a [`SliceRun`] drives: object safe, so one handle
/// holds a `System<P>` of whichever protocol the run was started with.
trait Machine {
    fn run_until(&mut self, target: u64) -> Result<(), SimError>;
    fn run(&mut self, max_cycles: u64) -> Result<RunMetrics, SimError>;
    fn done(&self) -> bool;
    fn cycle(&self) -> u64;
    fn state_digest(&self) -> u64;
    fn metrics(&self) -> RunMetrics;
    fn samples_taken(&self) -> u64;
    fn take_observation(&mut self) -> Option<rcc_obs::ObsReport>;
    fn take_trace_recorder(&mut self) -> Option<rcc_trace::TraceRecorder>;
}

impl<P: Protocol> Machine for System<P> {
    fn run_until(&mut self, target: u64) -> Result<(), SimError> {
        System::run_until(self, target)
    }
    fn run(&mut self, max_cycles: u64) -> Result<RunMetrics, SimError> {
        System::run(self, max_cycles)
    }
    fn done(&self) -> bool {
        System::done(self)
    }
    fn cycle(&self) -> u64 {
        System::cycle(self).raw()
    }
    fn state_digest(&self) -> u64 {
        System::state_digest(self)
    }
    fn metrics(&self) -> RunMetrics {
        System::metrics(self)
    }
    fn samples_taken(&self) -> u64 {
        System::samples_taken(self)
    }
    fn take_observation(&mut self) -> Option<rcc_obs::ObsReport> {
        System::take_observation(self)
    }
    fn take_trace_recorder(&mut self) -> Option<rcc_trace::TraceRecorder> {
        System::take_trace_recorder(self)
    }
}

/// Mid-run progress attached to a preempted slice: partial engine
/// counters and how many rows the observer has sampled so far. Reading
/// them takes nothing off the machine, so a parked run's observation
/// goes on to the end and matches the uninterrupted run's.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SliceProgress {
    /// Cycle the slice was preempted at (== the checkpoint's cycle).
    pub cycle: u64,
    /// Instructions issued so far.
    pub issued: u64,
    /// Memory operations issued so far.
    pub mem_ops: u64,
    /// Time-series rows sampled so far (0 when the run was not armed
    /// with sampling).
    pub samples: u64,
}

/// What one cooperative slice of a run produced: either the run finished
/// inside the quantum, or it was preempted at the quantum boundary and
/// hands back the checkpoint that describes the machine at that point.
#[derive(Debug)]
pub enum SliceOutcome {
    /// The run completed; full metrics, exactly as [`try_simulate`]
    /// would have returned them.
    Finished(Box<RunMetrics>),
    /// The quantum expired mid-run. `ck` describes the machine at the
    /// boundary: the live [`SliceRun`] continues from it, and
    /// [`resume_slice`] rebuilds it by replay; `progress` reports how
    /// far the run got.
    Preempted {
        /// Checkpoint at the quantum boundary (digest-verified on resume).
        ck: Box<Checkpoint>,
        /// Partial counters at the boundary.
        progress: SliceProgress,
    },
}

/// A resumable run: one live machine that executes a workload one
/// quantum ([`SimOptions::quantum`]) at a time. Between slices the
/// machine stays parked in the handle, so a preemption is a yield and
/// the next slice goes on from where the last one stopped. Replay from
/// cycle 0 ([`SliceRun::resume`]) is the recovery path: it rebuilds a
/// run from its [`Checkpoint`] when no live handle exists (a crashed
/// attempt, a restarted process).
///
/// This is the only driver of a [`System`]: a whole run is
/// [`SliceRun::finish`], and a trace-recording run records across its
/// slices (a replayed one re-records from cycle 0).
pub struct SliceRun {
    machine: Box<dyn Machine + Send>,
    kind: ProtocolKind,
    cfg: GpuConfig,
    workload: Arc<Workload>,
    opts: SimOptions,
}

impl SliceRun {
    /// Builds the machine for `workload` under `kind` at cycle 0, with
    /// the trace recorder armed when [`SimOptions::record_trace`] names
    /// a path. No cycle runs until [`SliceRun::next_slice`].
    pub fn start(
        kind: ProtocolKind,
        cfg: &GpuConfig,
        workload: impl Into<Arc<Workload>>,
        opts: &SimOptions,
    ) -> SliceRun {
        let workload = workload.into();
        let machine = with_protocol!(kind, cfg, |p| {
            Box::new(build_system(&p, cfg, &workload, opts)) as Box<dyn Machine + Send>
        });
        SliceRun {
            machine,
            kind,
            cfg: cfg.clone(),
            workload,
            opts: opts.clone(),
        }
    }

    /// Rebuilds the run `ck` was taken from: replays its input closure
    /// to the checkpointed cycle and verifies the state digest
    /// bit-for-bit. Slices go on under the checkpoint's options
    /// (`ck.opts.quantum` included).
    ///
    /// # Errors
    ///
    /// [`SimError::Checkpoint`] when the replayed state digest does not
    /// match the checkpointed one (a corrupted or inapplicable snapshot),
    /// plus anything the replayed cycles can raise.
    pub fn resume(ck: &Checkpoint) -> Result<SliceRun, SimError> {
        let mut run = SliceRun::start(ck.kind, &ck.cfg, Arc::clone(&ck.workload), &ck.opts);
        run.machine.run_until(ck.cycle)?;
        run.attest(ck, &format!("after replay to cycle {}", ck.cycle))?;
        Ok(run)
    }

    /// Proves this live run is the machine `ck` describes (same cycle,
    /// same state digest) before it goes on from `ck`.
    ///
    /// # Errors
    ///
    /// [`SimError::Checkpoint`] naming both digests on a mismatch.
    pub fn verify(&self, ck: &Checkpoint) -> Result<(), SimError> {
        self.attest(ck, "on the parked run")
    }

    /// Proves the live machine is the machine `ck` describes: same
    /// cycle, same [`System::state_digest`]. A mismatch is a typed
    /// [`SimError::Checkpoint`] naming the digests, never a silent
    /// divergence; `how` says where the machine came from.
    fn attest(&self, ck: &Checkpoint, how: &str) -> Result<(), SimError> {
        let (cycle, digest) = (self.machine.cycle(), self.machine.state_digest());
        if cycle != ck.cycle || digest != ck.state_digest {
            return Err(SimError::Checkpoint(format!(
                "state digest mismatch {how}: checkpoint has {:016x} at cycle {}, \
                 the machine has {digest:016x} at cycle {cycle}",
                ck.state_digest, ck.cycle
            )));
        }
        Ok(())
    }

    /// Runs at most one quantum past the current cycle on the live
    /// machine. Returns [`SliceOutcome::Finished`] with full metrics
    /// (verdict checks applied, recorded trace written) when the run
    /// completes inside it, or [`SliceOutcome::Preempted`] with the
    /// checkpoint at the boundary. With `quantum == 0` the run goes to
    /// completion. A finished run is spent: drop it.
    ///
    /// # Errors
    ///
    /// Everything [`try_simulate`] can return; the checked-verdict errors
    /// (SC scoreboard / sanitizer) apply only to a finished run.
    pub fn next_slice(&mut self) -> Result<SliceOutcome, SimError> {
        let (quantum, max_cycles) = (self.opts.quantum, self.opts.max_cycles);
        let boundary = self.machine.cycle().saturating_add(quantum);
        if quantum > 0 && boundary < max_cycles {
            self.machine.run_until(boundary)?;
            if !self.machine.done() {
                let partial = self.machine.metrics();
                return Ok(SliceOutcome::Preempted {
                    ck: Box::new(self.checkpoint()),
                    progress: SliceProgress {
                        cycle: partial.cycles,
                        issued: partial.core.issued,
                        mem_ops: partial.core.mem_ops,
                        samples: self.machine.samples_taken(),
                    },
                });
            }
        }
        let mut metrics = self.machine.run(max_cycles)?;
        metrics.obs = self.machine.take_observation();
        if let (Some(path), Some(rec)) =
            (&self.opts.record_trace, self.machine.take_trace_recorder())
        {
            let trace = rec.finish(&self.kind.to_string(), metrics.cycles);
            trace
                .save(path)
                .map_err(|e| SimError::Trace(e.to_string()))?;
            let manifest = format!("{path}.manifest.json");
            std::fs::write(&manifest, trace.manifest_json())
                .map_err(|e| SimError::Trace(format!("{manifest}: {e}")))?;
        }
        verify_metrics(self.kind, self.workload.name, &self.opts, &metrics)?;
        Ok(SliceOutcome::Finished(Box::new(metrics)))
    }

    /// Runs to completion, slice after slice, saving each boundary's
    /// checkpoint to [`SimOptions::checkpoint`] when a path is named.
    /// If the watchdog fires there, an auto-checkpoint of the hung state
    /// lands at `<path>.hang` and the hang dump points at it; replaying
    /// it deterministically re-reaches the deadlock.
    ///
    /// # Errors
    ///
    /// Everything [`try_simulate`] can return.
    pub fn finish(mut self) -> Result<RunMetrics, SimError> {
        loop {
            match self.next_slice() {
                Ok(SliceOutcome::Finished(metrics)) => return Ok(*metrics),
                Ok(SliceOutcome::Preempted { ck, .. }) => {
                    if let Some(path) = &self.opts.checkpoint {
                        ck.save(path)?;
                    }
                }
                Err(SimError::Deadlock(mut dump)) => {
                    if let Some(path) = &self.opts.checkpoint {
                        let hang_path = format!("{path}.hang");
                        if self.checkpoint().save(&hang_path).is_ok() {
                            dump.checkpoint = Some(hang_path);
                        }
                    }
                    return Err(SimError::Deadlock(dump));
                }
                Err(e) => return Err(e),
            }
        }
    }

    /// The checkpoint describing the machine now. The workload is
    /// shared, not copied.
    fn checkpoint(&self) -> Checkpoint {
        Checkpoint {
            kind: self.kind,
            cfg: self.cfg.clone(),
            workload: Arc::clone(&self.workload),
            opts: self.opts.clone(),
            cycle: self.machine.cycle(),
            state_digest: self.machine.state_digest(),
        }
    }
}

/// Runs at most one quantum ([`SimOptions::quantum`]) of `workload` under
/// `kind`, from the beginning of the run: the first slice of a fresh
/// [`SliceRun`], which a caller that keeps the machine live between
/// slices uses directly. With `quantum == 0` this is [`try_simulate`]
/// with a boxed result.
///
/// # Errors
///
/// Everything [`try_simulate`] can return; the checked-verdict errors
/// (SC scoreboard / sanitizer) apply only to a finished run.
pub fn try_simulate_slice(
    kind: ProtocolKind,
    cfg: &GpuConfig,
    workload: &Workload,
    opts: &SimOptions,
) -> Result<SliceOutcome, SimError> {
    SliceRun::start(kind, cfg, workload.clone(), opts).next_slice()
}

/// Continues a preempted run by replay ([`SliceRun::resume`]): rebuilds
/// the machine from the checkpoint, verifies the state digest
/// bit-for-bit, then runs at most one more quantum (the checkpoint's
/// `opts.quantum`). The slice chain is bit-identical to an uninterrupted
/// run by construction.
///
/// # Errors
///
/// [`SimError::Checkpoint`] when the replayed state digest does not match
/// the checkpointed one (a corrupted or inapplicable snapshot), plus
/// everything [`try_simulate_slice`] can return.
pub fn resume_slice(ck: &Checkpoint) -> Result<SliceOutcome, SimError> {
    SliceRun::resume(ck)?.next_slice()
}

fn verify_metrics(
    kind: ProtocolKind,
    workload: &str,
    opts: &SimOptions,
    metrics: &RunMetrics,
) -> Result<(), SimError> {
    // An unsound chaos profile (the canary) is *expected* to break SC;
    // the caller inspects the verdicts instead of the run failing.
    let chaos_sound = opts.chaos.as_ref().is_none_or(|c| c.profile.is_sound());
    let check = opts.check_sc && kind.supports_sc();
    if check && chaos_sound && metrics.sc_violations > 0 {
        return Err(SimError::ScViolation {
            kind,
            workload: workload.to_string(),
            violations: metrics.sc_violations as u64,
        });
    }
    if opts.sanitize && kind.supports_sc() && chaos_sound && metrics.sanitizer_sc != Some(true) {
        return Err(SimError::SanitizerViolation {
            kind,
            workload: workload.to_string(),
        });
    }
    Ok(())
}

/// Runs `workload` on the machine `cfg` under `kind`, returning the run's
/// metrics: [`SliceRun::finish`] on a fresh run.
///
/// # Errors
///
/// [`SimError::Deadlock`] (with a forensic hang-dump) if the watchdog
/// fires, [`SimError::CyclesExceeded`] past `max_cycles`,
/// [`SimError::ProtocolInvariant`] on completion-bookkeeping corruption,
/// [`SimError::ScViolation`] / [`SimError::SanitizerViolation`] when the
/// requested checks fail on an SC-capable protocol, and
/// [`SimError::Checkpoint`] / [`SimError::Trace`] when a requested
/// snapshot or trace cannot be written.
pub fn try_simulate(
    kind: ProtocolKind,
    cfg: &GpuConfig,
    workload: &Workload,
    opts: &SimOptions,
) -> Result<RunMetrics, SimError> {
    SliceRun::start(kind, cfg, workload.clone(), opts).finish()
}

/// Runs `workload` on the machine `cfg` under `kind`, returning the run's
/// metrics. Convenience wrapper over [`try_simulate`] for tests and
/// callers that treat any failure as fatal.
///
/// # Panics
///
/// Panics on any [`SimError`] — deadlock, cycle-budget exhaustion,
/// protocol-invariant breakage, or SC/sanitizer violations.
pub fn simulate(
    kind: ProtocolKind,
    cfg: &GpuConfig,
    workload: &Workload,
    opts: &SimOptions,
) -> RunMetrics {
    match try_simulate(kind, cfg, workload, opts) {
        Ok(metrics) => metrics,
        Err(e) => panic!("{e}"), // rcc-lint: allow(sim-panic, documented panicking wrapper; fallible callers use try_simulate)
    }
}

/// Resumes the run recorded in the checkpoint at `path`: rebuilds the
/// system from the checkpointed input closure, replays to the
/// checkpointed cycle, verifies the state digest bit-for-bit, and runs to
/// completion. The returned metrics (and observation digests) are
/// bit-identical to an uninterrupted run of the same inputs.
///
/// # Errors
///
/// [`SimError::Checkpoint`] if the file is unreadable or corrupt, or if
/// the replayed state digest does not match the checkpointed one; plus
/// anything [`try_simulate`] can return for the continued run.
pub fn resume(path: &str) -> Result<RunMetrics, SimError> {
    let ck = Checkpoint::load(path)?;
    resume_checkpoint(&ck)
}

/// [`resume`] for an already-decoded checkpoint: [`SliceRun::finish`]
/// on the replayed run.
///
/// # Errors
///
/// See [`resume`].
pub fn resume_checkpoint(ck: &Checkpoint) -> Result<RunMetrics, SimError> {
    SliceRun::resume(ck)?.finish()
}
