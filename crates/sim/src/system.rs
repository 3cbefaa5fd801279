//! The cycle-driven full system.

use crate::error::{BlockedWarp, ComponentState, HangDump, SimError};
use crate::metrics::{RunMetrics, SchedStats};
use crate::observe::Observer;
use crate::sched::EventQueue;
use rcc_chaos::{stream, ChaosSpec, PerturbPoint, Perturber, Site};
use rcc_common::addr::{LineAddr, WordAddr};
use rcc_common::config::GpuConfig;
use rcc_common::ids::{CoreId, WarpId};
use rcc_common::snap::StateDigest;
use rcc_common::stats::{MsgClass, TrafficStats};
use rcc_common::time::{Cycle, Timestamp};
use rcc_common::FxHashMap;
use rcc_core::msg::{
    flits_for, Access, AccessKind, AccessOutcome, Completion, CompletionKind, RejectReason, ReqMsg,
    ReqPayload, RespMsg, RespPayload,
};
use rcc_core::protocol::{L1Cache, L1Outbox, L1Stats, L2Bank, L2Outbox, L2Stats, Protocol};
use rcc_core::scoreboard::Scoreboard;
use rcc_dram::DramChannel;
use rcc_gpu::{Core, CoreParams, CoreStats, FencePolicy};
use rcc_mem::LineData;
use rcc_noc::{Network, NocEnergyModel};
use rcc_obs::{track, ArgValue, ObsConfig, ObsReport, SimPhase, SimProfile};
use rcc_verify::sanitizer::{SanReport, Sanitizer};
use rcc_workloads::Workload;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// What a store/atomic will write (for the scoreboard).
#[derive(Debug, Clone, Copy)]
enum PendingValue {
    Store(u64),
    Atomic(rcc_core::msg::AtomicOp),
}

type PendingVals = FxHashMap<(usize, WarpId, WordAddr), VecDeque<PendingValue>>;
type LoadLog = FxHashMap<(usize, usize, WordAddr), Vec<u64>>;

/// Self-profiling sampling stride: wall-clock phase marks are taken on
/// every N-th executed step and each charge is scaled by N (see
/// `System::charge`). Sampling is keyed off the deterministic step
/// counter, so it is reproducible and never touches simulated state.
const PROFILE_STRIDE: u64 = 16;

/// Rollover coordination (Section III-D), simulator-orchestrated: on
/// threshold crossing the cores pause, the system drains, the L2s reset
/// their timestamps, and every L1 is flushed over the network.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum RolloverState {
    Idle,
    Draining,
    Flushing { acks_outstanding: usize },
}

/// Reject-spin tracking for one core (see `Core::stall_horizon`): the
/// engine's license to sleep through cycles that provably repeat the
/// same structurally rejected issue attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum SpinState {
    /// The core's last tick did not end in a replayable reject.
    Idle,
    /// The last tick ended in a structural reject (chaos disarmed, no
    /// same-cycle completion). A controller's reject path may carry a
    /// one-time side effect — TC self-invalidates the expired line it
    /// probes — so the spin engages only if the next retry re-presents
    /// the same access with the exact same stat delta, by which point
    /// the path is pure.
    Candidate,
    /// Two consecutive retries of one access produced identical stat
    /// deltas: the reject path is in its pure steady state, every
    /// further cycle repeats it bit-exactly, and gap cycles replay as
    /// `spin_delta` copies. (Equal deltas from two *different* accesses
    /// prove nothing: two warps can each pay a one-time
    /// self-invalidation in consecutive cycles.)
    Active,
}

/// Shared bookkeeping the per-cycle closures need mutable access to.
struct Recorder {
    scoreboard: Option<Scoreboard>,
    sanitizer: Option<Sanitizer>,
    pending_vals: PendingVals,
    /// Every value each `(core, warp, word)` loaded, in program order;
    /// `None` until [`System::log_loads`] asks for it.
    load_log: Option<LoadLog>,
    epoch_base: u64,
    max_ts_seen: u64,
    completions: u64,
    /// Golden final value per word: the `(shifted_ts, seq)`-latest write
    /// each word has completed, independent of where the line currently
    /// lives (dirty lines never written back stay out of
    /// `System::memory`). This is what "final memory state" means for
    /// differential trace replay: the logical contents after every write
    /// has logically landed.
    final_vals: FxHashMap<WordAddr, (u64, u64, u64)>,
    /// First engine-invariant failure observed this cycle. Completion
    /// bookkeeping runs inside `Core::tick`'s access closure, where no
    /// `Result` can escape, so the failure is latched here and surfaced
    /// as a typed [`SimError::ProtocolInvariant`] at the end of the step.
    invariant_failure: Option<String>,
}

impl Recorder {
    fn flag_invariant(&mut self, detail: String) {
        if self.invariant_failure.is_none() {
            self.invariant_failure = Some(detail);
        }
    }

    fn note_issue(&mut self, core: usize, access: Access) {
        let key = (core, access.warp, access.addr);
        match access.kind {
            AccessKind::Store { value } => self
                .pending_vals
                .entry(key)
                .or_default()
                .push_back(PendingValue::Store(value)),
            AccessKind::Atomic { op } => self
                .pending_vals
                .entry(key)
                .or_default()
                .push_back(PendingValue::Atomic(op)),
            AccessKind::Load => {}
        }
        if let Some(san) = &mut self.sanitizer {
            san.on_issue(core, &access);
        }
    }

    /// The L1 rejected the access: forget what `note_issue` registered
    /// (the warp retries from scratch).
    fn note_reject(&mut self, core: usize, access: Access) {
        if !matches!(access.kind, AccessKind::Load) {
            self.pending_vals
                .get_mut(&(core, access.warp, access.addr))
                .and_then(VecDeque::pop_back);
        }
        if let Some(san) = &mut self.sanitizer {
            san.on_reject(core, &access);
        }
    }

    fn note_completion(&mut self, core: usize, c: &Completion) {
        self.completions += 1;
        let key = (core, c.warp, c.addr);
        let mut pop = || {
            self.pending_vals
                .get_mut(&key)
                .and_then(VecDeque::pop_front)
        };
        let store_value = match c.kind {
            CompletionKind::LoadDone { value } => {
                if let Some(log) = &mut self.load_log {
                    log.entry((core, c.warp.index(), c.addr))
                        .or_default()
                        .push(value);
                }
                None
            }
            CompletionKind::StoreDone => match pop() {
                Some(PendingValue::Store(v)) => Some(v),
                other => {
                    self.flag_invariant(format!(
                        "store completion without value: {other:?} ({key:?}, {c:?})"
                    ));
                    None
                }
            },
            CompletionKind::AtomicDone { old } => match pop() {
                Some(PendingValue::Atomic(op)) => Some(op.apply(old)),
                other => {
                    self.flag_invariant(format!(
                        "atomic completion without op: {other:?} ({key:?}, {c:?})"
                    ));
                    None
                }
            },
        };
        // Offset logical timestamps by the rollover epoch so the global
        // order is preserved across timestamp resets.
        let shifted_ts = self.epoch_base + c.ts.raw();
        self.max_ts_seen = self.max_ts_seen.max(shifted_ts);
        if let Some(value) = store_value {
            let slot = self.final_vals.entry(c.addr).or_insert((0, 0, 0));
            if (shifted_ts, c.seq) >= (slot.0, slot.1) {
                *slot = (shifted_ts, c.seq, value);
            }
        }
        if let Some(sb) = &mut self.scoreboard {
            let shifted = Completion {
                ts: Timestamp(shifted_ts),
                ..*c
            };
            sb.record(CoreId(core), &shifted, store_value);
        }
        if let Some(san) = &mut self.sanitizer {
            san.on_complete(core, c, shifted_ts);
        }
    }
}

/// A full simulated GPU running one workload under one protocol.
pub struct System<P: Protocol> {
    cfg: GpuConfig,
    workload_name: String,
    cores: Vec<Core>,
    l1s: Vec<P::L1>,
    req_net: Network<ReqMsg>,
    resp_net: Network<RespMsg>,
    l2s: Vec<P::L2>,
    l2_inbox: Vec<VecDeque<ReqMsg>>,
    l2_delay: Vec<VecDeque<(u64, RespMsg)>>,
    drams: Vec<DramChannel>,
    memory: FxHashMap<LineAddr, LineData>,
    cycle: Cycle,
    recorder: Recorder,
    traffic: TrafficStats,
    energy_model: NocEnergyModel,
    rollover: RolloverState,
    rollovers: u64,
    last_progress: u64,
    kind: rcc_core::ProtocolKind,
    /// The due policy: `true` runs each component only at its exact
    /// wake events (calendar queue, idle cycles skipped); `false` makes
    /// every component due every cycle (the reference semantics).
    ff_enabled: bool,
    /// Cycles skipped by the event-driven engine (simulated results are
    /// unaffected; this only measures how much stepping was avoided).
    skipped_cycles: u64,
    /// Number of scheduler jumps that skipped at least one cycle.
    ff_jumps: u64,
    /// Calendar queue of exact per-component wake cycles (the
    /// event-driven engine's core; see [`crate::sched`]).
    sched: EventQueue,
    /// Per-core cycle through which per-cycle stall bookkeeping has been
    /// accounted (by a real tick or a `Core::fast_forward` replay). The
    /// event-driven engine leaves un-woken cores untouched and replays
    /// the gap lazily right before the next tick, completion delivery,
    /// or digest/metrics read.
    synced_to: Vec<u64>,
    /// Per-core reject-spin tracker: once `Active`, every cycle until
    /// the core's next wake repeats the same structurally rejected
    /// retry (the fixed point of [`Core::stall_horizon`]), and gap
    /// cycles replayed for it additionally charge one structural stall
    /// (core) and one copy of [`System::spin_delta`] (L1) each.
    spin_state: Vec<SpinState>,
    /// The exact per-retry L1 stat delta observed on each core's last
    /// executed reject (e.g. RCC bumps `expired_loads` alongside
    /// `rejects` when the spinning load keeps probing a stale resident
    /// line). Only meaningful while the matching `spin_state` is not
    /// `Idle`.
    spin_delta: Vec<L1Stats>,
    /// The access each core's last executed reject re-presented; the
    /// spin engages only on two consecutive rejects of the same access.
    spin_access: Vec<Option<Access>>,
    /// Reusable outbox and network-delivery buffers (capacity persists
    /// across cycles).
    scratch_l1: L1Outbox,
    scratch_l2: L2Outbox,
    scratch_resp: Vec<(usize, RespMsg)>,
    scratch_req: Vec<(usize, ReqMsg)>,
    /// Chaos hook for the L2 delay pipes (the pipes live in the system,
    /// not in a component crate, so the system samples for them).
    chaos_pipe: Option<Perturber>,
    /// Chaos hook that bounces otherwise-issuable L1 accesses.
    chaos_access: Option<Perturber>,
    /// Total perturbations fired across every hook (shared counter).
    chaos_fired: Arc<AtomicU64>,
    /// Attached observer (sampler + trace); `None` — the default — keeps
    /// the hot path at one branch per site, like chaos.
    obs: Option<Observer>,
    /// Self-profiling wall-clock attribution; `None` disables timing.
    profile: Option<SimProfile>,
    /// Trace capture: annotates each program op with its first-issue
    /// cycle, fed from the cores' ephemeral per-tick output. `None` —
    /// the default — keeps the hot path at one branch per core tick;
    /// armed or not, simulated state never observes it (the passivity
    /// tests pin this).
    trace_rec: Option<rcc_trace::TraceRecorder>,
}

impl<P: Protocol> System<P> {
    /// Builds a system for `protocol` running `workload`.
    pub fn new(protocol: &P, cfg: &GpuConfig, workload: &Workload, check_sc: bool) -> Self {
        let kind = protocol.kind();
        let fence_policy = match kind {
            rcc_core::ProtocolKind::TcWeak => FencePolicy::DrainGwct,
            rcc_core::ProtocolKind::RccWo => FencePolicy::Drain,
            _ => FencePolicy::Free,
        };
        let weak = !matches!(
            kind.consistency(),
            rcc_core::kind::ConsistencyModel::SequentialConsistency
        );
        let warps_per_core = workload
            .programs
            .iter()
            .map(Vec::len)
            .max()
            .unwrap_or(0)
            .max(1);
        let params = if weak {
            CoreParams::weakly_ordered(warps_per_core, workload.warps_per_workgroup, fence_policy)
        } else {
            CoreParams::sequential(warps_per_core, workload.warps_per_workgroup)
        };
        let cores: Vec<Core> = (0..cfg.num_cores)
            .map(|c| {
                let programs = workload.programs.get(c).cloned().unwrap_or_default();
                Core::new(CoreId(c), params.clone(), programs)
            })
            .collect();
        let nparts = cfg.l2.num_partitions;
        System {
            workload_name: workload.name.to_string(),
            cores,
            l1s: (0..cfg.num_cores)
                .map(|c| protocol.make_l1(CoreId(c), cfg))
                .collect(),
            req_net: Network::new(&cfg.noc, cfg.num_cores, nparts, kind.num_vcs()),
            resp_net: Network::new(&cfg.noc, nparts, cfg.num_cores, kind.num_vcs()),
            l2s: (0..nparts)
                .map(|p| protocol.make_l2(rcc_common::ids::PartitionId(p), cfg))
                .collect(),
            l2_inbox: (0..nparts).map(|_| VecDeque::new()).collect(),
            l2_delay: (0..nparts).map(|_| VecDeque::new()).collect(),
            drams: (0..nparts).map(|_| DramChannel::new(&cfg.dram)).collect(),
            memory: FxHashMap::default(),
            cycle: Cycle::ZERO,
            recorder: Recorder {
                scoreboard: check_sc.then(Scoreboard::new),
                sanitizer: None,
                pending_vals: FxHashMap::default(),
                load_log: None,
                epoch_base: 0,
                max_ts_seen: 0,
                completions: 0,
                final_vals: FxHashMap::default(),
                invariant_failure: None,
            },
            traffic: TrafficStats::new(),
            energy_model: NocEnergyModel::default(),
            rollover: RolloverState::Idle,
            rollovers: 0,
            last_progress: 0,
            kind,
            cfg: cfg.clone(),
            ff_enabled: true,
            skipped_cycles: 0,
            ff_jumps: 0,
            // cores | l1s | req net | resp net | banks | inboxes |
            // pipes | drams | rollover coordinator.
            sched: EventQueue::new(2 * cfg.num_cores + 2 + 4 * nparts + 1),
            synced_to: vec![0; cfg.num_cores],
            spin_state: vec![SpinState::Idle; cfg.num_cores],
            spin_delta: vec![L1Stats::default(); cfg.num_cores],
            spin_access: vec![None; cfg.num_cores],
            scratch_l1: L1Outbox::new(),
            scratch_l2: L2Outbox::new(),
            scratch_resp: Vec::new(),
            scratch_req: Vec::new(),
            chaos_pipe: None,
            chaos_access: None,
            chaos_fired: Arc::new(AtomicU64::new(0)),
            obs: None,
            profile: None,
            trace_rec: None,
        }
    }

    /// Arms trace capture for this run: every program op gets annotated
    /// with its first-issue cycle. Call before the run starts; retrieve
    /// the capture with [`System::take_trace_recorder`] when it ends.
    pub fn set_trace_recorder(&mut self, rec: rcc_trace::TraceRecorder) {
        self.trace_rec = Some(rec);
    }

    /// Detaches the trace recorder (if one was armed), ending capture.
    pub fn take_trace_recorder(&mut self) -> Option<rcc_trace::TraceRecorder> {
        self.trace_rec.take()
    }

    /// Arms deterministic perturbation injection for this run: every
    /// timing-bearing component gets a [`Perturber`] on its own fixed rng
    /// stream (see [`rcc_chaos::stream`]), all sharing one fired-event
    /// counter (surfaced as [`RunMetrics::chaos_events`]). Call before
    /// the run starts; off by default.
    pub fn set_chaos(&mut self, spec: &ChaosSpec) {
        let fired = &self.chaos_fired;
        let hook =
            |s: u64| Box::new(Perturber::new(spec, s, Arc::clone(fired))) as Box<dyn PerturbPoint>;
        self.req_net.set_chaos(hook(stream::REQ_NET));
        self.resp_net.set_chaos(hook(stream::RESP_NET));
        for (p, dram) in self.drams.iter_mut().enumerate() {
            dram.set_chaos(hook(stream::DRAM_BASE + p as u64));
        }
        for (i, l1) in self.l1s.iter_mut().enumerate() {
            l1.set_chaos(hook(stream::L1_BASE + i as u64));
        }
        for (p, l2) in self.l2s.iter_mut().enumerate() {
            l2.set_chaos(hook(stream::L2_BASE + p as u64));
        }
        self.chaos_pipe = Some(Perturber::new(spec, stream::L2_PIPE, Arc::clone(fired)));
        self.chaos_access = Some(Perturber::new(spec, stream::L1_ACCESS, Arc::clone(fired)));
    }

    /// Perturbations fired so far (0 unless [`System::set_chaos`] armed).
    pub fn chaos_events(&self) -> u64 {
        self.chaos_fired.load(Ordering::Relaxed)
    }

    /// Attaches an observer (time-series sampler and/or trace recorder;
    /// see `rcc-obs`). Call before the run starts; off by default.
    /// Observation is passive — simulated results are bit-identical with
    /// or without it (the determinism tests enforce this).
    pub fn set_observer(&mut self, cfg: ObsConfig) {
        if cfg.is_armed() {
            self.obs = Some(Observer::new(cfg, &self.cfg));
        }
    }

    /// Enables self-profiling: per-phase wall-clock attribution of the
    /// simulator itself, surfaced as [`RunMetrics::profile`]. Purely
    /// diagnostic; never feeds back into simulation.
    pub fn set_profiling(&mut self, enabled: bool) {
        self.profile = enabled.then(SimProfile::new);
    }

    /// Detaches the observer and returns what it recorded, pushing a
    /// final tail sample for the partial interval at the current cycle.
    /// `None` if no observer was armed.
    pub fn take_observation(&mut self) -> Option<ObsReport> {
        let now = self.cycle.raw();
        let obs = self.obs.as_ref()?;
        if obs.next_sample_cycle().is_some() && !obs.sampled_at(now) {
            self.take_sample();
        }
        self.obs.take().map(Observer::into_report)
    }

    /// Time-series rows the attached observer has sampled so far (0 with
    /// no observer). Unlike [`System::take_observation`] this leaves the
    /// observer in place and adds no tail row, so a run that goes on
    /// afterwards samples exactly what an uninterrupted run does.
    pub fn samples_taken(&self) -> u64 {
        self.obs.as_ref().map_or(0, |o| o.rows() as u64)
    }

    /// Records one time-series row (and the logical-time counter tracks)
    /// at the current cycle.
    fn take_sample(&mut self) {
        // Samples read counters that reject-spin gaps replay lazily
        // (L1 `expired_loads`, core stall totals): settle them so the
        // boundary row matches an every-cycle run bit-exactly.
        self.sync_cores_to_now();
        let Some(mut obs) = self.obs.take() else {
            return;
        };
        let now = self.cycle.raw();
        let row = obs.row_mut();
        row.push(self.cores.iter().map(|c| c.stats().issued).sum());
        row.push(self.cores.iter().map(|c| c.stats().mem_ops).sum());
        row.push(self.l1s.iter().map(|c| c.stats().loads).sum());
        row.push(self.l1s.iter().map(|c| c.stats().load_hits).sum());
        row.push(self.l1s.iter().map(|c| c.stats().expired_loads).sum());
        row.push(self.l1s.iter().map(|c| c.stats().renewed_loads).sum());
        row.push(self.l2s.iter().map(|b| b.stats().gets).sum());
        row.push(self.l2s.iter().map(|b| b.stats().dram_fetches).sum());
        row.push(self.l2s.iter().map(|b| b.stats().renews_granted).sum());
        row.push(self.drams.iter().map(DramChannel::row_hits).sum());
        row.push(self.drams.iter().map(DramChannel::row_misses).sum());
        row.push(self.rollovers);
        row.push(self.l1s.iter().map(L1Cache::pending).sum::<usize>() as u64);
        row.push(self.l2s.iter().map(L2Bank::pending).sum::<usize>() as u64);
        row.push(self.req_net.in_flight() as u64);
        row.push(self.resp_net.in_flight() as u64);
        row.push(self.req_net.peak_in_flight() as u64);
        row.push(self.resp_net.peak_in_flight() as u64);
        for core in &self.cores {
            row.push(core.active_warps() as u64);
        }
        for class in MsgClass::ALL {
            row.push(self.traffic.flits(class));
        }
        obs.commit_sample(now);
        if obs.tracing() {
            // RCC tracks: each bank's logical clock as a counter track.
            for (p, l2) in self.l2s.iter().enumerate() {
                if let Some(ts) = l2.logical_time() {
                    obs.trace_mut().counter(
                        now,
                        track::L2_BASE + p as u64,
                        "logical-time",
                        ts.raw(),
                    );
                }
            }
        }
        self.obs = Some(obs);
    }

    /// Charges the wall-clock since `*mark` to `phase` and re-arms the
    /// mark (no-op when profiling is off or this step is unsampled).
    ///
    /// Profiling is *sampled*: only every [`PROFILE_STRIDE`]-th step
    /// carries marks, and each charge is scaled by the stride, so the
    /// per-phase totals stay unbiased estimates while the clock reads —
    /// which otherwise dominate short runs at ~10 per executed cycle —
    /// drop to a sixteenth. The stride is keyed off the deterministic
    /// step counter, so the sampling pattern is reproducible and never
    /// feeds simulated state.
    #[inline]
    fn charge(&mut self, mark: &mut Option<std::time::Instant>, phase: SimPhase) {
        if let Some(m) = mark {
            // rcc-lint: allow(wall-clock, self-profiling overhead measurement; never feeds simulated state)
            let now = std::time::Instant::now();
            if let Some(p) = &mut self.profile {
                p.charge(phase, now.duration_since(*m) * PROFILE_STRIDE as u32);
            }
            *m = now;
        }
    }

    /// Selects the due policy (fast-forward on by default). On, each
    /// component runs only at its exact wake events and idle cycles are
    /// skipped; off, every component is due every cycle — the reference
    /// semantics the lockstep tests compare against. Same phase body
    /// either way, and bit-identical results; off is only slower.
    pub fn set_fast_forward(&mut self, enabled: bool) {
        self.ff_enabled = enabled;
    }

    /// Cycles skipped by fast-forwarding so far.
    pub fn skipped_cycles(&self) -> u64 {
        self.skipped_cycles
    }

    /// Attaches the runtime SC sanitizer (off by default; recording adds
    /// two hash-map operations per access and the check itself runs only
    /// in [`System::sanitizer_report`]). Call before the run starts.
    pub fn enable_sanitizer(&mut self) {
        if self.recorder.sanitizer.is_none() {
            let mut san = Sanitizer::new();
            for (&line, data) in &self.memory {
                for (idx, value) in data.nonzero_words() {
                    san.seed(line.word(idx), value);
                }
            }
            self.recorder.sanitizer = Some(san);
        }
    }

    /// Runs the SC check over everything recorded so far. `None` if the
    /// sanitizer was never enabled.
    pub fn sanitizer_report(&self) -> Option<SanReport> {
        self.recorder.sanitizer.as_ref().map(Sanitizer::check)
    }

    /// Current cycle.
    pub fn cycle(&self) -> Cycle {
        self.cycle
    }

    /// Whether every warp on every core has retired.
    pub fn done(&self) -> bool {
        self.cores.iter().all(Core::done)
    }

    /// Starts logging every loaded value per `(core, warp, word)` for
    /// [`System::loads_of`] (off by default: only the litmus harness and
    /// tests read it). Call before the run starts.
    pub fn log_loads(&mut self) {
        self.recorder.load_log.get_or_insert_with(LoadLog::default);
    }

    /// All values `(core, warp)` loaded from `addr`, in program order.
    /// `None` when [`System::log_loads`] was never called, so a missing
    /// log cannot pass for a warp that loaded nothing.
    pub fn loads_of(&self, core: usize, warp: usize, addr: WordAddr) -> Option<&[u64]> {
        let log = self.recorder.load_log.as_ref()?;
        Some(log.get(&(core, warp, addr)).map_or(&[], Vec::as_slice))
    }

    /// Records one message of `class` in the traffic totals and returns
    /// its size in flits.
    fn bill(traffic: &mut TrafficStats, cfg: &GpuConfig, class: MsgClass) -> u64 {
        let flits = flits_for(class, cfg.noc.flit_bytes, cfg.noc.control_bytes);
        traffic.record(class, flits);
        flits
    }

    /// Routes one L1 outbox (drained in place so its buffers can be
    /// reused): requests onto the request network, completions into the
    /// core and recorder. `core_wake_floor` is the earliest cycle the
    /// core can still act on a completion delivered here — the current
    /// cycle for callers that precede the core phase, the next cycle for
    /// the core phase itself.
    fn process_l1_out(&mut self, core: usize, out: &mut L1Outbox, core_wake_floor: u64) {
        let injected = !out.to_l2.is_empty();
        for req in out.to_l2.drain(..) {
            let part = req.line.partition(self.cfg.l2.num_partitions);
            let flits = Self::bill(&mut self.traffic, &self.cfg, req.payload.class());
            self.req_net.inject(self.cycle, core, part, 0, flits, req);
        }
        if injected {
            self.arm_req_from_state();
        }
        if !out.completions.is_empty() && self.rollover == RolloverState::Idle {
            // A completion is an *input* to the core: replay the idle gap
            // before delivering it, and make sure the core wakes for it
            // (its own wake hint could not have foreseen this input).
            self.sync_core_through(core, self.cycle.raw().saturating_sub(1));
            self.sched.arm_min(self.comp_core(core), core_wake_floor);
        }
        for c in out.completions.drain(..) {
            if let Some(obs) = &mut self.obs {
                if obs.tracing() {
                    let name = match c.kind {
                        CompletionKind::LoadDone { .. } => "load-done",
                        CompletionKind::StoreDone => "store-done",
                        CompletionKind::AtomicDone { .. } => "atomic-done",
                    };
                    obs.trace_mut().instant(
                        self.cycle.raw(),
                        track::CORE_BASE + core as u64,
                        name,
                        vec![
                            ("warp", ArgValue::U(c.warp.index() as u64)),
                            ("addr", ArgValue::U(c.addr.0)),
                        ],
                    );
                }
            }
            self.recorder.note_completion(core, &c);
            self.cores[core].complete(self.cycle, &c);
            self.last_progress = self.cycle.raw();
        }
    }

    /// Routes one L2 outbox (drained in place): responses into the
    /// bank's delay pipe, DRAM commands into the channel, magic
    /// coherence actions straight to L1s. `wake_floor` is the earliest
    /// cycle the pipe/DRAM phases can still observe the new work (the
    /// current cycle for callers that precede those phases, the next
    /// cycle for callers that follow them).
    fn process_l2_out(&mut self, part: usize, out: &mut L2Outbox, wake_floor: u64) {
        let ready = self.cycle.raw() + self.cfg.l2.partition.latency;
        for resp in out.to_l1.drain(..) {
            if let Some(obs) = &mut self.obs {
                if obs.tracing() {
                    let tid = track::L2_BASE + part as u64;
                    let ts = self.cycle.raw();
                    match &resp.payload {
                        // A `u64::MAX` expiration is the permission-based
                        // protocols' "no lease" sentinel — only finite
                        // grants are lease events.
                        RespPayload::Data { ver, exp, .. } if exp.raw() != u64::MAX => {
                            obs.trace_mut().instant(
                                ts,
                                tid,
                                "lease",
                                vec![
                                    ("line", ArgValue::U(resp.line.0)),
                                    ("ver", ArgValue::U(ver.raw())),
                                    ("exp", ArgValue::U(exp.raw())),
                                ],
                            );
                        }
                        RespPayload::Renew { exp } => obs.trace_mut().instant(
                            ts,
                            tid,
                            "lease-renew",
                            vec![
                                ("line", ArgValue::U(resp.line.0)),
                                ("exp", ArgValue::U(exp.raw())),
                            ],
                        ),
                        _ => {}
                    }
                }
            }
            let ready = match &mut self.chaos_pipe {
                Some(chaos) => {
                    // Clamp to the partition's last queued readiness: the
                    // pipe must stay sorted so its front remains the
                    // earliest entry (both the drain loop in
                    // `execute_cycle` and the pipe's wake rely on that).
                    let floor = self.l2_delay[part].back().map_or(0, |(r, _)| *r);
                    (ready + chaos.jitter(Site::L2Pipe)).max(floor)
                }
                None => ready,
            };
            self.l2_delay[part].push_back((ready, resp));
        }
        for line in out.dram_fetch.drain(..) {
            if let Some(obs) = &mut self.obs {
                if obs.tracing() {
                    obs.trace_mut().instant(
                        self.cycle.raw(),
                        track::DRAM_BASE + part as u64,
                        "dram-fetch",
                        vec![("line", ArgValue::U(line.0))],
                    );
                }
            }
            self.drams[part].enqueue(self.cycle, line, false);
        }
        for (line, data) in out.dram_writeback.drain(..) {
            // Data is applied functionally at once; the channel models
            // the bandwidth/occupancy cost.
            Self::bill(&mut self.traffic, &self.cfg, MsgClass::Writeback);
            if let Some(obs) = &mut self.obs {
                if obs.tracing() {
                    obs.trace_mut().instant(
                        self.cycle.raw(),
                        track::DRAM_BASE + part as u64,
                        "dram-writeback",
                        vec![("line", ArgValue::U(line.0))],
                    );
                }
            }
            self.memory.insert(line, data);
            self.drams[part].enqueue(self.cycle, line, true);
        }
        for (core, line, action) in out.magic_inv.drain(..) {
            // SC-IDEAL: zero-cost, zero-latency coherence action.
            self.l1s[core.index()].magic(self.cycle, line, action);
            self.sched
                .arm_min(self.comp_l1(core.index()), self.cycle.raw());
            if self.spin_state[core.index()] == SpinState::Active {
                // The magic action mutated L1 state: the reject fixed
                // point may no longer hold.
                self.sched
                    .arm_min(self.comp_core(core.index()), self.cycle.raw());
            }
        }
        self.arm_pipe_from_state(part, wake_floor);
        self.arm_dram_from_state(part, wake_floor);
    }

    /// Total outstanding work anywhere in the memory system, summed over
    /// every component. O(components): read only by the rollover drain
    /// guard, hang dumps and state digests, never per executed step.
    fn memory_system_pending(&self) -> usize {
        self.l1s.iter().map(L1Cache::pending).sum::<usize>()
            + self.l2s.iter().map(L2Bank::pending).sum::<usize>()
            + self.l2_inbox.iter().map(VecDeque::len).sum::<usize>()
            + self.l2_delay.iter().map(VecDeque::len).sum::<usize>()
            + self.drams.iter().map(DramChannel::pending).sum::<usize>()
            + self.req_net.in_flight()
            + self.resp_net.in_flight()
    }

    // ------------------------------------------------------------------
    // Event-driven engine: calendar-queue component slots.
    //
    // Fixed id layout: cores | L1s | req net | resp net | L2 banks |
    // bank inboxes | L2 delay pipes | DRAM channels | rollover
    // coordinator. Execution order within a cycle is the fixed phase
    // order of `execute_cycle`, so the layout only has to be *stable*
    // and keep each kind's slots contiguous: a phase visits its due
    // components as one range of the queue's due set.
    // ------------------------------------------------------------------

    #[inline]
    fn comp_core(&self, i: usize) -> usize {
        i
    }

    #[inline]
    fn comp_l1(&self, i: usize) -> usize {
        self.cores.len() + i
    }

    #[inline]
    fn comp_req(&self) -> usize {
        2 * self.cores.len()
    }

    #[inline]
    fn comp_resp(&self) -> usize {
        2 * self.cores.len() + 1
    }

    #[inline]
    fn comp_bank(&self, p: usize) -> usize {
        2 * self.cores.len() + 2 + p
    }

    #[inline]
    fn comp_inbox(&self, p: usize) -> usize {
        2 * self.cores.len() + 2 + self.l2s.len() + p
    }

    #[inline]
    fn comp_pipe(&self, p: usize) -> usize {
        2 * self.cores.len() + 2 + 2 * self.l2s.len() + p
    }

    #[inline]
    fn comp_dram(&self, p: usize) -> usize {
        2 * self.cores.len() + 2 + 3 * self.l2s.len() + p
    }

    #[inline]
    fn comp_rollover(&self) -> usize {
        2 * self.cores.len() + 2 + 4 * self.l2s.len()
    }

    /// The one hint-to-slot rule: arms `comp` at a component's exact
    /// wake hint clamped to `floor` (the earliest cycle its phase can
    /// still run), or disarms it when the hint is `None`.
    fn arm_hint(&mut self, comp: usize, hint: Option<Cycle>, floor: u64) {
        match hint {
            Some(c) => self.sched.arm_at(comp, c.raw().max(floor)),
            None => self.sched.disarm(comp),
        }
    }

    /// Re-arms core `i` from its own exact wake hint.
    fn arm_core_from_state(&mut self, i: usize, floor: u64) {
        let hint = self.cores[i].next_event(self.cycle);
        self.arm_hint(self.comp_core(i), hint, floor);
    }

    /// Re-arms L1 `i` from its spontaneous-action hint.
    fn arm_l1_from_state(&mut self, i: usize, floor: u64) {
        let hint = self.l1s[i].next_event(self.cycle);
        self.arm_hint(self.comp_l1(i), hint, floor);
    }

    /// Re-arms L2 bank `p` from its spontaneous-action hint.
    fn arm_bank_from_state(&mut self, p: usize, floor: u64) {
        let hint = self.l2s[p].next_event(self.cycle);
        self.arm_hint(self.comp_bank(p), hint, floor);
    }

    /// Re-arms bank inbox `p`: a non-empty inbox serves one request per
    /// cycle, so it is due every cycle until drained.
    fn arm_inbox_from_state(&mut self, p: usize, floor: u64) {
        let comp = self.comp_inbox(p);
        if self.l2_inbox[p].is_empty() {
            self.sched.disarm(comp);
        } else {
            self.sched.arm_at(comp, floor);
        }
    }

    /// Re-arms delay pipe `p` from its front entry (the pipe is FIFO
    /// with monotone readiness, so the front is the earliest).
    fn arm_pipe_from_state(&mut self, p: usize, floor: u64) {
        let hint = self.l2_delay[p].front().map(|(ready, _)| Cycle(*ready));
        self.arm_hint(self.comp_pipe(p), hint, floor);
    }

    /// Re-arms DRAM channel `p` from the exact cycle its next queued
    /// command can issue or its next read completes.
    fn arm_dram_from_state(&mut self, p: usize, floor: u64) {
        let hint = self.drams[p].next_event();
        self.arm_hint(self.comp_dram(p), hint, floor);
    }

    /// Re-arms the request network from its earliest in-flight delivery.
    fn arm_req_from_state(&mut self) {
        let hint = self.req_net.next_event();
        self.arm_hint(self.comp_req(), hint, 0);
    }

    /// Re-arms the response network from its earliest in-flight delivery.
    fn arm_resp_from_state(&mut self) {
        let hint = self.resp_net.next_event();
        self.arm_hint(self.comp_resp(), hint, 0);
    }

    /// The rollover FSM's one guard: whether the coordinator can leave
    /// its current state — a bank crossed the threshold (`Idle`), the
    /// machine holds no outstanding access (`Draining`), or every L1
    /// acked its flush (`Flushing`).
    fn rollover_transition_due(&self) -> bool {
        match self.rollover {
            RolloverState::Idle => self.l2s.iter().any(L2Bank::needs_rollover),
            RolloverState::Draining => {
                self.cores.iter().map(Core::outstanding).sum::<usize>() == 0
                    && self.memory_system_pending() == 0
            }
            RolloverState::Flushing { acks_outstanding } => acks_outstanding == 0,
        }
    }

    /// Re-arms the rollover coordinator when its FSM would transition at
    /// the next cycle. Transitions normally happen in the same scheduled
    /// cycle as the event that enables them (phases 1–5 precede phase
    /// 6), so this only fires for the entry corner: the cycle the
    /// threshold crossing is noticed on an already-drained machine.
    fn arm_rollover_from_state(&mut self, floor: u64) {
        let comp = self.comp_rollover();
        if self.rollover_transition_due() {
            self.sched.arm_min(comp, floor);
        } else {
            self.sched.disarm(comp);
        }
    }

    /// Replays core `i`'s per-cycle stall bookkeeping through cycle
    /// `through` (inclusive). Exact by [`Core::fast_forward`]'s
    /// contract: every cycle in the gap was proven action-free (the
    /// core's wake was not due and no completion arrived).
    fn sync_core_through(&mut self, i: usize, through: u64) {
        let from = self.synced_to[i];
        if through > from {
            let gap = through - from;
            self.cores[i].fast_forward(Cycle(from), gap);
            if self.spin_state[i] == SpinState::Active && !self.cores[i].done() {
                // Every gap cycle was a skipped retry of the same
                // structurally rejected access: charge the counters the
                // per-cycle retry would have bumped.
                self.cores[i].replay_structural_stalls(gap);
                let delta = self.spin_delta[i].clone();
                self.l1s[i].replay_rejected_access(&delta, gap);
            }
            self.synced_to[i] = through;
        }
    }

    /// Brings every core's lazy stall bookkeeping up to the current
    /// cycle. Called whenever core state escapes the engine — at
    /// `run_until` exit (metrics / state digests / checkpoints read
    /// `&self`) and before building a hang dump or typed error.
    fn sync_cores_to_now(&mut self) {
        let now = self.cycle.raw();
        if self.rollover == RolloverState::Idle {
            for i in 0..self.cores.len() {
                self.sync_core_through(i, now);
            }
        } else {
            // Cores are paused mid-rollover: the gap cycles carry no
            // bookkeeping, so they are accounted as empty.
            for s in &mut self.synced_to {
                *s = (*s).max(now);
            }
        }
    }

    /// Derives every queue slot from component state, discarding any
    /// previous arms. Called at the start of every `run_until`, making
    /// the queue exact regardless of what ran before (construction, an
    /// earlier run under the other due policy, checkpoint restore).
    fn prime_sched(&mut self) {
        let now = self.cycle.raw();
        let floor = now + 1;
        self.sched.reset(now);
        self.spin_state.fill(SpinState::Idle);
        for i in 0..self.cores.len() {
            self.synced_to[i] = now;
            if self.rollover == RolloverState::Idle {
                self.arm_core_from_state(i, floor);
            }
        }
        for i in 0..self.l1s.len() {
            self.arm_l1_from_state(i, floor);
        }
        self.arm_req_from_state();
        self.arm_resp_from_state();
        for p in 0..self.l2s.len() {
            self.arm_bank_from_state(p, floor);
            self.arm_inbox_from_state(p, floor);
            self.arm_pipe_from_state(p, floor);
            self.arm_dram_from_state(p, floor);
        }
        self.arm_rollover_from_state(floor);
    }

    /// Assembles the forensic dump of the (presumed hung) machine: every
    /// component's occupancy and `next_event` horizon, every non-retired
    /// warp with the access it is stalled on, and the components that
    /// hold work but schedule no event (the prime suspects).
    pub fn hang_dump(&self) -> HangDump {
        let now = self.cycle;
        let mut components = Vec::new();
        for (i, core) in self.cores.iter().enumerate() {
            components.push(ComponentState {
                name: format!("core{i}"),
                pending: core.active_warps() as u64,
                next_event: core.next_event(now).map(Cycle::raw),
            });
        }
        for (i, l1) in self.l1s.iter().enumerate() {
            components.push(ComponentState {
                name: format!("l1-{i}"),
                pending: l1.pending() as u64,
                next_event: l1.next_event(now).map(Cycle::raw),
            });
        }
        components.push(ComponentState {
            name: "noc-req".to_string(),
            pending: self.req_net.in_flight() as u64,
            next_event: self.req_net.next_event().map(Cycle::raw),
        });
        components.push(ComponentState {
            name: "noc-resp".to_string(),
            pending: self.resp_net.in_flight() as u64,
            next_event: self.resp_net.next_event().map(Cycle::raw),
        });
        for (p, l2) in self.l2s.iter().enumerate() {
            components.push(ComponentState {
                name: format!("l2-bank{p}"),
                pending: l2.pending() as u64,
                next_event: l2.next_event(now).map(Cycle::raw),
            });
            components.push(ComponentState {
                name: format!("l2-inbox{p}"),
                pending: self.l2_inbox[p].len() as u64,
                next_event: (!self.l2_inbox[p].is_empty()).then(|| now.raw() + 1),
            });
            components.push(ComponentState {
                name: format!("l2-pipe{p}"),
                pending: self.l2_delay[p].len() as u64,
                next_event: self.l2_delay[p]
                    .front()
                    .map(|(r, _)| (*r).max(now.raw() + 1)),
            });
        }
        for (p, dram) in self.drams.iter().enumerate() {
            components.push(ComponentState {
                name: format!("dram{p}"),
                pending: dram.pending() as u64,
                next_event: dram.next_event().map(Cycle::raw),
            });
        }
        let suspects = components
            .iter()
            .filter(|c| c.pending > 0 && c.next_event.is_none())
            .map(|c| c.name.clone())
            .collect();
        let blocked_warps = self
            .cores
            .iter()
            .enumerate()
            .filter(|(_, c)| !c.done())
            .flat_map(|(i, c)| {
                c.blocked_warps()
                    .into_iter()
                    .map(move |state| BlockedWarp { core: i, state })
            })
            .collect();
        HangDump {
            protocol: self.kind.label().to_string(),
            workload: self.workload_name.clone(),
            cycle: now.raw(),
            last_progress: self.last_progress,
            watchdog_cycles: self.cfg.watchdog_cycles,
            mem_pending: self.memory_system_pending() as u64,
            rollover: format!("{:?}", self.rollover),
            state_digest: self.state_digest(),
            components,
            blocked_warps,
            suspects,
            checkpoint: None,
        }
    }

    /// Cross-component digest of the machine's full architectural state
    /// at the current cycle: cores (warp contexts), L1/L2 controllers
    /// (tag arrays, MSHRs, leases), both network directions (in-flight
    /// packets), bank inboxes and delay pipes, DRAM channels, backing
    /// memory, the rollover FSM, and the chaos PRNG streams. Two systems
    /// built from the same inputs and advanced to the same cycle produce
    /// the same digest — checkpoint restore verifies this before
    /// continuing a run.
    pub fn state_digest(&self) -> u64 {
        let mut d = StateDigest::new();
        d.write_str(self.kind.label());
        d.write_str(&self.workload_name);
        d.write_u64(self.cycle.raw());
        for core in &self.cores {
            core.digest_state(&mut d);
        }
        for l1 in &self.l1s {
            l1.digest_state(&mut d);
        }
        for l2 in &self.l2s {
            l2.digest_state(&mut d);
        }
        self.req_net.digest_state(&mut d);
        self.resp_net.digest_state(&mut d);
        for inbox in &self.l2_inbox {
            d.write_debug(inbox);
        }
        for delay in &self.l2_delay {
            d.write_debug(delay);
        }
        for dram in &self.drams {
            dram.digest_state(&mut d);
        }
        // Backing memory is a hash map: fold lines order-independently
        // so the digest reflects contents, not iteration order.
        let mut mem_acc: u64 = 0;
        for (line, data) in &self.memory {
            let mut e = StateDigest::new();
            e.write_u64(line.0);
            data.digest_state(&mut e);
            mem_acc ^= e.finish();
        }
        d.write_u64(mem_acc);
        d.write_debug(&self.rollover);
        d.write_u64(self.rollovers);
        d.write_u64(self.last_progress);
        d.write_u64(self.memory_system_pending() as u64);
        d.write_u64(self.recorder.epoch_base);
        d.write_u64(self.recorder.max_ts_seen);
        d.write_u64(self.recorder.completions);
        if let Some(p) = &self.chaos_pipe {
            d.write_debug(p);
        }
        if let Some(p) = &self.chaos_access {
            d.write_debug(p);
        }
        d.write_u64(self.chaos_fired.load(Ordering::Relaxed));
        d.finish()
    }

    /// Test-only corruption hook: drops every pending store/atomic value
    /// the recorder is tracking, so the next store or atomic completion
    /// trips the engine's completion invariant. Exists to prove the
    /// typed-error path (`SimError::ProtocolInvariant`) end to end.
    #[doc(hidden)]
    pub fn corrupt_pending_values_for_test(&mut self) {
        self.recorder.pending_vals.clear();
    }

    /// Takes the rollover FSM's transition if its guard holds, and
    /// reports whether it did.
    fn advance_rollover(&mut self) -> bool {
        if !self.rollover_transition_due() {
            return false;
        }
        match self.rollover {
            RolloverState::Idle => {
                self.rollover = RolloverState::Draining;
                // Cores pause from this cycle on: settle their lazy
                // bookkeeping (through the last cycle they ran) and park
                // their wake slots until the rollover completes.
                let now = self.cycle.raw();
                for i in 0..self.cores.len() {
                    self.sync_core_through(i, now.saturating_sub(1));
                    self.synced_to[i] = now;
                    self.sched.disarm(self.comp_core(i));
                }
                if let Some(obs) = &mut self.obs {
                    if obs.tracing() {
                        obs.trace_mut()
                            .begin(self.cycle.raw(), track::SYSTEM, "rollover");
                    }
                }
            }
            RolloverState::Draining => {
                rcc_common::trace!("rollover: system drained at {}, resetting", self.cycle);
                for (p, l2) in self.l2s.iter_mut().enumerate() {
                    if let Some(obs) = &mut self.obs {
                        if obs.tracing() {
                            let mnow = l2.logical_time().map_or(0, |t| t.raw());
                            obs.trace_mut().instant(
                                self.cycle.raw(),
                                track::L2_BASE + p as u64,
                                "rollover-reset",
                                vec![("mnow", ArgValue::U(mnow))],
                            );
                        }
                    }
                    l2.rollover_reset();
                }
                // Partition 0 flushes every L1 over the response network
                // (billed as Flush traffic).
                for core in 0..self.cores.len() {
                    let resp = RespMsg {
                        dst: CoreId(core),
                        line: LineAddr(0),
                        id: rcc_core::msg::ReqId(0),
                        payload: RespPayload::Flush,
                    };
                    let flits = Self::bill(&mut self.traffic, &self.cfg, MsgClass::Flush);
                    self.resp_net.inject(self.cycle, 0, core, 1, flits, resp);
                }
                self.rollover = RolloverState::Flushing {
                    acks_outstanding: self.cores.len(),
                };
                self.last_progress = self.cycle.raw();
                self.arm_resp_from_state();
            }
            RolloverState::Flushing { .. } => {
                self.rollovers += 1;
                self.recorder.epoch_base = self.recorder.max_ts_seen + 1;
                self.rollover = RolloverState::Idle;
                self.last_progress = self.cycle.raw();
                // Cores resume *this* cycle (the core phase runs after
                // this one): their first tick covers the current cycle's
                // bookkeeping itself.
                let now = self.cycle.raw();
                for i in 0..self.cores.len() {
                    self.synced_to[i] = now.saturating_sub(1);
                    if !self.cores[i].done() {
                        self.sched.arm_min(self.comp_core(i), now);
                    }
                }
                if let Some(obs) = &mut self.obs {
                    if obs.tracing() {
                        obs.trace_mut().end(self.cycle.raw(), track::SYSTEM);
                    }
                }
            }
        }
        true
    }

    /// The one phase body: executes cycle `self.cycle` (already set by
    /// the run loop). Only *due* components run, in a fixed phase order
    /// (and fixed component order within each phase); each consumes its
    /// due wake and re-arms from fresh component state. A due wake is
    /// always consumed even when its action is skipped (e.g. a core wake
    /// while a rollover pauses issue) so the queue never reports a wake
    /// at or before the current cycle. Under the every-cycle due policy
    /// (fast-forward off) every component is due, so this runs the whole
    /// machine — the reference semantics the lockstep tests compare the
    /// event-driven policy against.
    ///
    /// # Errors
    ///
    /// The deadlock and invariant errors of [`System::run`].
    fn execute_cycle(&mut self) -> Result<(), SimError> {
        let cycle = self.cycle;
        let n = cycle.raw();
        self.sched.advance_to(n);
        if !self.ff_enabled {
            self.sched.due_all();
        }
        let mut mark = None;
        if let Some(p) = &mut self.profile {
            p.steps += 1;
            if p.steps.is_multiple_of(PROFILE_STRIDE) {
                // rcc-lint: allow(wall-clock, self-profiling phase mark; never feeds simulated state)
                mark = Some(std::time::Instant::now());
            }
        }

        // 1. Response network → L1s.
        if self.sched.take_due(self.comp_resp()) {
            let mut arrived = std::mem::take(&mut self.scratch_resp);
            self.resp_net.deliver(cycle, &mut arrived);
            for (dst, resp) in arrived.drain(..) {
                let mut out = std::mem::take(&mut self.scratch_l1);
                self.l1s[dst].handle_resp(cycle, resp, &mut out);
                self.process_l1_out(dst, &mut out, n);
                if self.spin_state[dst] == SpinState::Active {
                    // Any response can change L1 state (free an MSHR,
                    // resolve a transient line) and break the reject
                    // fixed point even when it completes nothing — make
                    // sure the spinning core re-evaluates this cycle.
                    self.sched.arm_min(self.comp_core(dst), n);
                }
                self.scratch_l1 = out;
                // Min-arm, not set-arm: the L1's own tick runs later in
                // this same cycle (phase 7), and `next_event(n)` reports
                // the wake *after* it — a set-arm here would wipe a
                // due-at-`n` wake (e.g. the RCC livelock bump at an
                // interval boundary) before it executes. Responses can
                // only move the spontaneous horizon earlier (a new lease
                // expiry); an early wake is a wasted tick, never a skip.
                if let Some(c) = self.l1s[dst].next_event(cycle) {
                    self.sched.arm_min(self.comp_l1(dst), c.raw().max(n));
                }
            }
            self.scratch_resp = arrived;
            self.arm_resp_from_state();
        }
        self.charge(&mut mark, SimPhase::L1);

        // 2. Request network → bank inboxes (flush acks are intercepted
        //    by the rollover coordinator).
        if self.sched.take_due(self.comp_req()) {
            let mut arrived = std::mem::take(&mut self.scratch_req);
            self.req_net.deliver(cycle, &mut arrived);
            for (dst, req) in arrived.drain(..) {
                if matches!(req.payload, ReqPayload::FlushAck) {
                    if let RolloverState::Flushing { acks_outstanding } = &mut self.rollover {
                        *acks_outstanding -= 1;
                    }
                    continue;
                }
                self.l2_inbox[dst].push_back(req);
                self.sched.arm_min(self.comp_inbox(dst), n);
            }
            self.scratch_req = arrived;
            self.arm_req_from_state();
        }
        self.charge(&mut mark, SimPhase::Noc);

        // 3. L2 banks: tick, then serve one request per cycle. Each
        //    phase visits only its due components, in ascending order,
        //    re-reading the live due set after each one.
        let nparts = self.l2s.len();
        let (banks, inboxes) = (self.comp_bank(0), self.comp_inbox(0));
        let mut from = 0;
        while let Some(p) = self.sched.first_due_pair(banks, inboxes, from, nparts) {
            from = p + 1;
            let bank_due = self.sched.take_due(banks + p);
            let inbox_due = self.sched.take_due(inboxes + p);
            let mut out = std::mem::take(&mut self.scratch_l2);
            if bank_due {
                self.l2s[p].tick(cycle, &mut out);
                if !out.is_empty() {
                    self.process_l2_out(p, &mut out, n);
                }
            }
            if inbox_due {
                if let Some(req) = self.l2_inbox[p].pop_front() {
                    match self.l2s[p].handle_req(cycle, req, &mut out) {
                        Ok(()) => self.process_l2_out(p, &mut out, n),
                        Err(req) => {
                            out.clear(); // discard any partial output
                            self.l2_inbox[p].push_front(req);
                        }
                    }
                }
                self.arm_inbox_from_state(p, n + 1);
            }
            self.arm_bank_from_state(p, n + 1);
            self.scratch_l2 = out;
        }
        self.charge(&mut mark, SimPhase::L2);

        // 4. L2 delay pipes → response network.
        let mut resp_injected = false;
        let pipes = self.comp_pipe(0);
        let mut from = pipes;
        while let Some(slot) = self.sched.first_due(from, pipes + nparts) {
            from = slot + 1;
            self.sched.take_due(slot);
            let p = slot - pipes;
            while let Some((ready, _)) = self.l2_delay[p].front() {
                if *ready > n {
                    break;
                }
                let Some((_, resp)) = self.l2_delay[p].pop_front() else {
                    break;
                };
                let dst = resp.dst.index();
                let flits = Self::bill(&mut self.traffic, &self.cfg, resp.payload.class());
                self.resp_net.inject(cycle, p, dst, 1, flits, resp);
                resp_injected = true;
            }
            self.arm_pipe_from_state(p, n + 1);
        }
        if resp_injected {
            self.arm_resp_from_state();
        }
        self.charge(&mut mark, SimPhase::Noc);

        // 5. DRAM.
        let drams = self.comp_dram(0);
        let mut from = drams;
        while let Some(slot) = self.sched.first_due(from, drams + nparts) {
            from = slot + 1;
            self.sched.take_due(slot);
            let p = slot - drams;
            let lines = self.drams[p].tick(cycle);
            let touched = !lines.is_empty();
            for line in lines {
                let data = self.memory.get(&line).cloned().unwrap_or_default();
                let mut out = std::mem::take(&mut self.scratch_l2);
                self.l2s[p].handle_dram(cycle, line, data, &mut out);
                self.process_l2_out(p, &mut out, n + 1);
                self.scratch_l2 = out;
            }
            if touched {
                self.arm_bank_from_state(p, n + 1);
            }
            self.arm_dram_from_state(p, n + 1);
        }
        self.charge(&mut mark, SimPhase::Dram);

        // 6. Rollover coordination (every scheduled cycle: transitions
        //    are enabled by same-cycle events from the phases above, and
        //    the coordinator's own queue slot covers the one case where
        //    a transition is due with nothing else armed; that wake, if
        //    due, is consumed here). Only a transition can make the next
        //    one due, so only a transition re-arms the slot.
        self.sched.take_due(self.comp_rollover());
        if self.advance_rollover() {
            self.arm_rollover_from_state(n + 1);
        }
        self.charge(&mut mark, SimPhase::Rollover);

        // 7. Cores + L1 ticks (paused while a rollover is in progress).
        let issuing = self.rollover == RolloverState::Idle;
        let (ncores, l1s, cores) = (self.cores.len(), self.comp_l1(0), self.comp_core(0));
        let mut from = 0;
        while let Some(i) = self.sched.first_due_pair(l1s, cores, from, ncores) {
            from = i + 1;
            let l1_due = self.sched.take_due(l1s + i);
            let core_due = self.sched.take_due(cores + i);
            let mut out = std::mem::take(&mut self.scratch_l1);
            if l1_due {
                self.l1s[i].tick(cycle, &mut out);
            }
            let mut ticked = false;
            if core_due && issuing && !self.cores[i].done() {
                // Replay the stall bookkeeping of the skipped gap,
                // then run the real tick for this cycle.
                self.sync_core_through(i, n.saturating_sub(1));
                let l1 = &mut self.l1s[i];
                let recorder = &mut self.recorder;
                let chaos = &mut self.chaos_access;
                let mut issued_any = false;
                let mut reject_delta: Option<(Access, L1Stats)> = None;
                let core_out = self.cores[i].tick(cycle, |access| {
                    if let Some(c) = chaos.as_mut() {
                        if c.fires(Site::L1Access) {
                            // Bounce before the access reaches the L1
                            // (or the recorder): the warp retries next
                            // cycle, modelling a variable L1 service
                            // latency.
                            return AccessOutcome::Reject(RejectReason::ChaosStall);
                        }
                    }
                    recorder.note_issue(i, access);
                    let stats_before = l1.stats().clone();
                    let outcome = l1.access(cycle, access, &mut out);
                    match &outcome {
                        AccessOutcome::Done(c) => {
                            recorder.note_completion(i, c);
                            issued_any = true;
                        }
                        AccessOutcome::Pending => issued_any = true,
                        AccessOutcome::Reject(_) => {
                            // The access never started; forget what
                            // the recorder registered for it.
                            recorder.note_reject(i, access);
                            reject_delta = Some((access, l1.stats().delta_since(&stats_before)));
                        }
                    }
                    outcome
                });
                // A structural reject with chaos disarmed is a fixed
                // point (see `Core::stall_horizon`): the retry can be
                // slept through and replayed — unless a completion
                // delivered below already changed warp state. Spin
                // engages on the second consecutive retry of the same
                // access with an identical stat delta (the first may
                // carry one-time side effects like TC's expiry
                // self-invalidation).
                self.spin_state[i] = match reject_delta {
                    Some((access, delta))
                        if self.chaos_access.is_none() && out.completions.is_empty() =>
                    {
                        if self.spin_state[i] != SpinState::Idle
                            && self.spin_access[i] == Some(access)
                            && self.spin_delta[i] == delta
                        {
                            SpinState::Active
                        } else {
                            self.spin_access[i] = Some(access);
                            self.spin_delta[i] = delta;
                            SpinState::Candidate
                        }
                    }
                    _ => SpinState::Idle,
                };
                if issued_any {
                    self.last_progress = n;
                }
                // Trace capture: one branch when unarmed, and the
                // tap reads only the tick's ephemeral output, so
                // recording cannot perturb the simulated machine.
                if let Some(tr) = &mut self.trace_rec {
                    if let Some((w, pc)) = core_out.issued_op {
                        tr.note_issue(i, w, pc, n);
                    }
                }
                for _warp in core_out.fences_retired {
                    // RCC-WO: joining the views is a core-level action.
                    self.l1s[i].fence();
                    self.last_progress = n;
                }
                self.synced_to[i] = n;
                ticked = true;
            }
            self.process_l1_out(i, &mut out, n + 1);
            if ticked {
                // After the outbox: a synchronous completion's touch arm
                // must be superseded by the post-tick exact hint.
                if self.spin_state[i] == SpinState::Active {
                    // Reject-spin: sleep to the earliest cycle the core
                    // could act differently; the skipped retries are
                    // replayed on the next sync. External inputs
                    // (responses, completions, magic actions) touch-arm
                    // the core earlier and re-evaluate.
                    let hint = self.cores[i].stall_horizon(cycle);
                    self.arm_hint(self.comp_core(i), hint, n + 1);
                } else {
                    self.arm_core_from_state(i, n + 1);
                }
            }
            self.arm_l1_from_state(i, n + 1);
            self.scratch_l1 = out;
        }
        self.charge(&mut mark, SimPhase::Core);

        // 8. Observation (sample boundaries are always scheduled because
        //    the engine caps its jumps at the next boundary).
        if let Some(obs) = &self.obs {
            if obs.sample_due(n) {
                self.take_sample();
            }
            self.charge(&mut mark, SimPhase::Sample);
        }

        if let Some(detail) = self.recorder.invariant_failure.take() {
            self.sync_cores_to_now();
            return Err(SimError::ProtocolInvariant {
                kind: self.kind,
                workload: self.workload_name.clone(),
                cycle: n,
                detail,
            });
        }

        // Watchdog: no forward progress for a full threshold window is a
        // deadlock. Emit the forensic dump instead of aborting.
        if n - self.last_progress > self.cfg.watchdog_cycles {
            self.sync_cores_to_now();
            return Err(SimError::Deadlock(Box::new(self.hang_dump())));
        }
        Ok(())
    }

    /// Advances the system until it finishes or reaches cycle `target`
    /// (whichever comes first).
    ///
    /// The run loop picks the next cycle by the due policy: with
    /// fast-forward on it pops the earliest armed wake and jumps straight
    /// to it (gap cycles are proven action-free by the components' exact
    /// wake events, and per-core stall bookkeeping over gaps is replayed
    /// lazily by [`Core::fast_forward`]); with it off it advances one
    /// cycle and makes every component due. Jumps are capped at `target`,
    /// the watchdog deadline, and the next sample boundary, so those
    /// cycles are executed exactly — the checkpoint writer relies on that
    /// to snapshot bit-reproducible states.
    ///
    /// # Errors
    ///
    /// Propagates any [`SimError`] from the executed cycles (see
    /// [`System::run`]).
    pub fn run_until(&mut self, target: u64) -> Result<(), SimError> {
        // Derive every wake from component state: cheap, and makes the
        // engine correct regardless of what ran before (construction, a
        // run under the other due policy, checkpoint restore).
        self.prime_sched();
        while !self.done() && self.cycle.raw() < target {
            // This mark covers the queue pop + jump that precede the
            // cycle; it samples the same steps as `execute_cycle` (which
            // increments the counter this predicate anticipates).
            let mut mark = None;
            if let Some(p) = &self.profile {
                if (p.steps + 1).is_multiple_of(PROFILE_STRIDE) {
                    // rcc-lint: allow(wall-clock, self-profiling phase mark; never feeds simulated state)
                    mark = Some(std::time::Instant::now());
                }
            }
            let now = self.cycle.raw();
            let next = if self.ff_enabled {
                // The watchdog must observe the threshold crossing at
                // the exact cycle it happens.
                let deadline = self.last_progress + self.cfg.watchdog_cycles + 1;
                let mut next = self.sched.next_wake().map_or(deadline, |w| w.min(deadline));
                next = next.min(target);
                if let Some(boundary) = self.obs.as_ref().and_then(Observer::next_sample_cycle) {
                    // Never jump over a sample boundary: the sampler must
                    // read state exactly there.
                    if boundary > now {
                        next = next.min(boundary);
                    }
                }
                debug_assert!(next > now, "scheduled cycle must advance past {now}");
                next.max(now + 1)
            } else {
                now + 1
            };
            let skipped = next - now - 1;
            if skipped > 0 {
                self.skipped_cycles += skipped;
                self.ff_jumps += 1;
            }
            self.cycle = Cycle(next);
            self.charge(&mut mark, SimPhase::FastForward);
            self.execute_cycle()?;
        }
        // Core state escapes here (metrics, digests, checkpoints): settle
        // the lazy bookkeeping.
        self.sync_cores_to_now();
        Ok(())
    }

    /// Runs to completion (or `max_cycles`) and returns the metrics.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Deadlock`] (with a forensic [`HangDump`]) when
    /// the watchdog detects no forward progress,
    /// [`SimError::ProtocolInvariant`] when completion bookkeeping broke
    /// an engine invariant, or [`SimError::CyclesExceeded`] when the
    /// budget runs out before every warp retires. The system is left
    /// intact either way, so callers can still read metrics or dump
    /// state.
    pub fn run(&mut self, max_cycles: u64) -> Result<RunMetrics, SimError> {
        self.run_until(max_cycles)?;
        if !self.done() {
            return Err(SimError::CyclesExceeded {
                kind: self.kind,
                workload: self.workload_name.clone(),
                max_cycles,
            });
        }
        Ok(self.metrics())
    }

    /// Collects the metrics of the run so far.
    pub fn metrics(&self) -> RunMetrics {
        let mut core = CoreStats::default();
        for c in &self.cores {
            core.merge(c.stats());
        }
        let mut l1 = L1Stats::default();
        for c in &self.l1s {
            let s = c.stats();
            l1.loads += s.loads;
            l1.load_hits += s.load_hits;
            l1.expired_loads += s.expired_loads;
            l1.renewed_loads += s.renewed_loads;
            l1.stores += s.stores;
            l1.atomics += s.atomics;
            l1.self_invalidations += s.self_invalidations;
            l1.rejects += s.rejects;
            l1.invs_received += s.invs_received;
        }
        let mut l2 = L2Stats::default();
        for b in &self.l2s {
            let s = b.stats();
            l2.gets += s.gets;
            l2.renews_granted += s.renews_granted;
            l2.writes += s.writes;
            l2.atomics += s.atomics;
            l2.dram_fetches += s.dram_fetches;
            l2.writebacks += s.writebacks;
            l2.invs_sent += s.invs_sent;
            l2.stalled_stores += s.stalled_stores;
            l2.store_stall_cycles += s.store_stall_cycles;
        }
        let ports = self.cfg.num_cores + self.cfg.l2.num_partitions;
        // Dynamic energy scales with flit×hops (= flits on the crossbar;
        // larger on the mesh).
        let flit_hops = self.req_net.flit_hops() + self.resp_net.flit_hops();
        let energy =
            self.energy_model
                .energy(flit_hops, self.cycle.raw(), ports, self.kind.num_vcs());
        let dram_reads: u64 = self.drams.iter().map(DramChannel::reads).sum();
        let dram_writes: u64 = self.drams.iter().map(DramChannel::writes).sum();
        let lat_sum: f64 = self
            .drams
            .iter()
            .map(|d| d.mean_read_latency() * d.reads() as f64)
            .sum();
        let sc_violations = self.recorder.scoreboard.as_ref().map_or(0, |sb| {
            sb.check().len() + sb.program_order_violations().len()
        });
        RunMetrics {
            kind: self.kind,
            workload: self.workload_name.clone(),
            cycles: self.cycle.raw(),
            core,
            l1,
            l2,
            traffic: self.traffic.clone(),
            energy,
            dram_reads,
            dram_writes,
            dram_read_latency: if dram_reads == 0 {
                0.0
            } else {
                lat_sum / dram_reads as f64
            },
            sc_violations,
            sanitizer_sc: self.recorder.sanitizer.as_ref().map(|san| san.check().sc),
            rollovers: self.rollovers,
            chaos_events: self.chaos_fired.load(Ordering::Relaxed),
            skipped_cycles: self.skipped_cycles,
            ff_jumps: self.ff_jumps,
            sched: SchedStats {
                events_posted: self.sched.posted(),
                events_cancelled: self.sched.cancelled(),
                queue_depth_p50: self.sched.depth_p50(),
                queue_depth_max: self.sched.depth_max(),
            },
            profile: self.profile.clone(),
            obs: None,
            final_mem_digest: self.final_mem_digest(),
        }
    }

    /// Logical final memory: the winning write per word, ordered by
    /// `(timestamp, sequence)` across the whole run — independent of
    /// which cache a dirty line happens to live in when the run ends.
    /// This is what differential trace replay compares across protocols.
    pub fn final_memory(&self) -> Vec<(WordAddr, u64)> {
        let mut words: Vec<(WordAddr, u64)> = self
            .recorder
            .final_vals
            .iter()
            .map(|(&addr, &(_, _, value))| (addr, value))
            .collect();
        words.sort_unstable_by_key(|&(addr, _)| addr);
        words
    }

    /// FNV digest of [`Self::final_memory`] (order-independent by
    /// construction: the fold runs over the sorted word list).
    pub fn final_mem_digest(&self) -> u64 {
        RunMetrics::digest_words(&self.final_memory())
    }
}
