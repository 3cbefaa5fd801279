//! Bounded exhaustive exploration of the protocol state space.
//!
//! The explorer drives the *untimed* controller FSMs from `rcc-core`
//! directly: it owns the L1s, one L2 bank, a magic DRAM array, and
//! per-core message queues, and treats every possible next step — issue
//! an access, deliver the next request or response, complete any
//! outstanding DRAM fetch (in any order), or advance time by one quantum
//! — as a branch point. A DFS over the resulting tree with a visited-state
//! set yields every reachable protocol state for a small program, which is
//! exactly the model-checking configuration the paper's Table V census
//! talks about (2–3 cores, 1–2 addresses, bounded reorderings).
//!
//! Network ordering model: per-core request and response channels are
//! FIFO (matching the simulator's virtual channels), while DRAM returns
//! fills in any order. Cross-core interleavings are completely free. This
//! keeps the state space finite while still exposing every reordering the
//! timed simulator could produce.
//!
//! Checked invariants:
//!
//! * **value coherence** — every load returns the value of the latest
//!   write strictly before it in `(ts, seq)` order, validated
//!   incrementally both when reads complete and (retroactively) when
//!   writes complete, against a golden memory;
//! * **write-slot uniqueness** — at most one writer per logical instant
//!   per address (Tardis/RCC rule 3 makes `(ts, seq)` slots unique);
//! * **program order** — completion timestamps are non-decreasing per
//!   core;
//! * **clock monotonicity** — per-core `now` and the bank's `mnow` never
//!   run backwards (via [`Hooks`]);
//! * **lease soundness** — data grants satisfy `exp ≥ ver`, and loads
//!   never observe a line beyond its lease expiration (via [`Hooks`]);
//! * **no stuck states** — if work remains but no event can change the
//!   state, that is a deadlock.
//!
//! Counterexamples are reported as event traces and greedily shrunk by
//! replay: drop one event at a time, keep the shorter trace whenever the
//! same class of violation still fires.

use rcc_common::addr::{LineAddr, WordAddr};
use rcc_common::config::GpuConfig;
use rcc_common::ids::{CoreId, PartitionId, WarpId};
use rcc_common::time::{Cycle, Timestamp};
use rcc_common::FxHashSet;
use rcc_core::msg::{
    Access, AccessKind, AccessOutcome, AtomicOp, Completion, CompletionKind, ReqMsg, RespMsg,
    RespPayload,
};
use rcc_core::protocol::{L1Cache, L1Outbox, L2Bank, L2Outbox, Protocol};
use rcc_core::rcc::{L1State, L2State, RccL1, RccL2, RccProtocol};
use rcc_mem::LineData;
use std::collections::hash_map::DefaultHasher;
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::fmt;
use std::fmt::Write as _;
use std::hash::{Hash, Hasher};
use std::mem;

/// One operation of a core's straight-line verification program.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// Read one word.
    Load(WordAddr),
    /// Write one word.
    Store(WordAddr, u64),
    /// Atomic read-modify-write.
    Atomic(WordAddr, AtomicOp),
    /// Memory fence (RCC-WO joins views; no-op for SC protocols).
    Fence,
}

/// What to explore: one straight-line program per core plus exploration
/// bounds.
#[derive(Debug, Clone)]
pub struct Spec {
    /// Per-core programs; `programs.len()` is the core count.
    pub programs: Vec<Vec<Op>>,
    /// Initial memory values (addresses not listed read as zero).
    pub init: Vec<(WordAddr, u64)>,
    /// How many times the explorer may advance time along one path
    /// (bounds lease-expiry branching for the physically-timed
    /// protocols; RCC/MESI need none).
    pub max_time_advances: u32,
    /// Cycles per time advance.
    pub tick_quantum: u64,
    /// Abort (reporting truncation) after this many distinct states.
    pub max_states: usize,
    /// Check data values against the golden memory. Disable for
    /// protocols that are intentionally not sequentially consistent
    /// (TC-Weak), where only deadlock-freedom and structural invariants
    /// are meaningful.
    pub check_values: bool,
}

impl Spec {
    /// A spec with the default bounds for logical-time protocols (no
    /// time advances needed) and value checking on.
    pub fn new(programs: Vec<Vec<Op>>) -> Self {
        Spec {
            programs,
            init: Vec::new(),
            max_time_advances: 0,
            tick_quantum: 1,
            max_states: 1_000_000,
            check_values: true,
        }
    }
}

/// One branch-point choice during exploration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Event {
    /// Core issues its next program operation.
    Issue(usize),
    /// L2 consumes the next request from this core's FIFO channel.
    DeliverReq(usize),
    /// Core consumes the next response from its FIFO channel.
    DeliverResp(usize),
    /// DRAM completes the i-th outstanding fetch (any order).
    DramFill(usize),
    /// Time advances by one quantum; all controllers tick.
    Advance,
}

impl Event {
    /// Whether this event delivers a message (used for the
    /// "counterexample within N messages" metric).
    fn is_message(self) -> bool {
        matches!(
            self,
            Event::DeliverReq(_) | Event::DeliverResp(_) | Event::DramFill(_)
        )
    }
}

/// An invariant violation found during exploration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Violation {
    /// A load observed a value other than the latest write before it.
    Coherence(String),
    /// Two writes to the same address claimed the same `(ts, seq)` slot.
    WriteSlotClash(String),
    /// A core's completion timestamps ran backwards.
    ProgramOrder(String),
    /// A controller clock (L1 `now` or L2 `mnow`) ran backwards.
    ClockRegression(String),
    /// A lease invariant failed (grant with `exp < ver`, or a load
    /// observed beyond its lease).
    Lease(String),
    /// Work remains but no event can change the state.
    Deadlock(String),
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Violation::Coherence(s) => write!(f, "value coherence: {s}"),
            Violation::WriteSlotClash(s) => write!(f, "write-slot clash: {s}"),
            Violation::ProgramOrder(s) => write!(f, "program order: {s}"),
            Violation::ClockRegression(s) => write!(f, "clock regression: {s}"),
            Violation::Lease(s) => write!(f, "lease soundness: {s}"),
            Violation::Deadlock(s) => write!(f, "deadlock: {s}"),
        }
    }
}

/// A violating execution: the (shrunk) event trace that reproduces it.
#[derive(Debug, Clone)]
pub struct Counterexample {
    /// The violation the trace ends in.
    pub violation: Violation,
    /// Minimal event trace (greedy delta-debugging by replay).
    pub events: Vec<Event>,
    /// Number of message deliveries in the trace.
    pub messages: usize,
    /// Human-readable rendering of the trace.
    pub rendered: Vec<String>,
}

/// Exploration summary.
#[derive(Debug, Default)]
pub struct Report {
    /// Distinct states visited.
    pub states: usize,
    /// State transitions applied (including revisits).
    pub events_applied: usize,
    /// Complete executions reached (all programs retired, queues empty).
    pub terminal_paths: usize,
    /// True if exploration stopped at `max_states` before finishing.
    pub truncated: bool,
    /// L1 state names observed across all visited states (census).
    pub l1_states_seen: BTreeSet<&'static str>,
    /// L2 state names observed across all visited states (census).
    pub l2_states_seen: BTreeSet<&'static str>,
    /// First violation found, with its shrunk trace.
    pub counterexample: Option<Counterexample>,
    /// Transition-visit census: (controller, state-before, event) →
    /// times applied. Controllers are `"l1"`/`"l2"`; states come from the
    /// census probes (`"?"` when the protocol has no probe); events are
    /// `msg.rs` variant names. `rcc-verify --transitions` serializes this
    /// for the `rcc-lint` static-vs-dynamic coverage diff.
    pub transitions: BTreeMap<(&'static str, &'static str, &'static str), u64>,
}

impl Report {
    /// True if the full bounded space was explored with no violation.
    pub fn ok(&self) -> bool {
        self.counterexample.is_none() && !self.truncated
    }

    /// Bumps the visit count for one (controller, state, event) edge.
    fn record_transition(
        &mut self,
        controller: &'static str,
        state: &'static str,
        event: &'static str,
    ) {
        *self
            .transitions
            .entry((controller, state, event))
            .or_insert(0) += 1;
    }
}

/// Names a controller's state for a line (visited-state census probe).
pub type StateProbe<C> = Box<dyn Fn(&C, LineAddr) -> &'static str>;
/// Reads a controller's logical clock (monotonicity probe).
pub type ClockProbe<C> = Box<dyn Fn(&C) -> Timestamp>;
/// Checks an L2→L1 response at send time.
pub type RespCheck = Box<dyn Fn(&RespMsg) -> Option<Violation>>;
/// Checks a completion against the completing L1's state.
pub type LoadCheck<C> = Box<dyn Fn(&C, &Completion) -> Option<Violation>>;

/// Protocol-specific probes and invariant checks. All optional; the
/// explorer's structural checks (values, slots, deadlock) run regardless.
pub struct Hooks<P: Protocol> {
    /// Names the L1 state of a line, for the visited-state census.
    pub l1_state: Option<StateProbe<P::L1>>,
    /// Names the L2 state of a line, for the visited-state census.
    pub l2_state: Option<StateProbe<P::L2>>,
    /// Reads the L1's logical clock; checked to be monotone.
    pub l1_clock: Option<ClockProbe<P::L1>>,
    /// Reads the L2's logical clock; checked to be monotone.
    pub l2_clock: Option<ClockProbe<P::L2>>,
    /// Checks every L2→L1 response at send time.
    pub check_resp: Option<RespCheck>,
    /// Checks every completion against the completing L1's state.
    pub check_load: Option<LoadCheck<P::L1>>,
}

impl<P: Protocol> Hooks<P> {
    /// No probes: structural checks only.
    pub fn none() -> Self {
        Hooks {
            l1_state: None,
            l2_state: None,
            l1_clock: None,
            l2_clock: None,
            check_resp: None,
            check_load: None,
        }
    }
}

impl<P: Protocol> Default for Hooks<P> {
    fn default() -> Self {
        Self::none()
    }
}

/// The full RCC probe set: state names matching the paper's census
/// convention (expired-V folds into I), `now`/`mnow` monotonicity, lease
/// grants with `exp ≥ ver`, and loads observed within their lease.
pub fn rcc_hooks() -> Hooks<RccProtocol> {
    Hooks {
        l1_state: Some(Box::new(|l1: &RccL1, line| match l1.derived_state(line) {
            L1State::I | L1State::VExpired => "I",
            L1State::V => "V",
            L1State::Iv => "IV",
            L1State::Ii => "II",
            L1State::Vi => "VI",
        })),
        l2_state: Some(Box::new(|l2: &RccL2, line| match l2.derived_state(line) {
            L2State::I => "I",
            L2State::V => "V",
            L2State::Iv => "IV",
            L2State::Iav => "IAV",
        })),
        l1_clock: Some(Box::new(RccL1::now)),
        l2_clock: Some(Box::new(RccL2::mnow)),
        check_resp: Some(Box::new(|resp| match resp.payload {
            RespPayload::Data { ver, exp, .. } if exp < ver => Some(Violation::Lease(format!(
                "DATA grant for {:?} carries exp {} < ver {}",
                resp.line,
                exp.raw(),
                ver.raw()
            ))),
            _ => None,
        })),
        check_load: Some(Box::new(|l1: &RccL1, c| {
            if let CompletionKind::LoadDone { .. } = c.kind {
                if let Some(exp) = l1.lease_exp(c.addr.line()) {
                    if c.ts > exp {
                        return Some(Violation::Lease(format!(
                            "load of {:?} observed at logical time {} beyond lease exp {}",
                            c.addr,
                            c.ts.raw(),
                            exp.raw()
                        )));
                    }
                }
            }
            None
        })),
    }
}

/// A small machine configuration for exploration: 1 L2 partition (the
/// explorer drives a single bank), tiny caches so cloned states stay
/// cheap, and the RCC livelock bump disabled (the explorer controls time
/// explicitly).
pub fn verify_config() -> GpuConfig {
    let mut cfg = GpuConfig::small();
    cfg.l1.size_bytes = 1024; // 2 sets × 4 ways
    cfg.l1.mshrs = 4;
    cfg.l1.mshr_merge = 4;
    cfg.l2.num_partitions = 1;
    cfg.l2.partition.size_bytes = 2048; // 2 sets × 8 ways
    cfg.l2.partition.mshrs = 4;
    cfg.l2.partition.mshr_merge = 4;
    cfg.rcc.livelock_bump_interval = 0;
    cfg
}

/// A recorded write: its memory-order slot and value.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct WriteRec {
    ts: u64,
    seq: u64,
    value: u64,
}

/// A recorded read: the slot it observed up to, and what it saw.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct ReadRec {
    ts: u64,
    seq: u64,
    core: usize,
    value: u64,
}

/// Golden memory: value-coherence checker. Reads and writes are recorded
/// as they complete; values are validated at *terminal* states (a load
/// may legitimately observe a store whose acknowledgement has not reached
/// the writer yet, so the write slots into the history after the read).
/// Slot uniqueness and program order are final facts and fail
/// immediately. Both histories are part of the explored state — two
/// worlds that differ only in history must not be merged, or a pruned
/// branch could hide a violation — and every non-truncated path ends in
/// a terminal state (or a reported deadlock), so deferral loses nothing.
#[derive(Debug, Clone, Default)]
struct Golden {
    writes: BTreeMap<WordAddr, Vec<WriteRec>>,
    reads: BTreeMap<WordAddr, Vec<ReadRec>>,
    last_ts: BTreeMap<usize, u64>,
}

impl Golden {
    fn seed(&mut self, addr: WordAddr, value: u64) {
        self.writes.entry(addr).or_default().push(WriteRec {
            ts: 0,
            seq: 0,
            value,
        });
    }

    /// The value the latest write strictly before `(ts, seq)` left at
    /// `addr` (zero if none).
    fn expected(&self, addr: WordAddr, ts: u64, seq: u64) -> u64 {
        self.writes
            .get(&addr)
            .into_iter()
            .flatten()
            .take_while(|w| (w.ts, w.seq) < (ts, seq))
            .last()
            .map_or(0, |w| w.value)
    }

    fn read(&mut self, core: usize, addr: WordAddr, ts: u64, seq: u64, value: u64) {
        let rec = ReadRec {
            ts,
            seq,
            core,
            value,
        };
        let reads = self.reads.entry(addr).or_default();
        let pos = reads.partition_point(|r| r < &rec);
        reads.insert(pos, rec);
    }

    fn write(
        &mut self,
        core: usize,
        addr: WordAddr,
        ts: u64,
        seq: u64,
        value: u64,
    ) -> Result<(), Violation> {
        let rec = WriteRec { ts, seq, value };
        let writes = self.writes.entry(addr).or_default();
        if writes.iter().any(|w| (w.ts, w.seq) == (ts, seq)) {
            return Err(Violation::WriteSlotClash(format!(
                "core {core} write of {value} to {addr:?} reuses occupied slot ({ts}, {seq})"
            )));
        }
        let pos = writes.partition_point(|w| (w.ts, w.seq) < (ts, seq));
        writes.insert(pos, rec);
        Ok(())
    }

    /// Validates every recorded read against the final write histories.
    /// Call only once all in-flight operations have drained.
    fn validate(&self) -> Result<(), Violation> {
        for (&addr, reads) in &self.reads {
            for r in reads {
                let want = self.expected(addr, r.ts, r.seq);
                if r.value != want {
                    return Err(Violation::Coherence(format!(
                        "core {} read {} from {addr:?} at ({}, {}); \
                         latest prior write left {want}",
                        r.core, r.value, r.ts, r.seq
                    )));
                }
            }
        }
        Ok(())
    }

    fn program_order(&mut self, core: usize, ts: u64) -> Result<(), Violation> {
        let last = self.last_ts.entry(core).or_insert(0);
        if ts < *last {
            return Err(Violation::ProgramOrder(format!(
                "core {core} completed an access at ts {ts} after one at ts {last}"
            )));
        }
        *last = ts;
        Ok(())
    }
}

/// One explored machine state: controllers, channels, magic DRAM, and
/// per-core program positions.
struct World<P: Protocol> {
    l1s: Vec<P::L1>,
    l2: P::L2,
    dram: BTreeMap<LineAddr, LineData>,
    req_q: Vec<VecDeque<ReqMsg>>,
    resp_q: Vec<VecDeque<RespMsg>>,
    dram_q: Vec<LineAddr>,
    pc: Vec<usize>,
    /// The op each core is blocked on (at most one outstanding per core —
    /// SC issue).
    pending: Vec<Option<Op>>,
    cycle: Cycle,
    advances: u32,
    golden: Golden,
    /// Last observed controller clocks (monotonicity check).
    l1_clocks: Vec<Timestamp>,
    l2_clock: Timestamp,
    /// Lines the programs touch (census probes); constant per spec.
    lines: Vec<LineAddr>,
}

impl<P: Protocol> Clone for World<P>
where
    P::L1: Clone,
    P::L2: Clone,
{
    fn clone(&self) -> Self {
        World {
            l1s: self.l1s.clone(),
            l2: self.l2.clone(),
            dram: self.dram.clone(),
            req_q: self.req_q.clone(),
            resp_q: self.resp_q.clone(),
            dram_q: self.dram_q.clone(),
            pc: self.pc.clone(),
            pending: self.pending.clone(),
            cycle: self.cycle,
            advances: self.advances,
            golden: self.golden.clone(),
            l1_clocks: self.l1_clocks.clone(),
            l2_clock: self.l2_clock,
            lines: self.lines.clone(),
        }
    }
}

impl<P: Protocol> World<P>
where
    P::L1: Clone + fmt::Debug,
    P::L2: Clone + fmt::Debug,
{
    fn new(protocol: &P, cfg: &GpuConfig, spec: &Spec) -> Self {
        let n = spec.programs.len();
        let mut dram: BTreeMap<LineAddr, LineData> = BTreeMap::new();
        let mut golden = Golden::default();
        for &(addr, value) in &spec.init {
            dram.entry(addr.line())
                .or_insert_with(LineData::zeroed)
                .set_word_at(addr, value);
            golden.seed(addr, value);
        }
        let mut lines: Vec<LineAddr> = spec
            .programs
            .iter()
            .flatten()
            .filter_map(|op| match op {
                Op::Load(a) | Op::Store(a, _) | Op::Atomic(a, _) => Some(a.line()),
                Op::Fence => None,
            })
            .collect();
        lines.sort_unstable();
        lines.dedup();
        World {
            l1s: (0..n).map(|i| protocol.make_l1(CoreId(i), cfg)).collect(),
            l2: protocol.make_l2(PartitionId(0), cfg),
            dram,
            req_q: vec![VecDeque::new(); n],
            resp_q: vec![VecDeque::new(); n],
            dram_q: Vec::new(),
            pc: vec![0; n],
            pending: vec![None; n],
            cycle: Cycle(0),
            advances: 0,
            golden,
            l1_clocks: vec![Timestamp::ZERO; n],
            l2_clock: Timestamp::ZERO,
            lines,
        }
    }

    /// All programs retired, nothing outstanding anywhere.
    fn done(&self, spec: &Spec) -> bool {
        self.pc
            .iter()
            .zip(&spec.programs)
            .all(|(&pc, prog)| pc == prog.len())
            && self.pending.iter().all(Option::is_none)
            && self.req_q.iter().all(VecDeque::is_empty)
            && self.resp_q.iter().all(VecDeque::is_empty)
            && self.dram_q.is_empty()
    }

    /// Events that might change this state.
    fn candidates(&self, spec: &Spec) -> Vec<Event> {
        let mut evs = Vec::new();
        for c in 0..self.l1s.len() {
            if self.pending[c].is_none() && self.pc[c] < spec.programs[c].len() {
                evs.push(Event::Issue(c));
            }
        }
        for c in 0..self.l1s.len() {
            if !self.req_q[c].is_empty() {
                evs.push(Event::DeliverReq(c));
            }
        }
        for c in 0..self.l1s.len() {
            if !self.resp_q[c].is_empty() {
                evs.push(Event::DeliverResp(c));
            }
        }
        for i in 0..self.dram_q.len() {
            evs.push(Event::DramFill(i));
        }
        if self.advances < spec.max_time_advances {
            evs.push(Event::Advance);
        }
        evs
    }

    /// Applies `ev`. `Ok(true)` if the state changed, `Ok(false)` if the
    /// event was a no-op (empty queue, structural reject, L2
    /// backpressure), `Err` on an invariant violation.
    fn apply(
        &mut self,
        ev: Event,
        spec: &Spec,
        hooks: &Hooks<P>,
        report: &mut Report,
    ) -> Result<bool, Violation> {
        let changed = match ev {
            Event::Issue(core) => self.issue(core, spec, hooks, report)?,
            Event::DeliverReq(core) => {
                let Some(req) = self.req_q[core].pop_front() else {
                    return Ok(false);
                };
                let mut out = L2Outbox::new();
                let state = hooks
                    .l2_state
                    .as_ref()
                    .map_or("?", |probe| probe(&self.l2, req.line));
                let event = req.payload.variant_name();
                match self.l2.handle_req(self.cycle, req, &mut out) {
                    Ok(()) => {
                        report.record_transition("l2", state, event);
                        self.drain_l2(&mut out, spec, hooks)?;
                        true
                    }
                    Err(req) => {
                        debug_assert!(out.is_empty(), "rejected request produced output");
                        self.req_q[core].push_front(req);
                        false
                    }
                }
            }
            Event::DeliverResp(core) => {
                let Some(resp) = self.resp_q[core].pop_front() else {
                    return Ok(false);
                };
                let mut out = L1Outbox::new();
                let state = hooks
                    .l1_state
                    .as_ref()
                    .map_or("?", |probe| probe(&self.l1s[core], resp.line));
                report.record_transition("l1", state, resp.payload.variant_name());
                self.l1s[core].handle_resp(self.cycle, resp, &mut out);
                self.drain_l1(core, &mut out, spec, hooks)?;
                true
            }
            Event::DramFill(i) => {
                if i >= self.dram_q.len() {
                    return Ok(false);
                }
                let line = self.dram_q.remove(i);
                let data = Box::new(self.dram.get(&line).cloned().unwrap_or_default());
                let mut out = L2Outbox::new();
                self.l2.handle_dram(self.cycle, line, data, &mut out);
                self.drain_l2(&mut out, spec, hooks)?;
                true
            }
            Event::Advance => {
                if self.advances >= spec.max_time_advances {
                    return Ok(false);
                }
                self.advances += 1;
                self.cycle = Cycle(self.cycle.raw() + spec.tick_quantum);
                for core in 0..self.l1s.len() {
                    let mut out = L1Outbox::new();
                    self.l1s[core].tick(self.cycle, &mut out);
                    self.drain_l1(core, &mut out, spec, hooks)?;
                }
                let mut out = L2Outbox::new();
                self.l2.tick(self.cycle, &mut out);
                self.drain_l2(&mut out, spec, hooks)?;
                true
            }
        };
        if changed {
            self.check_clocks(hooks)?;
        }
        Ok(changed)
    }

    fn issue(
        &mut self,
        core: usize,
        spec: &Spec,
        hooks: &Hooks<P>,
        report: &mut Report,
    ) -> Result<bool, Violation> {
        if self.pending[core].is_some() {
            return Ok(false);
        }
        let Some(&op) = spec.programs[core].get(self.pc[core]) else {
            return Ok(false);
        };
        let kind = match op {
            Op::Fence => {
                self.l1s[core].fence();
                self.pc[core] += 1;
                return Ok(true);
            }
            Op::Load(_) => AccessKind::Load,
            Op::Store(_, value) => AccessKind::Store { value },
            Op::Atomic(_, atomic_op) => AccessKind::Atomic { op: atomic_op },
        };
        let addr = match op {
            Op::Load(a) | Op::Store(a, _) | Op::Atomic(a, _) => a,
            Op::Fence => unreachable!(),
        };
        let event = kind.variant_name();
        let access = Access {
            warp: WarpId(0),
            addr,
            kind,
        };
        let state = hooks
            .l1_state
            .as_ref()
            .map_or("?", |probe| probe(&self.l1s[core], addr.line()));
        let mut out = L1Outbox::new();
        match self.l1s[core].access(self.cycle, access, &mut out) {
            AccessOutcome::Done(c) => {
                report.record_transition("l1", state, event);
                self.pc[core] += 1;
                self.pending[core] = Some(op);
                self.drain_l1(core, &mut out, spec, hooks)?;
                self.record(core, c, spec, hooks)?;
                Ok(true)
            }
            AccessOutcome::Pending => {
                report.record_transition("l1", state, event);
                self.pc[core] += 1;
                self.pending[core] = Some(op);
                self.drain_l1(core, &mut out, spec, hooks)?;
                Ok(true)
            }
            AccessOutcome::Reject(_) => Ok(false),
        }
    }

    fn drain_l1(
        &mut self,
        core: usize,
        out: &mut L1Outbox,
        spec: &Spec,
        hooks: &Hooks<P>,
    ) -> Result<(), Violation> {
        for req in out.to_l2.drain(..) {
            self.req_q[core].push_back(req);
        }
        for c in out.completions.drain(..) {
            self.record(core, c, spec, hooks)?;
        }
        Ok(())
    }

    fn drain_l2(
        &mut self,
        out: &mut L2Outbox,
        _spec: &Spec,
        hooks: &Hooks<P>,
    ) -> Result<(), Violation> {
        for resp in out.to_l1.drain(..) {
            if let Some(check) = &hooks.check_resp {
                if let Some(v) = check(&resp) {
                    return Err(v);
                }
            }
            self.resp_q[resp.dst.index()].push_back(resp);
        }
        for line in out.dram_fetch.drain(..) {
            self.dram_q.push(line);
        }
        for (line, data) in out.dram_writeback.drain(..) {
            self.dram.insert(line, data);
        }
        for (core, line, action) in out.magic_inv.drain(..) {
            self.l1s[core.index()].magic(self.cycle, line, action);
        }
        Ok(())
    }

    /// Records one completion against the golden memory and runs the
    /// per-completion hooks.
    fn record(
        &mut self,
        core: usize,
        c: Completion,
        spec: &Spec,
        hooks: &Hooks<P>,
    ) -> Result<(), Violation> {
        let op = self.pending[core]
            .take()
            .expect("completion delivered with no outstanding operation");
        if let Some(check) = &hooks.check_load {
            if let Some(v) = check(&self.l1s[core], &c) {
                return Err(v);
            }
        }
        if !spec.check_values {
            return Ok(());
        }
        let (ts, seq) = (c.ts.raw(), c.seq);
        match (op, c.kind) {
            (Op::Load(_), CompletionKind::LoadDone { value }) => {
                self.golden.read(core, c.addr, ts, seq, value);
            }
            (Op::Store(_, value), CompletionKind::StoreDone) => {
                self.golden.write(core, c.addr, ts, seq, value)?;
            }
            (Op::Atomic(_, atomic_op), CompletionKind::AtomicDone { old }) => {
                // The read half observes everything strictly before the
                // atomic's own (ts, seq) slot — excluding its own write.
                self.golden.read(core, c.addr, ts, seq, old);
                let new = atomic_op.apply(old);
                if new != old {
                    self.golden.write(core, c.addr, ts, seq, new)?;
                }
            }
            (op, kind) => panic!("completion {kind:?} does not match outstanding op {op:?}"),
        }
        self.golden.program_order(core, ts)
    }

    fn check_clocks(&mut self, hooks: &Hooks<P>) -> Result<(), Violation> {
        if let Some(clock) = &hooks.l1_clock {
            for (i, l1) in self.l1s.iter().enumerate() {
                let now = clock(l1);
                if now < self.l1_clocks[i] {
                    return Err(Violation::ClockRegression(format!(
                        "core {i} clock moved backwards: {} -> {}",
                        self.l1_clocks[i].raw(),
                        now.raw()
                    )));
                }
                self.l1_clocks[i] = now;
            }
        }
        if let Some(clock) = &hooks.l2_clock {
            let mnow = clock(&self.l2);
            if mnow < self.l2_clock {
                return Err(Violation::ClockRegression(format!(
                    "L2 mnow moved backwards: {} -> {}",
                    self.l2_clock.raw(),
                    mnow.raw()
                )));
            }
            self.l2_clock = mnow;
        }
        Ok(())
    }

    /// Census probes for the current state.
    fn note_states(&self, hooks: &Hooks<P>, report: &mut Report) {
        if let Some(probe) = &hooks.l1_state {
            for l1 in &self.l1s {
                for &line in &self.lines {
                    report.l1_states_seen.insert(probe(l1, line));
                }
            }
        }
        if let Some(probe) = &hooks.l2_state {
            for &line in &self.lines {
                report.l2_states_seen.insert(probe(&self.l2, line));
            }
        }
    }

    /// Order-insensitive digest of the semantic state. The trace log and
    /// census sets are excluded; the golden histories are included (see
    /// [`Golden`]).
    fn fingerprint(&self) -> u128 {
        let mut s = String::with_capacity(1 << 12);
        let _ = write!(
            s,
            "{:?}|{:?}|{:?}|{:?}|{:?}|{:?}|{:?}|{:?}|{:?}|{:?}",
            self.l1s,
            self.l2,
            self.dram,
            self.req_q,
            self.resp_q,
            self.dram_q,
            self.pc,
            self.pending,
            self.cycle,
            self.golden,
        );
        let mut h1 = DefaultHasher::new();
        1u8.hash(&mut h1);
        s.hash(&mut h1);
        let mut h2 = DefaultHasher::new();
        2u8.hash(&mut h2);
        s.hash(&mut h2);
        ((h1.finish() as u128) << 64) | h2.finish() as u128
    }
}

/// Exhaustively explores `spec` under `protocol`, checking the structural
/// invariants plus whatever `hooks` add. Returns the census and, if an
/// invariant failed, a shrunk counterexample trace.
pub fn explore<P>(protocol: &P, cfg: &GpuConfig, spec: &Spec, hooks: &Hooks<P>) -> Report
where
    P: Protocol,
    P::L1: Clone + fmt::Debug,
    P::L2: Clone + fmt::Debug,
{
    let mut report = Report::default();
    let root = World::new(protocol, cfg, spec);
    let mut visited: FxHashSet<u128> = FxHashSet::default();
    visited.insert(root.fingerprint());
    let mut stack: Vec<(World<P>, Vec<Event>)> = vec![(root, Vec::new())];

    'outer: while let Some((world, trace)) = stack.pop() {
        world.note_states(hooks, &mut report);
        if world.done(spec) {
            if let Err(violation) = world.golden.validate() {
                report.counterexample = Some(shrink(protocol, cfg, spec, hooks, trace, violation));
                break;
            }
            report.terminal_paths += 1;
            continue;
        }
        let mut progress = false;
        for ev in world.candidates(spec) {
            let mut child = world.clone();
            match child.apply(ev, spec, hooks, &mut report) {
                Ok(true) => {
                    progress = true;
                    report.events_applied += 1;
                    if visited.insert(child.fingerprint()) {
                        if visited.len() >= spec.max_states {
                            report.truncated = true;
                            break 'outer;
                        }
                        let mut t = trace.clone();
                        t.push(ev);
                        stack.push((child, t));
                    }
                }
                Ok(false) => {}
                Err(violation) => {
                    let mut events = trace.clone();
                    events.push(ev);
                    report.counterexample =
                        Some(shrink(protocol, cfg, spec, hooks, events, violation));
                    break 'outer;
                }
            }
        }
        if !progress {
            let detail = format!(
                "pcs {:?}, pending {:?}, {} reqs / {} resps / {} fills queued",
                world.pc,
                world.pending,
                world.req_q.iter().map(VecDeque::len).sum::<usize>(),
                world.resp_q.iter().map(VecDeque::len).sum::<usize>(),
                world.dram_q.len()
            );
            report.counterexample = Some(shrink(
                protocol,
                cfg,
                spec,
                hooks,
                trace,
                Violation::Deadlock(detail),
            ));
            break;
        }
    }
    report.states = visited.len();
    report
}

/// Replays `events` on a fresh world; returns the index and violation of
/// the first invariant failure, if any. No-op events are tolerated (a
/// shrunk trace may have turned a delivery into a no-op).
fn replay<P>(
    protocol: &P,
    cfg: &GpuConfig,
    spec: &Spec,
    hooks: &Hooks<P>,
    events: &[Event],
) -> Option<(usize, Violation)>
where
    P: Protocol,
    P::L1: Clone + fmt::Debug,
    P::L2: Clone + fmt::Debug,
{
    let mut world = World::new(protocol, cfg, spec);
    let mut scratch = Report::default();
    for (i, &ev) in events.iter().enumerate() {
        if let Err(v) = world.apply(ev, spec, hooks, &mut scratch) {
            return Some((i, v));
        }
    }
    if world.done(spec) {
        if let Err(v) = world.golden.validate() {
            return Some((events.len().saturating_sub(1), v));
        }
    }
    None
}

/// Greedy delta-debugging: drop one event at a time, keeping any shorter
/// trace that still reproduces the same class of violation, until no
/// single removal works. (Deadlocks are reported unshrunk — they are a
/// property of the whole trace, not of one event.)
fn shrink<P>(
    protocol: &P,
    cfg: &GpuConfig,
    spec: &Spec,
    hooks: &Hooks<P>,
    mut events: Vec<Event>,
    violation: Violation,
) -> Counterexample
where
    P: Protocol,
    P::L1: Clone + fmt::Debug,
    P::L2: Clone + fmt::Debug,
{
    let kind = mem::discriminant(&violation);
    let mut violation = violation;
    if !matches!(violation, Violation::Deadlock(_)) {
        loop {
            let mut improved = false;
            for i in 0..events.len() {
                let mut cand = events.clone();
                cand.remove(i);
                if let Some((at, v)) = replay(protocol, cfg, spec, hooks, &cand) {
                    if mem::discriminant(&v) == kind {
                        cand.truncate(at + 1);
                        events = cand;
                        violation = v;
                        improved = true;
                        break;
                    }
                }
            }
            if !improved {
                break;
            }
        }
    }
    let rendered = describe(protocol, cfg, spec, hooks, &events, &violation);
    Counterexample {
        messages: events.iter().filter(|e| e.is_message()).count(),
        violation,
        events,
        rendered,
    }
}

/// Renders a trace by replaying it and describing what each event
/// delivers.
fn describe<P>(
    protocol: &P,
    cfg: &GpuConfig,
    spec: &Spec,
    hooks: &Hooks<P>,
    events: &[Event],
    violation: &Violation,
) -> Vec<String>
where
    P: Protocol,
    P::L1: Clone + fmt::Debug,
    P::L2: Clone + fmt::Debug,
{
    let mut world = World::new(protocol, cfg, spec);
    let mut scratch = Report::default();
    let mut lines = Vec::with_capacity(events.len() + 1);
    for &ev in events {
        let desc = match ev {
            Event::Issue(c) => match spec.programs[c].get(world.pc[c]) {
                Some(op) => format!("core {c} issues {op:?}"),
                None => format!("core {c} issues (retired)"),
            },
            Event::DeliverReq(c) => match world.req_q[c].front() {
                Some(req) => format!("L2 <- core {c}: {:?} for {:?}", req.payload, req.line),
                None => format!("L2 <- core {c}: (empty)"),
            },
            Event::DeliverResp(c) => match world.resp_q[c].front() {
                Some(resp) => format!("core {c} <- L2: {:?} for {:?}", resp.payload, resp.line),
                None => format!("core {c} <- L2: (empty)"),
            },
            Event::DramFill(i) => match world.dram_q.get(i) {
                Some(line) => format!("DRAM fill completes for {line:?}"),
                None => "DRAM fill (empty)".to_string(),
            },
            Event::Advance => "time advances".to_string(),
        };
        lines.push(desc);
        if world.apply(ev, spec, hooks, &mut scratch).is_err() {
            break;
        }
    }
    lines.push(format!("!! {violation}"));
    lines
}
