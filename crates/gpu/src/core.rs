//! The SM core: warp contexts, loose round-robin issue, consistency
//! enforcement, and synchronization micro-sequences.

use crate::op::{MemOp, WarpProgram};
use crate::stats::{CoreStats, PrevOpKind};
use rcc_common::addr::WordAddr;
use rcc_common::hash::FxHasher;
use rcc_common::ids::{CoreId, WarpId};
use rcc_common::snap::SnapWriter;
use rcc_common::time::Cycle;
use rcc_core::msg::{Access, AccessKind, AccessOutcome, AtomicOp, Completion, CompletionKind};
use std::collections::VecDeque;
use std::fmt;
use std::hash::Hasher;
use std::sync::{Arc, OnceLock};

/// Warp contexts one core supports: [`Core::tick`] keeps one bit per
/// warp in a `u64` (Table III has 48, the small machine 8).
pub const MAX_WARPS_PER_CORE: usize = 64;

/// How FENCE instructions retire.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FencePolicy {
    /// SC configurations: the hardware already orders everything; fences
    /// are no-ops left in for the compiler's benefit (Section IV-B).
    Free,
    /// Drain the warp's outstanding accesses (RCC-WO; the simulator also
    /// joins the core's read/write views on retire).
    Drain,
    /// Drain and additionally wait until the warp's accumulated global
    /// write completion time has passed (TC-Weak).
    DrainGwct,
}

/// Warp scheduling policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SchedPolicy {
    /// Loose round-robin (Table III's configuration): rotate a pointer
    /// over the warps, issuing from the first ready one.
    #[default]
    LooseRoundRobin,
    /// Greedy-then-oldest: keep issuing from the same warp until it
    /// stalls, then fall back to the lowest-numbered ready warp. Favours
    /// intra-warp locality over fairness.
    GreedyThenOldest,
}

/// Core configuration.
#[derive(Debug, Clone)]
pub struct CoreParams {
    /// Warp scheduling policy.
    pub scheduler: SchedPolicy,
    /// Warp contexts (48 in Table III).
    pub warps_per_core: usize,
    /// Warps per workgroup (for intra-workgroup barriers).
    pub warps_per_workgroup: usize,
    /// Whether warps may overlap their global accesses.
    pub weak_ordering: bool,
    /// Fence retirement rule.
    pub fence_policy: FencePolicy,
    /// Outstanding-access limit per warp under weak ordering.
    pub max_outstanding: usize,
    /// Cycles between barrier poll attempts.
    pub poll_interval: u64,
    /// Base backoff after a failed lock attempt.
    pub lock_backoff: u64,
}

impl CoreParams {
    /// Sequentially consistent core: one outstanding global access per
    /// warp (the naïve-SC rule).
    pub fn sequential(warps_per_core: usize, warps_per_workgroup: usize) -> Self {
        CoreParams {
            scheduler: SchedPolicy::default(),
            warps_per_core,
            warps_per_workgroup,
            weak_ordering: false,
            fence_policy: FencePolicy::Free,
            max_outstanding: 1,
            poll_interval: 100,
            lock_backoff: 40,
        }
    }

    /// Weakly ordered core with the given fence policy.
    pub fn weakly_ordered(
        warps_per_core: usize,
        warps_per_workgroup: usize,
        fence_policy: FencePolicy,
    ) -> Self {
        CoreParams {
            weak_ordering: true,
            fence_policy,
            max_outstanding: 8,
            ..CoreParams::sequential(warps_per_core, warps_per_workgroup)
        }
    }
}

/// Classification of an outstanding access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum OpClass {
    Load,
    Store,
    Atomic,
}

impl OpClass {
    fn prev_kind(self) -> PrevOpKind {
        match self {
            OpClass::Load => PrevOpKind::Load,
            OpClass::Store => PrevOpKind::Store,
            OpClass::Atomic => PrevOpKind::Atomic,
        }
    }
}

/// The [`PrevOpKind`] of each [`OpClass`], indexed by the class: the
/// order of [`Core`]'s `blocked` masks.
const PREV_KINDS: [PrevOpKind; 3] = [PrevOpKind::Load, PrevOpKind::Store, PrevOpKind::Atomic];

/// Why an access was issued (what to do with its completion).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Purpose {
    Plain,
    LockAttempt,
    Unlock,
    BarrierArrive { members: u64 },
    BarrierPoll { members: u64 },
}

#[derive(Debug, Clone, Copy)]
struct Outstanding {
    addr: WordAddr,
    class: OpClass,
    purpose: Purpose,
    issued: Cycle,
}

/// Synchronization micro-state within the current program op.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Micro {
    /// Execute the op at `pc` from scratch.
    Fresh,
    /// Waiting for a lock CAS / unlock / barrier atomic to complete.
    SyncWait,
    /// Backing off before retrying a lock CAS.
    LockBackoff { until: u64 },
    /// Backing off before the next barrier poll.
    BarrierBackoff { until: u64 },
}

struct Warp {
    program: Arc<Vec<MemOp>>,
    /// Cache: [`Warp::program_digest`], filled by the first state digest.
    program_digest: OnceLock<u64>,
    pc: usize,
    wg_index: usize,
    micro: Micro,
    busy_until: u64,
    at_fence: bool,
    waiting_local: Option<u64>,
    outstanding: VecDeque<Outstanding>,
    /// SC-stall cycles accumulated by the op waiting at `pc`, settled up
    /// to `blocked_since` while the warp sits in a `blocked` mask (see
    /// [`Core::settled_wait`]).
    wait_for_issue: u64,
    max_gwct: u64,
    barriers_passed: u64,
    done: bool,
    /// Cache: the core's `stall_clock` when the warp entered `blocked`.
    blocked_since: u64,
}

impl Warp {
    fn current_op(&self) -> Option<MemOp> {
        self.program.get(self.pc).copied()
    }

    /// The program as the state digest sees it: one hash of its length
    /// and its ops' [`MemOp::snap`] encoding. A program never changes,
    /// so it is hashed once, on the first digest that reaches this warp.
    fn program_digest(&self) -> u64 {
        *self.program_digest.get_or_init(|| {
            let mut w = SnapWriter::new();
            for op in self.program.iter() {
                op.snap(&mut w);
            }
            let mut h = FxHasher::default();
            h.write_usize(self.program.len());
            h.write(&w.into_bytes());
            h.finish()
        })
    }

    /// The cycle an idle warp's busy, backoff or `WaitUntil` timer runs
    /// out, if one is pending at `now`. `None` for a warp that only a
    /// completion or an epoch advance can wake: one in a local wait, in
    /// `SyncWait`, or past the end of its program.
    fn idle_timer(&self, now: u64) -> Option<u64> {
        if self.waiting_local.is_some() || self.micro == Micro::SyncWait {
            return None;
        }
        let op = self.current_op()?;
        let mut t = self.busy_until;
        if let MemOp::WaitUntil(gate) = op {
            t = t.max(gate);
        }
        if let Micro::LockBackoff { until } | Micro::BarrierBackoff { until } = self.micro {
            t = t.max(until);
        }
        (t > now).then_some(t)
    }
}

/// A warp's `Debug` text with `wait_for_issue` settled: the fields, names
/// and order a derived `Debug` on [`Warp`] would print without its
/// caches, which `Core::digest_state` hashes. `program` prints as its
/// [`Warp::program_digest`], not as the ops, so a digest costs the
/// warp's state, not the length of its program.
struct SettledWarp<'a> {
    warp: &'a Warp,
    wait_for_issue: u64,
}

impl fmt::Debug for SettledWarp<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let w = self.warp;
        f.debug_struct("Warp")
            .field("program", &w.program_digest())
            .field("pc", &w.pc)
            .field("wg_index", &w.wg_index)
            .field("micro", &w.micro)
            .field("busy_until", &w.busy_until)
            .field("at_fence", &w.at_fence)
            .field("waiting_local", &w.waiting_local)
            .field("outstanding", &w.outstanding)
            .field("wait_for_issue", &self.wait_for_issue)
            .field("max_gwct", &w.max_gwct)
            .field("barriers_passed", &w.barriers_passed)
            .field("done", &w.done)
            .finish()
    }
}

/// The set bits of `mask`, lowest first.
fn bits(mut mask: u64) -> impl Iterator<Item = usize> {
    std::iter::from_fn(move || {
        (mask != 0).then(|| {
            let i = mask.trailing_zeros() as usize;
            mask &= mask - 1;
            i
        })
    })
}

/// Forensic view of one non-retired warp (see [`Core::blocked_warps`]):
/// enough context for a hang-dump to say what the warp is stuck on.
#[derive(Debug, Clone)]
pub struct WarpState {
    /// Warp index within the core.
    pub warp: usize,
    /// Program counter — the index of the op the warp is stuck on.
    pub pc: usize,
    /// Synchronization micro-state (`Fresh`, `SyncWait`, ...).
    pub micro: String,
    /// Whether the warp is waiting at a fence.
    pub at_fence: bool,
    /// Pending `LocalWait` epoch, if any.
    pub waiting_local: Option<u64>,
    /// The op at `pc`, if the program has not run out.
    pub stalled_op: Option<String>,
    /// The warp's in-flight global accesses.
    pub outstanding: Vec<OutstandingAccess>,
}

/// One in-flight access of a blocked warp.
#[derive(Debug, Clone)]
pub struct OutstandingAccess {
    /// Word address of the access.
    pub addr: u64,
    /// Access class (`Load`/`Store`/`Atomic`).
    pub class: String,
    /// Cycle the access was issued.
    pub issued: u64,
}

/// What a core produced in one cycle.
#[derive(Debug, Default)]
pub struct CoreOutput {
    /// Warps whose FENCE retired this cycle (the simulator calls the
    /// L1's `fence()` hook for these).
    pub fences_retired: Vec<WarpId>,
    /// The program op this cycle issued *for the first time*, if any:
    /// `(warp index, pc)`. Non-memory ops report here the cycle they
    /// execute; memory ops the cycle their first access is accepted
    /// (lock-CAS retries and barrier re-polls of the same op do not
    /// report). Ephemeral per-tick data for the trace recorder — not
    /// architectural state, so passivity is preserved by construction.
    pub issued_op: Option<(usize, usize)>,
}

/// One streaming multiprocessor.
///
/// A core's per-cycle cost follows the warps that changed, not the warps
/// it holds. When [`Core::tick`] evaluates a warp it records the warp's
/// steady *class* in one of the masks below, and the class stands until
/// the warp acts, a completion reaches it, its workgroup's epoch advances
/// under its local wait (each of which marks it `dirty`), or its timer
/// runs out. A tick re-evaluates only dirty and expired warps; the stall
/// counters of the rest grow by mask popcounts.
pub struct Core {
    id: CoreId,
    params: CoreParams,
    warps: Vec<Warp>,
    /// Barrier epochs passed per workgroup (for `LocalWait`).
    wg_epochs: Vec<u64>,
    sched_ptr: usize,
    stats: CoreStats,
    retired_warps: usize,
    /// Warps the scheduler would act on: issue (or present an access to
    /// the L1), or run a non-memory op.
    ready: u64,
    /// Warps whose ready access ordering forbids, one mask per
    /// [`OpClass`] of the access they wait on (the SC-stall attribution).
    blocked: [u64; 3],
    /// Warps at a fence that cannot retire yet.
    fence: u64,
    /// Classified warps whose busy, backoff, `WaitUntil` or GWCT timer
    /// runs out at their `wake_at`.
    timed: u64,
    /// The cycle each `timed` warp's timer runs out.
    wake_at: [u64; MAX_WARPS_PER_CORE],
    /// Warps with no class: evaluated by the per-warp rules until the
    /// next tick classifies them. Every live warp starts here.
    dirty: u64,
    /// Cycles of stall bookkeeping charged so far (ticks plus
    /// fast-forwarded cycles); blocked warps accrue `wait_for_issue`
    /// against it.
    stall_clock: u64,
}

impl fmt::Debug for Core {
    /// The fields, names and order a derived `Debug` would print without
    /// the class masks, with every warp's `wait_for_issue` settled and
    /// its program as one hash (see [`SettledWarp`]): `digest_state`
    /// hashes this text, so it must not depend on when the masks were
    /// last brought up to date.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let warps: Vec<SettledWarp> = (0..self.warps.len())
            .map(|i| SettledWarp {
                warp: &self.warps[i],
                wait_for_issue: self.settled_wait(i),
            })
            .collect();
        f.debug_struct("Core")
            .field("id", &self.id)
            .field("params", &self.params)
            .field("warps", &warps)
            .field("wg_epochs", &self.wg_epochs)
            .field("sched_ptr", &self.sched_ptr)
            .field("stats", &self.stats)
            .field("retired_warps", &self.retired_warps)
            .finish()
    }
}

impl Core {
    /// Creates a core running the given per-warp programs (padded with
    /// empty programs up to `params.warps_per_core`).
    ///
    /// # Panics
    ///
    /// Panics if more programs than warp contexts are supplied, or if
    /// there are more than [`MAX_WARPS_PER_CORE`] warp contexts.
    pub fn new(id: CoreId, params: CoreParams, programs: Vec<WarpProgram>) -> Self {
        assert!(
            params.warps_per_core <= MAX_WARPS_PER_CORE,
            "{} warp contexts; at most {MAX_WARPS_PER_CORE} are supported",
            params.warps_per_core
        );
        assert!(
            programs.len() <= params.warps_per_core,
            "{} programs for {} warp contexts",
            programs.len(),
            params.warps_per_core
        );
        let wpw = params.warps_per_workgroup.max(1);
        let num_wgs = params.warps_per_core.div_ceil(wpw);
        let warps: Vec<Warp> = (0..params.warps_per_core)
            .map(|i| {
                let program = programs.get(i).map(|p| p.ops.clone()).unwrap_or_default();
                let done = program.is_empty();
                Warp {
                    program,
                    program_digest: OnceLock::new(),
                    pc: 0,
                    wg_index: i / wpw,
                    micro: Micro::Fresh,
                    busy_until: 0,
                    at_fence: false,
                    waiting_local: None,
                    outstanding: VecDeque::new(),
                    wait_for_issue: 0,
                    max_gwct: 0,
                    barriers_passed: 0,
                    done,
                    blocked_since: 0,
                }
            })
            .collect();
        let retired = warps.iter().filter(|w| w.done).count();
        let dirty = (0..warps.len())
            .filter(|&i| !warps[i].done)
            .fold(0, |m, i| m | 1 << i);
        Core {
            id,
            params,
            warps,
            wg_epochs: vec![0; num_wgs],
            sched_ptr: 0,
            stats: CoreStats::default(),
            retired_warps: retired,
            ready: 0,
            blocked: [0; 3],
            fence: 0,
            timed: 0,
            wake_at: [0; MAX_WARPS_PER_CORE],
            dirty,
            stall_clock: 0,
        }
    }

    /// This core's id.
    pub fn id(&self) -> CoreId {
        self.id
    }

    /// Whether every warp has retired its program.
    pub fn done(&self) -> bool {
        self.retired_warps == self.warps.len()
    }

    /// Outstanding global accesses across all warps.
    pub fn outstanding(&self) -> usize {
        self.warps.iter().map(|w| w.outstanding.len()).sum()
    }

    /// Warps that have not yet retired their program — the occupancy
    /// figure the time-series sampler records per SM.
    pub fn active_warps(&self) -> usize {
        self.warps.len() - self.retired_warps
    }

    /// Statistics.
    pub fn stats(&self) -> &CoreStats {
        &self.stats
    }

    /// Folds this core's full architectural state — every warp context
    /// (program hash, pc, micro-state, timers, in-flight accesses), the
    /// scheduler pointer, workgroup epochs, and statistics — into a
    /// cross-component state digest. Each warp's program enters as one
    /// `u64`, hashed on the first digest and kept, so a run that never
    /// takes a digest never hashes a program.
    pub fn digest_state(&self, d: &mut rcc_common::snap::StateDigest) {
        d.write_debug(self);
    }

    /// Forensic snapshot of every non-retired warp: what it is stuck on
    /// and which accesses it still has in flight. The watchdog's
    /// hang-dump names blocked warps through this.
    pub fn blocked_warps(&self) -> Vec<WarpState> {
        self.warps
            .iter()
            .enumerate()
            .filter(|(_, w)| !w.done)
            .map(|(i, w)| WarpState {
                warp: i,
                pc: w.pc,
                micro: format!("{:?}", w.micro),
                at_fence: w.at_fence,
                waiting_local: w.waiting_local,
                stalled_op: w.current_op().map(|op| format!("{op:?}")),
                outstanding: w
                    .outstanding
                    .iter()
                    .map(|o| OutstandingAccess {
                        addr: o.addr.0,
                        class: format!("{:?}", o.class),
                        issued: o.issued.raw(),
                    })
                    .collect(),
            })
            .collect()
    }

    /// Whether ordering rules allow `warp` to issue a new access to
    /// `addr`.
    fn ordering_allows(&self, warp: &Warp, addr: WordAddr, op_is_sync: bool) -> bool {
        if self.params.weak_ordering {
            // Synchronization atomics need their value to make progress,
            // so they drain the warp first (acquire semantics); plain
            // accesses respect the outstanding limit and — as in any real
            // core — same-address program order within the thread.
            if op_is_sync {
                warp.outstanding.is_empty()
            } else {
                warp.outstanding.len() < self.params.max_outstanding
                    && warp.outstanding.iter().all(|o| o.addr != addr)
            }
        } else {
            // Naïve SC: one outstanding global access per warp.
            warp.outstanding.is_empty()
        }
    }

    /// What the warp would issue right now, if anything.
    fn issue_intent(&self, warp: &Warp, now: u64) -> Option<(AccessKind, WordAddr, Purpose, bool)> {
        if warp.done || warp.busy_until > now || warp.at_fence || warp.waiting_local.is_some() {
            return None;
        }
        match warp.micro {
            Micro::SyncWait => None,
            Micro::LockBackoff { until } if until > now => None,
            Micro::BarrierBackoff { until } if until > now => None,
            Micro::LockBackoff { .. } => {
                let MemOp::Lock(w) = warp.current_op().expect("in lock") else {
                    unreachable!("backoff outside Lock");
                };
                Some((
                    AccessKind::Atomic {
                        op: AtomicOp::Cas { expect: 0, new: 1 },
                    },
                    w,
                    Purpose::LockAttempt,
                    true,
                ))
            }
            Micro::BarrierBackoff { .. } => {
                let MemOp::Barrier { word, members } = warp.current_op().expect("in barrier")
                else {
                    unreachable!("backoff outside Barrier");
                };
                Some((
                    AccessKind::Atomic { op: AtomicOp::Read },
                    word,
                    Purpose::BarrierPoll { members },
                    true,
                ))
            }
            Micro::Fresh => match warp.current_op()? {
                MemOp::Load(w) => Some((AccessKind::Load, w, Purpose::Plain, false)),
                MemOp::Store(w, v) => {
                    Some((AccessKind::Store { value: v }, w, Purpose::Plain, false))
                }
                MemOp::Atomic(w, op) => Some((AccessKind::Atomic { op }, w, Purpose::Plain, true)),
                MemOp::Lock(w) => Some((
                    AccessKind::Atomic {
                        op: AtomicOp::Cas { expect: 0, new: 1 },
                    },
                    w,
                    Purpose::LockAttempt,
                    true,
                )),
                MemOp::Unlock(w) => Some((
                    AccessKind::Atomic {
                        op: AtomicOp::Exch(0),
                    },
                    w,
                    Purpose::Unlock,
                    true,
                )),
                MemOp::Barrier { word, members } => Some((
                    AccessKind::Atomic {
                        op: AtomicOp::Add(1),
                    },
                    word,
                    Purpose::BarrierArrive { members },
                    true,
                )),
                MemOp::Compute(_) | MemOp::Fence | MemOp::LocalWait { .. } => None,
                // The gate is not a memory access; `tick` advances past
                // it once its cycle has come, and `next_event` /
                // `stall_horizon` treat a pending gate as a timer.
                MemOp::WaitUntil(_) => None,
            },
        }
    }

    /// The earliest future cycle at which this core would do anything —
    /// issue, retire, or advance micro-state — assuming no completion
    /// arrives first. `None` means every live warp is blocked on memory
    /// (or on another core's barrier progress) and only an external
    /// event can wake it.
    ///
    /// Pure *counter* activity (SC/fence stall accounting) is not an
    /// event: it is replicated exactly by [`Core::fast_forward`], which
    /// the simulator must call over any cycles it skips.
    pub fn next_event(&self, now: Cycle) -> Option<Cycle> {
        let nowr = now.raw();
        self.earliest_wake(now, true, |warp, timer_pending| {
            self.acts_at_floor(warp, nowr, timer_pending)
        })
    }

    /// [`Core::next_event`]'s rule for a warp whose waiting op is ready
    /// at the floor (`now + 1`): whether it then acts.
    fn acts_at_floor(&self, warp: &Warp, now: u64, timer_pending: bool) -> bool {
        match warp.current_op() {
            Some(
                MemOp::Compute(_) | MemOp::Fence | MemOp::LocalWait { .. } | MemOp::WaitUntil(_),
            ) => true,
            // A timer expiring right at the window floor is an event even
            // if ordering then stalls the warp: its stall accrual *starts*
            // there, and `fast_forward` (which evaluates intent at `now`,
            // where the timer is still live) would miss those cycles. An
            // ordering-stalled warp with no timer only advances counters,
            // and `fast_forward` replicates those.
            _ => self
                .issue_intent(warp, now + 1)
                .is_some_and(|(_, addr, _, is_sync)| {
                    timer_pending || self.ordering_allows(warp, addr, is_sync)
                }),
        }
    }

    /// The wake [`Core::next_event`] and [`Core::stall_horizon`] share.
    /// A classified warp wakes the core at the floor if it is `ready`
    /// and the caller counts ready warps (`ready_wakes`), at its timer
    /// if it is `timed`, and never otherwise: its class stands until an
    /// input marks it dirty. A dirty warp, and a timed one whose timer
    /// has already run out uncounted (a rollover paused the core), go
    /// through the per-warp rule [`Core::warp_wake`].
    fn earliest_wake(
        &self,
        now: Cycle,
        ready_wakes: bool,
        ready_acts: impl Fn(&Warp, bool) -> bool,
    ) -> Option<Cycle> {
        let nowr = now.raw();
        let floor = nowr + 1;
        if ready_wakes && self.ready != 0 {
            return Some(Cycle(floor));
        }
        let mut best = u64::MAX;
        for i in bits(self.timed) {
            let wake_at = self.wake_at[i];
            if wake_at > nowr {
                best = best.min(wake_at);
            } else if let Some(w) = self.warp_wake(&self.warps[i], nowr, &ready_acts) {
                best = best.min(w);
            }
        }
        for i in bits(self.dirty) {
            if best == floor {
                break; // already at the earliest possible answer
            }
            if let Some(w) = self.warp_wake(&self.warps[i], nowr, &ready_acts) {
                best = best.min(w);
            }
        }
        (best != u64::MAX).then_some(Cycle(best))
    }

    /// The per-warp wake rule: local waits, fences, retirement, and the
    /// busy, lock/barrier-backoff and `WaitUntil` timers, judged from
    /// the warp's state alone. A warp whose waiting op is ready at the
    /// floor (`now + 1`) wakes the core there only if
    /// `ready_acts(warp, timer_pending)` says so.
    fn warp_wake(
        &self,
        warp: &Warp,
        nowr: u64,
        ready_acts: &impl Fn(&Warp, bool) -> bool,
    ) -> Option<u64> {
        let floor = nowr + 1;
        if warp.done {
            return None;
        }
        if let Some(need) = warp.waiting_local {
            // Released the cycle after the workgroup epoch advances;
            // epochs only advance on barrier completions (external).
            return (self.wg_epochs[warp.wg_index] >= need).then_some(floor);
        }
        if warp.at_fence {
            // Not drained: a completion must arrive first.
            if !warp.outstanding.is_empty() {
                return None;
            }
            if self.params.fence_policy == FencePolicy::DrainGwct && nowr <= warp.max_gwct {
                return Some(warp.max_gwct + 1);
            }
            return Some(floor);
        }
        if warp.current_op().is_none() {
            // Retirement is checked every cycle regardless of timers.
            return (warp.outstanding.is_empty() && warp.micro == Micro::Fresh).then_some(floor);
        }
        // An op is waiting; find when its timers next allow a visit.
        let mut wake = floor;
        let mut timer_pending = false;
        if warp.busy_until > nowr {
            wake = wake.max(warp.busy_until);
            timer_pending = true;
        }
        match warp.micro {
            Micro::SyncWait => return None, // woken by its completion
            Micro::LockBackoff { until } | Micro::BarrierBackoff { until } if until > nowr => {
                wake = wake.max(until);
                timer_pending = true;
            }
            _ => {}
        }
        // A pending replay gate is a timer: the warp does nothing
        // until its cycle, then advances pc (an event).
        if let Some(MemOp::WaitUntil(t)) = warp.current_op() {
            if t > nowr {
                wake = wake.max(t);
                timer_pending = true;
            }
        }
        if wake > floor {
            // A timer expires mid-idle: stepping resumes there (the
            // warp either issues or starts accruing ordering stalls).
            Some(wake)
        } else {
            ready_acts(warp, timer_pending).then_some(floor)
        }
    }

    /// The full walk the class masks replace: [`Core::warp_wake`] over
    /// every warp. The lockstep tests hold [`Core::next_event`] and
    /// [`Core::stall_horizon`] to it.
    #[cfg(test)]
    fn walk_wake(&self, now: Cycle, ready_acts: impl Fn(&Warp, bool) -> bool) -> Option<Cycle> {
        let wakes = self
            .warps
            .iter()
            .filter_map(|w| self.warp_wake(w, now.raw(), &ready_acts));
        wakes.min().map(Cycle)
    }

    /// Accounts for `cycles` consecutive skipped cycles during which the
    /// simulator proved (via [`Core::next_event`]) that this core takes
    /// no action: replays the per-cycle stall counters [`Core::tick`]'s
    /// bookkeeping phase would have accumulated, so metrics are
    /// bit-identical with and without fast-forwarding. Classified warps
    /// are charged by mask popcount; dirty warps by the per-warp rule.
    ///
    /// The caller must not skip past a classified warp's timer (the
    /// wake hints end every window at the earliest one); debug builds
    /// check it.
    pub fn fast_forward(&mut self, now: Cycle, cycles: u64) {
        if cycles == 0 || self.done() {
            return;
        }
        let nowr = now.raw();
        debug_assert!(
            bits(self.timed).all(|i| !(nowr + 1..=nowr + cycles).contains(&self.wake_at[i])),
            "{}: fast-forward over ({nowr}, {}] skips a warp's timer",
            self.id,
            nowr + cycles
        );
        self.charge_stalls(cycles);
        for i in bits(self.dirty) {
            let warp = &self.warps[i];
            if warp.done || warp.waiting_local.is_some() {
                continue;
            }
            if warp.at_fence {
                // The fence cannot retire inside the window (that would
                // have been an event), so every skipped cycle stalls.
                self.stats.fence_stall_cycles += cycles;
                continue;
            }
            // Timer comparisons are stable across the window: any timer
            // expiring inside it would have bounded the skip.
            if let Some((_, addr, _, is_sync)) = self.issue_intent(warp, nowr) {
                if !self.ordering_allows(warp, addr, is_sync) {
                    let prev = warp
                        .outstanding
                        .back()
                        .expect("ordering blocks only with outstanding ops")
                        .class
                        .prev_kind();
                    self.stats.record_sc_stall_cycles(prev, cycles);
                    self.warps[i].wait_for_issue += cycles;
                }
            }
        }
    }

    /// Charges `cycles` cycles of stalls to the classified warps: one
    /// fence stall per `fence` warp and one SC stall per `blocked` warp
    /// each cycle. Blocked warps' `wait_for_issue` follows `stall_clock`.
    fn charge_stalls(&mut self, cycles: u64) {
        self.stats.fence_stall_cycles += u64::from(self.fence.count_ones()) * cycles;
        for (kind, mask) in PREV_KINDS.into_iter().zip(self.blocked) {
            if mask != 0 {
                self.stats
                    .record_sc_stall_cycles(kind, u64::from(mask.count_ones()) * cycles);
            }
        }
        self.stall_clock += cycles;
    }

    /// Warp `i`'s `wait_for_issue` including the stall cycles it has
    /// accrued in `blocked` since it was classified.
    fn settled_wait(&self, i: usize) -> u64 {
        let warp = &self.warps[i];
        let blocked = self.blocked.iter().any(|m| m & 1 << i != 0);
        warp.wait_for_issue
            + if blocked {
                self.stall_clock - warp.blocked_since
            } else {
                0
            }
    }

    /// Drops warp `i`'s class before its state changes: settles its
    /// `wait_for_issue` and marks it dirty.
    fn unclassify(&mut self, i: usize) {
        let bit = 1 << i;
        self.warps[i].wait_for_issue = self.settled_wait(i);
        self.ready &= !bit;
        self.blocked = self.blocked.map(|m| m & !bit);
        self.fence &= !bit;
        self.timed &= !bit;
        self.dirty |= bit;
    }

    /// The earliest future cycle at which this core could act
    /// *differently* from the structural-reject retry it just executed,
    /// assuming no external input (completion, response, workgroup-epoch
    /// advance) arrives first. `None` means only external input can
    /// break the spin.
    ///
    /// Only meaningful immediately after a [`Core::tick`] whose issue
    /// attempt the L1 rejected. In that state the scheduler's choice is
    /// a fixed point: the rejected warp was the first eligible warp in
    /// the policy order and the pointer did not advance, so with the
    /// core and L1 state unchanged every subsequent cycle re-presents
    /// the same access and is rejected again. The fixed point holds
    /// until a timer reported here expires (another warp becomes
    /// eligible and can preempt, a GWCT fence retires) or external
    /// input changes core or L1 state — so, unlike [`Core::next_event`],
    /// warps that are merely *ready to issue* contribute no wake: ready
    /// warps sit behind the spinning warp in the visit order (an
    /// eligible warp ahead of it would have been chosen instead) and
    /// are never reached while the spin repeats.
    ///
    /// The skipped retries are not free: the simulator replays their
    /// bookkeeping via [`Core::fast_forward`] (other warps' stall
    /// counters), [`Core::replay_structural_stalls`], and the L1's
    /// matching reject-replay hook.
    pub fn stall_horizon(&self, now: Cycle) -> Option<Cycle> {
        // Ready or ordering-stalled warps with no live timer are inert:
        // the spin repeats ahead of them in the visit order, and their
        // stall counters are replayed by `fast_forward`. A timer expiring
        // right at the floor re-enables its warp, which can then preempt
        // the spinning warp.
        self.earliest_wake(now, false, |_, timer_pending| timer_pending)
    }

    /// Accounts for `cycles` skipped retry cycles during which the
    /// simulator proved (via [`Core::stall_horizon`]) that every tick
    /// would re-present the same access and be structurally rejected:
    /// replays the one counter each such [`Core::tick`] would have
    /// bumped. The L1's reject counter is replayed by its own hook.
    pub fn replay_structural_stalls(&mut self, cycles: u64) {
        self.stats.structural_stall_cycles += cycles;
    }

    /// Advances non-issuing warp state (fences, local waits, retirement)
    /// and counts ordering stalls, then issues at most one instruction
    /// via `try_access`.
    pub fn tick<F>(&mut self, cycle: Cycle, mut try_access: F) -> CoreOutput
    where
        F: FnMut(Access) -> AccessOutcome,
    {
        let now = cycle.raw();
        let mut out = CoreOutput::default();

        // Phase 1: bookkeeping and classification of the warps that may
        // have changed — dirty ones and those whose timer ran out. Every
        // other warp's class (and so what it would do when visited)
        // still stands; its stall counters grow by popcount below.
        let mut eval = self.dirty;
        for i in bits(self.timed) {
            if self.wake_at[i] <= now {
                eval |= 1 << i;
            }
        }
        self.dirty = 0;
        self.timed &= !eval;
        self.fence &= !eval;
        for i in bits(eval) {
            self.classify(i, now, &mut out);
        }
        self.charge_stalls(1);
        let ready = self.ready;
        if ready == 0 {
            return out;
        }

        // Phase 2: scheduling — the first ready warp in the policy's
        // preference order acts, and the tick ends.
        let n = self.warps.len();
        let i = match self.params.scheduler {
            // Rotate from the pointer: the lowest ready warp at or above
            // it, else the lowest ready warp overall.
            SchedPolicy::LooseRoundRobin => {
                let from_ptr = ready & (u64::MAX << self.sched_ptr);
                (if from_ptr != 0 { from_ptr } else { ready }).trailing_zeros() as usize
            }
            // Greedy: the last issuer first, then the oldest (lowest id).
            SchedPolicy::GreedyThenOldest => {
                let last = self.sched_ptr.checked_sub(1).unwrap_or(n - 1);
                if ready & (1 << last) != 0 {
                    last
                } else {
                    ready.trailing_zeros() as usize
                }
            }
        };
        let warp = &mut self.warps[i];
        let pc = warp.pc;
        // Compute / fence / local-wait / gate "issue" (no memory access;
        // a warp is in `Micro::Fresh` at these ops).
        match warp.current_op() {
            Some(MemOp::Compute(c)) => {
                warp.busy_until = now + c.max(1) as u64;
                warp.pc += 1;
            }
            Some(MemOp::Fence) => {
                if self.params.fence_policy == FencePolicy::Free {
                    warp.pc += 1;
                } else {
                    warp.at_fence = true;
                }
            }
            Some(MemOp::LocalWait { epoch }) => {
                if self.wg_epochs[warp.wg_index] >= epoch {
                    warp.pc += 1;
                } else {
                    warp.waiting_local = Some(epoch);
                }
            }
            // The gate has passed: retire it. (Before `t` the warp simply
            // has no intent and accrues no stalls — it is idle, not
            // stalled.)
            Some(MemOp::WaitUntil(_)) => warp.pc += 1,
            _ => {
                // Memory issue.
                let (kind, addr, purpose, _) = self
                    .issue_intent(&self.warps[i], now)
                    .expect("a ready warp with a memory op has an intent");
                // First presentation of the program op at `pc` (as
                // opposed to a lock-CAS retry or barrier re-poll out of a
                // backoff state) — what the trace recorder pins the issue
                // cycle of.
                let first_issue = self.warps[i].micro == Micro::Fresh;
                let access = Access {
                    warp: WarpId(i),
                    addr,
                    kind,
                };
                match try_access(access) {
                    AccessOutcome::Reject(_) => {
                        self.stats.structural_stall_cycles += 1;
                        // Retry next cycle; do not advance the pointer so
                        // the rejected warp gets another shot. Nothing
                        // changed, so the warp stays ready.
                        return out;
                    }
                    outcome => {
                        if first_issue {
                            out.issued_op = Some((i, pc));
                        }
                        self.unclassify(i);
                        self.note_issue(i, cycle, addr, kind, purpose);
                        if let AccessOutcome::Done(c) = outcome {
                            self.complete(cycle, &c);
                        }
                        self.sched_ptr = (i + 1) % n;
                        return out;
                    }
                }
            }
        }
        // The warp acted: its class no longer holds.
        self.unclassify(i);
        out.issued_op = Some((i, pc));
        self.stats.issued += 1;
        self.sched_ptr = (i + 1) % n;
        out
    }

    /// Phase 1 for warp `i`: releases its local wait, retires its fence
    /// or its program, and records the class it holds until it is next
    /// marked dirty or its timer runs out.
    fn classify(&mut self, i: usize, now: u64, out: &mut CoreOutput) {
        let fence_policy = self.params.fence_policy;
        let epoch = self.wg_epochs[self.warps[i].wg_index];
        let warp = &mut self.warps[i];
        if warp.done {
            return;
        }
        // Local (intra-workgroup) barrier release.
        if let Some(need) = warp.waiting_local {
            if epoch >= need {
                warp.waiting_local = None;
                warp.pc += 1;
            }
        }
        let bit = 1 << i;
        // Fence retirement.
        if warp.at_fence {
            let drained = warp.outstanding.is_empty();
            let gwct_ok = fence_policy != FencePolicy::DrainGwct || now > warp.max_gwct;
            if drained && gwct_ok {
                warp.at_fence = false;
                warp.pc += 1;
                out.fences_retired.push(WarpId(i));
            } else {
                self.fence |= bit;
                if drained {
                    // Only the GWCT holds it: it retires once `now`
                    // passes the warp's write completion time.
                    self.wake_at[i] = warp.max_gwct + 1;
                    self.timed |= bit;
                }
                return;
            }
        }
        // Program retirement.
        if warp.pc >= warp.program.len()
            && warp.outstanding.is_empty()
            && warp.micro == Micro::Fresh
        {
            warp.done = true;
            self.retired_warps += 1;
            return;
        }
        let warp = &self.warps[i];
        match self.issue_intent(warp, now) {
            Some((_, addr, _, is_sync)) => {
                if self.ordering_allows(warp, addr, is_sync) {
                    self.ready |= bit;
                } else {
                    // SC stall: the warp has an access it would issue
                    // this cycle but ordering forbids it.
                    let class = warp
                        .outstanding
                        .back()
                        .expect("ordering blocks only with outstanding ops")
                        .class;
                    self.blocked[class as usize] |= bit;
                    self.warps[i].blocked_since = self.stall_clock;
                }
            }
            None => {
                if Self::runs_without_memory(warp, now) {
                    self.ready |= bit;
                } else if let Some(t) = warp.idle_timer(now) {
                    self.wake_at[i] = t;
                    self.timed |= bit;
                }
            }
        }
    }

    /// Whether the warp's op at `pc` executes without a memory access
    /// when the scheduler visits it this cycle: a compute op, a fence, a
    /// local wait not yet parked, or a replay gate whose cycle has come.
    fn runs_without_memory(warp: &Warp, now: u64) -> bool {
        if warp.done || warp.busy_until > now || warp.at_fence || warp.micro != Micro::Fresh {
            return false;
        }
        match warp.current_op() {
            Some(MemOp::Compute(_) | MemOp::Fence) => true,
            Some(MemOp::LocalWait { .. }) => warp.waiting_local.is_none(),
            Some(MemOp::WaitUntil(t)) => now >= t,
            _ => false,
        }
    }

    fn note_issue(
        &mut self,
        i: usize,
        cycle: Cycle,
        addr: WordAddr,
        kind: AccessKind,
        purpose: Purpose,
    ) {
        let class = match kind {
            AccessKind::Load => OpClass::Load,
            AccessKind::Store { .. } => OpClass::Store,
            AccessKind::Atomic { .. } => OpClass::Atomic,
        };
        self.stats.issued += 1;
        self.stats.mem_ops += 1;
        if matches!(purpose, Purpose::BarrierPoll { .. }) {
            self.stats.barrier_polls += 1;
        }
        let warp = &mut self.warps[i];
        if warp.wait_for_issue > 0 {
            self.stats.stalled_mem_ops += 1;
            self.stats.stall_resolve.record(warp.wait_for_issue);
            warp.wait_for_issue = 0;
        }
        warp.outstanding.push_back(Outstanding {
            addr,
            class,
            purpose,
            issued: cycle,
        });
        match purpose {
            Purpose::Plain => {
                // The program op is now in flight; advance past it. Under
                // SC the warp simply cannot issue the next one until the
                // completion arrives.
                warp.micro = Micro::Fresh;
                warp.pc += 1;
            }
            _ => warp.micro = Micro::SyncWait,
        }
    }

    /// Delivers a memory completion to its warp.
    pub fn complete(&mut self, cycle: Cycle, completion: &Completion) {
        let i = completion.warp.index();
        self.unclassify(i);
        let class = match completion.kind {
            CompletionKind::LoadDone { .. } => OpClass::Load,
            CompletionKind::StoreDone => OpClass::Store,
            CompletionKind::AtomicDone { .. } => OpClass::Atomic,
        };
        let warp = &mut self.warps[i];
        let pos = warp
            .outstanding
            .iter()
            .position(|o| o.addr == completion.addr && o.class == class)
            .unwrap_or_else(|| {
                panic!(
                    "{}/{} completion for {} with no outstanding access",
                    self.id, completion.warp, completion.addr
                )
            });
        let o = warp.outstanding.remove(pos).expect("position valid");
        let latency = cycle.raw() - o.issued.raw();
        match o.class {
            OpClass::Load => self.stats.load_latency.record(latency),
            OpClass::Store => self.stats.store_latency.record(latency),
            OpClass::Atomic => self.stats.atomic_latency.record(latency),
        }
        if matches!(
            completion.kind,
            CompletionKind::StoreDone | CompletionKind::AtomicDone { .. }
        ) {
            // Stores and atomics both write; under TC-Weak their ts is
            // the GWCT a subsequent fence must wait out.
            warp.max_gwct = warp.max_gwct.max(completion.ts.raw());
        }
        match o.purpose {
            Purpose::Plain => {}
            Purpose::Unlock => {
                warp.micro = Micro::Fresh;
                warp.pc += 1;
            }
            Purpose::LockAttempt => {
                let CompletionKind::AtomicDone { old } = completion.kind else {
                    panic!("lock attempt must complete as an atomic");
                };
                if old == 0 {
                    warp.micro = Micro::Fresh;
                    warp.pc += 1;
                } else {
                    self.stats.lock_retries += 1;
                    let backoff = self.params.lock_backoff + (i as u64 * 7) % 64;
                    warp.micro = Micro::LockBackoff {
                        until: cycle.raw() + backoff,
                    };
                }
            }
            Purpose::BarrierArrive { members } | Purpose::BarrierPoll { members } => {
                let CompletionKind::AtomicDone { old } = completion.kind else {
                    panic!("barrier ops must complete as atomics");
                };
                let seen = if matches!(o.purpose, Purpose::BarrierArrive { .. }) {
                    old + 1
                } else {
                    old
                };
                if seen >= members {
                    warp.micro = Micro::Fresh;
                    warp.pc += 1;
                    warp.barriers_passed += 1;
                    let wg = warp.wg_index;
                    let passed = warp.barriers_passed;
                    if passed > self.wg_epochs[wg] {
                        self.wg_epochs[wg] = passed;
                        // The workgroup's local waiters may be released.
                        let wpw = self.params.warps_per_workgroup.max(1);
                        for j in wg * wpw..((wg + 1) * wpw).min(self.warps.len()) {
                            if self.warps[j].waiting_local.is_some() {
                                self.unclassify(j);
                            }
                        }
                    }
                } else {
                    warp.micro = Micro::BarrierBackoff {
                        until: cycle.raw() + self.params.poll_interval,
                    };
                }
            }
        }
    }
}

#[cfg(test)]
mod tests;
