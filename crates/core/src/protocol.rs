//! The protocol-agnostic controller interface every coherence protocol
//! implements, plus the per-controller statistics the figures are
//! computed from.
//!
//! Controllers are pure FSMs: they never model latency. The simulator in
//! `rcc-sim` delivers events (core accesses, network messages, DRAM fills)
//! and moves outbox contents through the timed NoC/DRAM models.

use crate::kind::ProtocolKind;
use crate::msg::{Access, AccessOutcome, Completion, ReqMsg, RespMsg};
use rcc_common::addr::LineAddr;
use rcc_common::config::GpuConfig;
use rcc_common::ids::{CoreId, PartitionId};
use rcc_common::time::{Cycle, Timestamp};
use rcc_mem::LineData;

/// Messages and events produced by an L1 controller in one step.
#[derive(Debug, Default)]
pub struct L1Outbox {
    /// Requests to send to L2 partitions.
    pub to_l2: Vec<ReqMsg>,
    /// Completions to deliver to the core's LSU.
    pub completions: Vec<Completion>,
}

impl L1Outbox {
    /// Creates an empty outbox.
    pub fn new() -> Self {
        Self::default()
    }

    /// Moves all contents of `other` into `self`.
    pub fn append(&mut self, other: &mut L1Outbox) {
        self.to_l2.append(&mut other.to_l2);
        self.completions.append(&mut other.completions);
    }

    /// Discards all contents, keeping the allocated capacity.
    pub fn clear(&mut self) {
        self.to_l2.clear();
        self.completions.clear();
    }

    /// True if nothing was produced.
    pub fn is_empty(&self) -> bool {
        self.to_l2.is_empty() && self.completions.is_empty()
    }
}

/// A zero-cost coherence action SC-IDEAL applies to an L1 copy
/// out-of-band — the idealization of instantaneous write permissions
/// (Fig. 1d). Real protocols pay messages for the same effects.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MagicAction {
    /// Drop the copy (the L2 evicted the line).
    Invalidate,
    /// Refresh one word of the copy in place (a remote store or atomic
    /// was applied at the L2 this cycle).
    Update {
        /// Word index within the line.
        word: usize,
        /// The word's new value.
        value: u64,
    },
}

/// Messages and events produced by an L2 bank in one step.
#[derive(Debug, Default)]
pub struct L2Outbox {
    /// Responses to send to L1s.
    pub to_l1: Vec<RespMsg>,
    /// Lines to fetch from DRAM.
    pub dram_fetch: Vec<LineAddr>,
    /// Dirty lines written back to DRAM.
    pub dram_writeback: Vec<(LineAddr, LineData)>,
    /// SC-IDEAL only: coherence actions applied to L1 copies instantly,
    /// bypassing the network (zero latency, zero traffic).
    pub magic_inv: Vec<(CoreId, LineAddr, MagicAction)>,
}

impl L2Outbox {
    /// Creates an empty outbox.
    pub fn new() -> Self {
        Self::default()
    }

    /// Discards all contents, keeping the allocated capacity.
    pub fn clear(&mut self) {
        self.to_l1.clear();
        self.dram_fetch.clear();
        self.dram_writeback.clear();
        self.magic_inv.clear();
    }

    /// True if nothing was produced.
    pub fn is_empty(&self) -> bool {
        self.to_l1.is_empty()
            && self.dram_fetch.is_empty()
            && self.dram_writeback.is_empty()
            && self.magic_inv.is_empty()
    }
}

/// Counters maintained by every L1 controller.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct L1Stats {
    /// Load accesses presented.
    pub loads: u64,
    /// Loads served from the L1 (valid, unexpired).
    pub load_hits: u64,
    /// Loads that found the line in V state but logically expired
    /// (numerator of Fig. 6 left).
    pub expired_loads: u64,
    /// Expired loads whose data was refreshed by a RENEW (no transfer) —
    /// these expirations were premature (Fig. 6 right / Fig. 7).
    pub renewed_loads: u64,
    /// Store accesses presented.
    pub stores: u64,
    /// Atomic accesses presented.
    pub atomics: u64,
    /// Lines self-invalidated by lease expiry at replacement or access.
    pub self_invalidations: u64,
    /// Accesses rejected for structural reasons (MSHR pressure).
    pub rejects: u64,
    /// Invalidation messages received (MESI).
    pub invs_received: u64,
}

impl L1Stats {
    /// Field-wise difference `self − earlier`. Counters are monotone, so
    /// this is the exact delta accumulated since `earlier` was cloned.
    #[must_use]
    pub fn delta_since(&self, earlier: &L1Stats) -> L1Stats {
        // Exhaustive destructuring: adding a counter without updating
        // the replay arithmetic must fail to compile.
        let L1Stats {
            loads,
            load_hits,
            expired_loads,
            renewed_loads,
            stores,
            atomics,
            self_invalidations,
            rejects,
            invs_received,
        } = earlier;
        L1Stats {
            loads: self.loads - loads,
            load_hits: self.load_hits - load_hits,
            expired_loads: self.expired_loads - expired_loads,
            renewed_loads: self.renewed_loads - renewed_loads,
            stores: self.stores - stores,
            atomics: self.atomics - atomics,
            self_invalidations: self.self_invalidations - self_invalidations,
            rejects: self.rejects - rejects,
            invs_received: self.invs_received - invs_received,
        }
    }

    /// Adds `times` copies of `delta` to every counter — the replay
    /// primitive for skipped cycles proven to repeat one bookkeeping
    /// pattern exactly (a core's structural reject-spin).
    pub fn add_scaled(&mut self, delta: &L1Stats, times: u64) {
        let L1Stats {
            loads,
            load_hits,
            expired_loads,
            renewed_loads,
            stores,
            atomics,
            self_invalidations,
            rejects,
            invs_received,
        } = delta;
        self.loads += loads * times;
        self.load_hits += load_hits * times;
        self.expired_loads += expired_loads * times;
        self.renewed_loads += renewed_loads * times;
        self.stores += stores * times;
        self.atomics += atomics * times;
        self.self_invalidations += self_invalidations * times;
        self.rejects += rejects * times;
        self.invs_received += invs_received * times;
    }
}

/// Counters maintained by every L2 bank.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct L2Stats {
    /// GETS requests served.
    pub gets: u64,
    /// GETS served as lease renewals (no data transferred).
    pub renews_granted: u64,
    /// WRITE requests served.
    pub writes: u64,
    /// ATOMIC requests served.
    pub atomics: u64,
    /// DRAM line fetches issued.
    pub dram_fetches: u64,
    /// Dirty writebacks issued.
    pub writebacks: u64,
    /// Invalidations sent to L1 sharers (MESI).
    pub invs_sent: u64,
    /// Store requests that had to wait for lease expiry (TC-Strong) or
    /// sharer invalidation (MESI) before being acknowledged.
    pub stalled_stores: u64,
    /// Total cycles stores spent waiting at the L2 for write permission.
    pub store_stall_cycles: u64,
}

/// A protocol configuration: a factory for its L1 and L2 controllers.
pub trait Protocol {
    /// Per-core L1 controller type.
    type L1: L1Cache;
    /// Per-partition L2 controller type.
    type L2: L2Bank;

    /// Which configuration this is.
    fn kind(&self) -> ProtocolKind;

    /// Builds the L1 controller for `core`.
    fn make_l1(&self, core: CoreId, cfg: &GpuConfig) -> Self::L1;

    /// Builds the L2 controller for `partition`.
    fn make_l2(&self, partition: PartitionId, cfg: &GpuConfig) -> Self::L2;
}

/// Core-side coherence controller for one L1 cache.
///
/// `Debug` is a supertrait so every controller's full state — tag
/// arrays, MSHR files, leases, chaos streams — can be folded into a
/// cross-component digest ([`L1Cache::digest_state`]) for checkpoint
/// attestation and hang forensics.
pub trait L1Cache: std::fmt::Debug {
    /// Presents one warp memory access. On `Pending`, a [`Completion`]
    /// with the access's `ReqId`-matched result will eventually appear in
    /// an outbox.
    fn access(&mut self, cycle: Cycle, access: Access, out: &mut L1Outbox) -> AccessOutcome;

    /// Delivers a response (or MESI invalidation / RCC flush) from the L2.
    fn handle_resp(&mut self, cycle: Cycle, resp: RespMsg, out: &mut L1Outbox);

    /// Advances per-cycle state (physical lease expiry for TC, livelock
    /// bump for RCC). Called once per core cycle.
    fn tick(&mut self, cycle: Cycle, out: &mut L1Outbox);

    /// A FENCE retired on this core (RCC-WO joins its read/write views;
    /// other protocols need no L1 action).
    fn fence(&mut self) {}

    /// Accounts for `times` skipped retry cycles during which the
    /// simulator proved this controller would structurally reject the
    /// same access every cycle (a core stuck in a reject-spin, see
    /// `Core::stall_horizon` in `rcc-gpu`). `delta` is the exact
    /// per-retry stat delta the engine observed on the executed reject.
    /// Valid because a rejected access changes *only* counters — every
    /// in-repo controller satisfies that (tag probes on the reject path
    /// are read-only and failed MSHR allocations do not mutate).
    fn replay_rejected_access(&mut self, delta: &L1Stats, times: u64) {
        self.stats_mut().add_scaled(delta, times);
    }

    /// Installs a chaos perturbation hook. Default: ignore (no injection
    /// points). Controllers that opt in forward the hook — or forks of
    /// it — to their injection sites (MSHR files, lease grants, …).
    fn set_chaos(&mut self, _hook: Box<dyn rcc_chaos::PerturbPoint>) {}

    /// Applies a zero-cost out-of-band coherence action (SC-IDEAL only;
    /// real protocols never receive these).
    fn magic(&mut self, _cycle: Cycle, _line: LineAddr, _action: MagicAction) {}

    /// Number of outstanding requests (used to quiesce for rollover and
    /// to detect deadlock).
    fn pending(&self) -> usize;

    /// The earliest future cycle at which this controller would act
    /// *spontaneously* — i.e. its [`L1Cache::tick`] would do something
    /// even if no access or response arrives first. `None` means "never:
    /// only external input wakes me". Used by the simulator to fast
    /// forward over idle stretches, so the contract is strict: returning
    /// a cycle *later* than the true next action would skip real work
    /// and corrupt the run; returning one earlier merely costs a wasted
    /// tick. The conservative default, `now + 1`, claims work every
    /// cycle and therefore disables fast-forwarding for controllers
    /// that don't override it.
    fn next_event(&self, now: Cycle) -> Option<Cycle> {
        Some(now + 1)
    }

    /// Folds the controller's full state into a cross-component state
    /// digest. The default streams the `Debug` rendering, which is
    /// deterministic per binary and — because the in-repo hash maps
    /// iterate in insertion order under deterministic replay — equal for
    /// equal histories.
    fn digest_state(&self, d: &mut rcc_common::snap::StateDigest) {
        d.write_debug(self);
    }

    /// Statistics.
    fn stats(&self) -> &L1Stats;

    /// Statistics, for the bookkeeping this trait provides
    /// ([`L1Cache::replay_rejected_access`]).
    fn stats_mut(&mut self) -> &mut L1Stats;
}

/// One bank/partition of the shared L2 cache.
///
/// `Debug` is a supertrait for the same reason as on [`L1Cache`]: state
/// digests for checkpoint attestation and hang forensics.
pub trait L2Bank: std::fmt::Debug {
    /// Delivers one request from an L1.
    ///
    /// # Errors
    ///
    /// Returns `Err(req)` — handing the unconsumed request back — when
    /// the bank cannot accept it this cycle (MSHR full / no victim way);
    /// the simulator re-queues the returned message and retries it,
    /// preserving per-source order without ever cloning the payload.
    fn handle_req(&mut self, cycle: Cycle, req: ReqMsg, out: &mut L2Outbox) -> Result<(), ReqMsg>;

    /// Delivers a DRAM fill for `line`: a boxed snapshot of backing
    /// memory, which the bank moves into its tag array.
    fn handle_dram(
        &mut self,
        cycle: Cycle,
        line: LineAddr,
        data: Box<LineData>,
        out: &mut L2Outbox,
    );

    /// Advances per-cycle state (TC-Strong releases stores whose leases
    /// have expired). Called once per core cycle.
    fn tick(&mut self, cycle: Cycle, out: &mut L2Outbox);

    /// Installs a chaos perturbation hook (see [`L1Cache::set_chaos`]).
    /// L2 banks must *not* forward the hook to their MSHR files: a
    /// deferred request that finds the file full waits for a DRAM fill to
    /// free an entry, and a squeeze with no fill outstanding would leave
    /// it waiting for ever.
    fn set_chaos(&mut self, _hook: Box<dyn rcc_chaos::PerturbPoint>) {}

    /// Whether this bank's timestamps are close enough to the rollover
    /// threshold that the global rollover protocol must run (RCC only).
    fn needs_rollover(&self) -> bool {
        false
    }

    /// Resets all timestamps to zero (rollover, Section III-D). Only
    /// meaningful for timestamp protocols; called with the system
    /// quiesced.
    fn rollover_reset(&mut self) {}

    /// Number of outstanding transactions (MSHRs + deferred requests).
    fn pending(&self) -> usize;

    /// The bank's logical clock, for timestamp protocols: the largest
    /// timestamp this bank has minted so far. `None` for physical-time
    /// protocols. Observability only — the sampler records it as a
    /// per-bank counter track; nothing on the simulated path reads it.
    fn logical_time(&self) -> Option<Timestamp> {
        None
    }

    /// The earliest future cycle at which this bank's [`L2Bank::tick`]
    /// would act with no further input (e.g. TC-Strong releasing a
    /// stalled store once the blocking lease expires). Same contract as
    /// [`L1Cache::next_event`]: never later than the truth; `None` means
    /// purely reactive; the default `now + 1` opts out of
    /// fast-forwarding.
    fn next_event(&self, now: Cycle) -> Option<Cycle> {
        Some(now + 1)
    }

    /// Folds the bank's full state into a cross-component state digest
    /// (see [`L1Cache::digest_state`]).
    fn digest_state(&self, d: &mut rcc_common::snap::StateDigest) {
        d.write_debug(self);
    }

    /// Statistics.
    fn stats(&self) -> &L2Stats;
}
