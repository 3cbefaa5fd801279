//! RCC L1 cache controller (Fig. 5, left table).
//!
//! Stable states are V and I; the transient states IV, II and VI of the
//! paper are *derived* here from two facts the controller tracks per
//! MSHR entry — whether a GETS is outstanding and whether write acks are
//! pending — combined with whether the block is readable in the tag array:
//!
//! | derived state | GETS outstanding | writes pending | block readable |
//! |---------------|------------------|----------------|----------------|
//! | IV            | yes              | no             | —              |
//! | II            | maybe            | yes            | no             |
//! | VI            | maybe            | yes            | yes            |
//!
//! This encoding makes the state transitions of Fig. 5 fall out of plain
//! data-structure updates, and [`RccL1::derived_state`] recovers the
//! paper's state names for tests and debugging.

use crate::l1::{self, PendingWrite};
use crate::msg::{
    Access, AccessKind, AccessOutcome, Completion, CompletionKind, ReqId, ReqMsg, ReqPayload,
    RespMsg, RespPayload,
};
use crate::protocol::{L1Cache, L1Outbox, L1Stats};
use rcc_chaos::{PerturbPoint, Site};
use rcc_common::addr::{LineAddr, WordAddr};
use rcc_common::config::{GpuConfig, RccParams};
use rcc_common::ids::{CoreId, WarpId};
use rcc_common::time::{Cycle, Timestamp};
use rcc_mem::{LineData, MshrFile, TagArray};
use std::collections::VecDeque;

/// Whether the core keeps one logical view (SC) or split read/write views
/// joined at fences (WO, Section III-F).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ViewMode {
    /// RCC-SC: a single `now` per core.
    Sc,
    /// RCC-WO: separate read and write views.
    Wo,
}

/// The paper's L1 state names, derived for inspection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum L1State {
    /// Invalid / not present.
    I,
    /// Valid with an unexpired lease.
    V,
    /// Valid in the tag array but the lease has logically expired
    /// (treated as I for memory operations and replacement).
    VExpired,
    /// Load miss outstanding.
    Iv,
    /// Write(s) outstanding, block not readable.
    Ii,
    /// Write(s) outstanding, block still readable by other warps.
    Vi,
}

/// Per-line metadata in the L1 tag array: the lease expiration
/// (write-through L1s need no `ver` — Section III-A) plus the bank
/// service slot of the fill, which orders hits against same-version
/// writes at the bank.
#[derive(Debug, Clone, Copy)]
struct L1Meta {
    exp: Timestamp,
    fill_seq: u64,
}

/// A load merged into an MSHR entry. `issue_now` is the core's read view
/// when the load was accepted: the load's SC position is
/// `max(issue_now, data.ver)`, which stays within the granted lease even
/// if unrelated store acks advance the core's clock while the data is in
/// flight.
#[derive(Debug, Clone, Copy)]
struct WaitingLoad {
    warp: WarpId,
    addr: WordAddr,
    issue_now: Timestamp,
}

/// MSHR entry: merged loads waiting for data plus writes awaiting acks.
#[derive(Debug, Clone, Default)]
struct L1Entry {
    waiting_loads: Vec<WaitingLoad>,
    pending_writes: VecDeque<PendingWrite>,
    gets_outstanding: bool,
}

/// The RCC L1 controller for one core.
#[derive(Clone)]
#[cfg_attr(not(feature = "bug-injection"), derive(Debug))]
pub struct RccL1 {
    core: CoreId,
    mode: ViewMode,
    params: RccParams,
    /// Read view (`now` in the paper; the only view in SC mode).
    read_now: Timestamp,
    /// Write view (equal to `read_now` in SC mode).
    write_now: Timestamp,
    tags: TagArray<L1Meta>,
    mshrs: MshrFile<L1Entry>,
    next_req: u64,
    stats: L1Stats,
    /// Chaos hook for the canary injection (`Site::CanaryStaleHit`);
    /// a fork of it drives the MSHR squeeze.
    chaos: Option<Box<dyn PerturbPoint>>,
    /// Seeded fault for verification: when set, [`Self::is_readable`]
    /// ignores lease expiry, so loads hit on logically stale copies.
    #[cfg(feature = "bug-injection")]
    lease_bug: bool,
}

/// The derived `Debug` plus the seeded fault, shown only when armed.
/// `Debug` output feeds the state digest, so an unarmed controller must
/// digest the same whether or not cargo's feature unification compiled
/// the fault in (`rcc-verify`'s tests turn the feature on for every
/// crate of a workspace test build).
#[cfg(feature = "bug-injection")]
impl std::fmt::Debug for RccL1 {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let mut d = f.debug_struct("RccL1");
        d.field("core", &self.core)
            .field("mode", &self.mode)
            .field("params", &self.params)
            .field("read_now", &self.read_now)
            .field("write_now", &self.write_now)
            .field("tags", &self.tags)
            .field("mshrs", &self.mshrs)
            .field("next_req", &self.next_req)
            .field("stats", &self.stats)
            .field("chaos", &self.chaos);
        if self.lease_bug {
            d.field("lease_bug", &self.lease_bug);
        }
        d.finish()
    }
}

impl RccL1 {
    /// Creates the controller for `core` from the machine configuration.
    pub fn new(core: CoreId, cfg: &GpuConfig, params: RccParams, mode: ViewMode) -> Self {
        let (tags, mshrs) = l1::arrays(cfg);
        RccL1 {
            core,
            mode,
            params,
            read_now: Timestamp::ZERO,
            write_now: Timestamp::ZERO,
            tags,
            mshrs,
            next_req: 1,
            stats: L1Stats::default(),
            chaos: None,
            #[cfg(feature = "bug-injection")]
            lease_bug: false,
        }
    }

    /// Arms the seeded lease-check bug (dormant until called even with
    /// the feature compiled in). The model checker in `rcc-verify` must
    /// find the resulting SC violation.
    #[cfg(feature = "bug-injection")]
    pub fn inject_lease_bug(&mut self) {
        self.lease_bug = true;
    }

    /// The core's current logical read view (`now`).
    pub fn now(&self) -> Timestamp {
        self.read_now
    }

    /// The core's current logical write view (equals [`Self::now`] in SC
    /// mode).
    pub fn write_view(&self) -> Timestamp {
        self.write_now
    }

    /// Advances the logical clock(s) directly — used by tests and by the
    /// livelock-avoidance bump.
    pub fn advance_now(&mut self, to: Timestamp) {
        self.read_now = self.read_now.join(to);
        self.write_now = self.write_now.join(to);
    }

    /// Installs a line with the given data and lease expiration, as if a
    /// DATA response had filled it. Intended for setting up scenarios in
    /// tests and examples (e.g. the paper's Fig. 3 walkthrough).
    pub fn install_line(&mut self, line: LineAddr, data: LineData, exp: Timestamp) {
        self.tags
            .fill(line, L1Meta { exp, fill_seq: 0 }, data, false, |_, _| true)
            .expect("install target set has room");
    }

    /// Recovers the paper's state name for `line` (tests / debugging).
    pub fn derived_state(&self, line: LineAddr) -> L1State {
        let readable = self.is_readable(line);
        match self.mshrs.get(line) {
            Some(e) if !e.pending_writes.is_empty() => {
                if readable {
                    L1State::Vi
                } else {
                    L1State::Ii
                }
            }
            Some(_) => L1State::Iv,
            None => match self.tags.probe(line) {
                Some(l) if self.read_now <= l.state.exp => L1State::V,
                Some(_) => L1State::VExpired,
                None => L1State::I,
            },
        }
    }

    /// The lease expiration currently recorded for `line`, if resident.
    pub fn lease_exp(&self, line: LineAddr) -> Option<Timestamp> {
        self.tags.probe(line).map(|l| l.state.exp)
    }

    fn is_readable(&self, line: LineAddr) -> bool {
        #[cfg(feature = "bug-injection")]
        if self.lease_bug {
            return self.tags.probe(line).is_some();
        }
        self.tags
            .probe(line)
            .is_some_and(|l| self.read_now <= l.state.exp)
    }

    fn advance_read(&mut self, ver: Timestamp) {
        self.read_now = self.read_now.join(ver);
        if self.mode == ViewMode::Sc {
            self.write_now = self.read_now;
        }
    }

    fn advance_write(&mut self, ver: Timestamp) {
        self.write_now = self.write_now.join(ver);
        if self.mode == ViewMode::Sc {
            self.read_now = self.write_now;
        }
    }

    /// Sends a GETS for `line` if none is outstanding, carrying an
    /// expired lease's `exp` when its stale data is still resident (the
    /// RENEW hint of Section III-E).
    fn send_gets(&mut self, line: LineAddr, renew_exp: Option<Timestamp>, out: &mut L1Outbox) {
        let renew = renew_exp.filter(|_| self.params.renew_enabled);
        let now = self.read_now;
        let entry = self.mshrs.get_mut(line).expect("entry exists");
        l1::send_gets(
            &mut entry.gets_outstanding,
            self.core,
            line,
            now,
            renew,
            out,
        );
    }

    /// Canary (deliberately unsound; fires only under the chaos `canary`
    /// profile): serve a load from a resident line whose lease has
    /// expired, as if a lease extension the L1 never received had been
    /// granted. The runtime SC sanitizer must flag the resulting stale
    /// read.
    fn canary_fires(&mut self, line: LineAddr) -> bool {
        match &mut self.chaos {
            Some(c) if self.tags.probe(line).is_some() => c.fires(Site::CanaryStaleHit),
            _ => false,
        }
    }

    fn start_load(&mut self, access: Access, out: &mut L1Outbox) -> AccessOutcome {
        let line = access.addr.line();
        // A readable block hits even while writes to it are outstanding
        // (derived VI) — important because round trips to L2 take
        // hundreds of cycles (Section III-C).
        if self.is_readable(line) || self.canary_fires(line) {
            // Same-version ties resolve by bank order: this copy knows
            // exactly the writes serviced before its fill.
            let ts = self.read_now;
            return AccessOutcome::Done(l1::hit(&mut self.tags, &access, ts, |m| m.fill_seq));
        }
        let stale = self.tags.probe(line).map(|l| l.state.exp);
        if stale.is_some() {
            // V-but-expired: the numerator of Fig. 6 (left). The stale
            // data stays resident so a RENEW can revalidate it without a
            // data transfer.
            self.stats.expired_loads += 1;
        }
        let waiting = WaitingLoad {
            warp: access.warp,
            addr: access.addr,
            issue_now: self.read_now,
        };
        if let Err(reason) = l1::admit(&mut self.mshrs, line, |e| e.waiting_loads.push(waiting)) {
            return AccessOutcome::Reject(reason);
        }
        self.send_gets(line, stale, out);
        AccessOutcome::Pending
    }

    /// Completes the write `id` the L2 acknowledged at (`ts`, `seq`),
    /// and releases the MSHR entry if nothing remains outstanding; after
    /// the final write ack the block transitions to I (Fig. 4: II/VI → I
    /// on ST/AT reply), modelling write-no-allocate.
    fn complete_write(
        &mut self,
        line: LineAddr,
        id: ReqId,
        kind: CompletionKind,
        ts: Timestamp,
        seq: u64,
        out: &mut L1Outbox,
    ) {
        let entry = self.mshrs.get_mut(line).expect("ack without entry");
        out.completions
            .push(l1::ack(&mut entry.pending_writes, id, kind, ts, seq));
        if entry.pending_writes.is_empty() && !entry.gets_outstanding {
            debug_assert!(entry.waiting_loads.is_empty());
            self.mshrs.release(line);
            if self.tags.invalidate(line).is_some() {
                self.stats.self_invalidations += 1;
            }
        }
    }

    /// Completes the merged loads the lease covers (`issue_now ≤ exp`)
    /// against `data`, and returns how many it completed. Rule 3
    /// guarantees any later write's version exceeds `exp`, so the data is
    /// current at every covered position: each load is positioned at
    /// `max(its issue-time now, ver)`, after every write the data
    /// incorporates, with the serving bank slot `seq` breaking
    /// same-version ties. Loads that merged past the lease window stay
    /// in the entry and are re-requested.
    fn complete_waiting_loads(
        &mut self,
        line: LineAddr,
        data: &LineData,
        ver: Timestamp,
        exp: Timestamp,
        seq: u64,
        out: &mut L1Outbox,
    ) -> usize {
        let entry = self.mshrs.get_mut(line).expect("entry exists");
        let loads = std::mem::take(&mut entry.waiting_loads);
        let mut n = 0;
        let mut refetch = Vec::new();
        for w in loads {
            if w.issue_now > exp {
                refetch.push(w);
                continue;
            }
            n += 1;
            out.completions.push(Completion {
                warp: w.warp,
                addr: w.addr,
                kind: CompletionKind::LoadDone {
                    value: data.word_at(w.addr),
                },
                ts: w.issue_now.join(ver),
                seq,
            });
        }
        if !refetch.is_empty() {
            self.mshrs
                .get_mut(line)
                .expect("entry exists")
                .waiting_loads = refetch;
            self.send_gets(line, Some(exp), out);
        }
        n
    }
}

impl L1Cache for RccL1 {
    fn access(&mut self, _cycle: Cycle, access: Access, out: &mut L1Outbox) -> AccessOutcome {
        let outcome = match access.kind {
            AccessKind::Load => self.start_load(access, out),
            // Write-through: the request goes straight to the L2 (Fig. 5
            // emits WRITE/ATOMIC from every state). Write permissions need
            // no round trip — the L2 will grant them by advancing logical
            // time.
            AccessKind::Store { .. } | AccessKind::Atomic { .. } => l1::send_write(
                self.core,
                &mut self.next_req,
                &mut self.mshrs,
                access,
                self.write_now,
                |e, w| e.pending_writes.push_back(w),
                out,
            ),
        };
        l1::count(&mut self.stats, access.kind, outcome)
    }

    fn handle_resp(&mut self, _cycle: Cycle, resp: RespMsg, out: &mut L1Outbox) {
        let line = resp.line;
        match resp.payload {
            RespPayload::Data {
                data,
                ver,
                exp,
                seq,
            } => {
                // Rule 1: never observe a value "from the future".
                self.advance_read(ver);
                let entry = self.mshrs.get_mut(line).expect("DATA without entry");
                entry.gets_outstanding = false;
                self.complete_waiting_loads(line, &data, ver, exp, seq, out);
                // Cache the line; lines with MSHR entries are pinned so a
                // pending RENEW always finds its data. If every way is
                // pinned, skip allocation (the loads completed already).
                let mshrs = &self.mshrs;
                let _ = self.tags.fill(
                    line,
                    L1Meta { exp, fill_seq: seq },
                    data,
                    false,
                    |addr, _| !mshrs.contains(addr),
                );
                let entry = self.mshrs.get(line).expect("entry exists");
                if entry.pending_writes.is_empty() && !entry.gets_outstanding {
                    debug_assert!(entry.waiting_loads.is_empty());
                    self.mshrs.release(line);
                }
            }
            RespPayload::Renew { exp } => {
                let entry = self.mshrs.get_mut(line).expect("RENEW without entry");
                entry.gets_outstanding = false;
                let meta = self
                    .tags
                    .probe_mut(line)
                    .expect("RENEW target data must be resident (pinned)");
                meta.state.exp = exp;
                let data = meta.data.clone();
                let fill_seq = meta.state.fill_seq;
                // Renewed data is unchanged since before the lease expired
                // (any write since the fill would have denied the renew),
                // so each load sits at its own issue-time position with
                // the original fill's bank slot.
                let n =
                    self.complete_waiting_loads(line, &data, Timestamp::ZERO, exp, fill_seq, out);
                self.stats.renewed_loads += n as u64;
                let entry = self.mshrs.get(line).expect("entry exists");
                if entry.pending_writes.is_empty() && !entry.gets_outstanding {
                    debug_assert!(entry.waiting_loads.is_empty());
                    self.mshrs.release(line);
                }
            }
            RespPayload::StoreAck { ver, seq } => {
                // Rules 2/3 landed at the L2; the ack tells us the write's
                // version, and the core joins it (Fig. 5: L1.now =
                // max(L1.now, M.ver)).
                self.advance_write(ver);
                self.complete_write(line, resp.id, CompletionKind::StoreDone, ver, seq, out);
            }
            RespPayload::AtomicResp { value, ver, seq } => {
                // An atomic both reads and writes: join both views.
                self.advance_read(ver);
                self.advance_write(ver);
                let kind = CompletionKind::AtomicDone { old: value };
                self.complete_write(line, resp.id, kind, ver, seq, out);
            }
            RespPayload::Inv
            | RespPayload::DataEx { .. }
            | RespPayload::Recall
            | RespPayload::WbAck => {
                debug_assert!(false, "RCC never sends these");
            }
            RespPayload::Flush => {
                // Rollover (Section III-D): the system is quiesced before
                // the flush, so no transactions are outstanding.
                assert!(
                    self.mshrs.is_empty(),
                    "rollover flush requires a quiesced L1"
                );
                let dropped = self.tags.drain();
                self.stats.self_invalidations += dropped.len() as u64;
                self.read_now = Timestamp::ZERO;
                self.write_now = Timestamp::ZERO;
                out.to_l2.push(ReqMsg {
                    src: self.core,
                    line,
                    id: ReqId(0),
                    payload: ReqPayload::FlushAck,
                });
            }
        }
    }

    fn tick(&mut self, cycle: Cycle, _out: &mut L1Outbox) {
        // Livelock avoidance (Section III-E): periodically advance logical
        // time so read-only spins eventually observe new versions.
        let interval = self.params.livelock_bump_interval;
        if interval > 0 && cycle.raw() > 0 && cycle.raw().is_multiple_of(interval) {
            self.advance_now(self.read_now.succ());
        }
    }

    fn next_event(&self, now: Cycle) -> Option<Cycle> {
        // The only spontaneous action is the periodic livelock bump.
        let interval = self.params.livelock_bump_interval;
        if interval == 0 {
            return None;
        }
        Some(Cycle((now.raw() / interval + 1) * interval))
    }

    fn fence(&mut self) {
        // RCC-WO: a full fence joins the read and write views
        // (Section III-F). In SC mode the views are always equal.
        let joined = self.read_now.join(self.write_now);
        self.read_now = joined;
        self.write_now = joined;
    }

    fn set_chaos(&mut self, mut hook: Box<dyn PerturbPoint>) {
        self.mshrs.set_chaos(hook.fork(1));
        self.chaos = Some(hook);
    }

    fn pending(&self) -> usize {
        self.mshrs.len()
    }

    fn stats(&self) -> &L1Stats {
        &self.stats
    }

    fn stats_mut(&mut self) -> &mut L1Stats {
        &mut self.stats
    }
}
