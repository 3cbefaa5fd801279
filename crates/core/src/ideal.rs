//! SC-IDEAL: the limit study of Fig. 1d — sequential consistency with
//! *instantaneous* read and write permissions.
//!
//! Stores complete at the L1 in the same cycle they issue (the
//! write-through still happens, but nothing waits for it), and loads never
//! pay any coherence cost beyond the data transfer itself: cached copies
//! are kept coherent by zero-latency, zero-traffic "magic" updates that
//! refresh remote copies in place the cycle a write applies (an L2
//! eviction still drops its copies, and a fill racing a remote write is
//! poisoned rather than installed stale).
//! This isolates *coherence permission latency* from *data movement
//! latency*: the gap between SC-IDEAL and a real protocol is exactly the
//! overhead RCC attacks. It is a performance idealization, not a real
//! protocol — the consistency scoreboard is not applied to it.

use crate::bank::{self, Route};
use crate::kind::ProtocolKind;
use crate::l1;
use crate::msg::{
    Access, AccessKind, AccessOutcome, Completion, CompletionKind, ReqId, ReqMsg, ReqPayload,
    RespMsg, RespPayload,
};
use crate::protocol::{
    L1Cache, L1Outbox, L1Stats, L2Bank, L2Outbox, L2Stats, MagicAction, Protocol,
};
use rcc_common::addr::{LineAddr, WordAddr};
use rcc_common::config::GpuConfig;
use rcc_common::ids::{CoreId, PartitionId, WarpId};
use rcc_common::time::{Cycle, Timestamp};
use rcc_mem::{LineData, MshrFile, TagArray};
use std::collections::VecDeque;

/// Factory for the SC-IDEAL controllers.
#[derive(Debug, Clone, Default)]
pub struct IdealProtocol;

impl IdealProtocol {
    /// Creates the SC-IDEAL configuration.
    pub fn new(_cfg: &GpuConfig) -> Self {
        IdealProtocol
    }
}

impl Protocol for IdealProtocol {
    type L1 = IdealL1;
    type L2 = IdealL2;

    fn kind(&self) -> ProtocolKind {
        ProtocolKind::IdealSc
    }

    fn make_l1(&self, core: CoreId, cfg: &GpuConfig) -> IdealL1 {
        IdealL1::new(core, cfg)
    }

    fn make_l2(&self, partition: PartitionId, cfg: &GpuConfig) -> IdealL2 {
        IdealL2::new(partition, cfg)
    }
}

#[derive(Debug, Clone, Default)]
struct IdealEntry {
    waiting_loads: Vec<(WarpId, WordAddr)>,
    pending_atomics: VecDeque<(ReqId, WarpId, WordAddr)>,
    gets_outstanding: bool,
    /// Cycle of the latest magic update that raced the fetch. A fill
    /// whose data was served at the L2 before this point may predate
    /// the remote write, so it completes the merged loads (they order
    /// before that write) but must not be cached; data served after it
    /// is fresh and installs normally.
    poisoned_at: Option<Cycle>,
}

/// SC-IDEAL L1: loads miss only for data, stores are free.
#[derive(Debug, Clone)]
pub struct IdealL1 {
    core: CoreId,
    tags: TagArray<()>,
    mshrs: MshrFile<IdealEntry>,
    next_req: u64,
    stats: L1Stats,
}

impl IdealL1 {
    /// Creates the controller for `core`.
    pub fn new(core: CoreId, cfg: &GpuConfig) -> Self {
        let (tags, mshrs) = l1::arrays(cfg);
        IdealL1 {
            core,
            tags,
            mshrs,
            next_req: 1,
            stats: L1Stats::default(),
        }
    }

    /// Whether `line` is cached (for tests).
    pub fn is_resident(&self, line: LineAddr) -> bool {
        self.tags.probe(line).is_some()
    }

    fn start_load(&mut self, ts: Timestamp, access: Access, out: &mut L1Outbox) -> AccessOutcome {
        let line = access.addr.line();
        if self.tags.probe(line).is_some() {
            return AccessOutcome::Done(l1::hit(&mut self.tags, &access, ts, |_| 0));
        }
        let waiting = (access.warp, access.addr);
        if let Err(reason) = l1::admit(&mut self.mshrs, line, |e| e.waiting_loads.push(waiting)) {
            return AccessOutcome::Reject(reason);
        }
        // The entry may have been created by an atomic, which fetches no
        // shareable data — make sure a GETS is out.
        let entry = self.mshrs.get_mut(line).expect("just admitted");
        l1::send_gets(&mut entry.gets_outstanding, self.core, line, ts, None, out);
        AccessOutcome::Pending
    }
}

impl L1Cache for IdealL1 {
    fn access(&mut self, cycle: Cycle, access: Access, out: &mut L1Outbox) -> AccessOutcome {
        let line = access.addr.line();
        let ts = Timestamp(cycle.raw());
        let outcome = match access.kind {
            AccessKind::Load => self.start_load(ts, access, out),
            AccessKind::Store { value } => {
                // Instant write permission: complete at issue; the
                // write-through proceeds in the background (fire and
                // forget — the L2 sends no ack for ideal stores).
                if let Some(l) = self.tags.probe_mut(line) {
                    l.data.set_word_at(access.addr, value);
                }
                out.to_l2.push(ReqMsg {
                    src: self.core,
                    line,
                    id: ReqId(0),
                    payload: ReqPayload::Write {
                        now: ts,
                        word: access.addr.line_word_index(),
                        value,
                    },
                });
                AccessOutcome::Done(Completion {
                    warp: access.warp,
                    addr: access.addr,
                    kind: CompletionKind::StoreDone,
                    ts,
                    seq: 0,
                })
            }
            // Atomics still need the round trip for the old value.
            AccessKind::Atomic { .. } => l1::send_write(
                self.core,
                &mut self.next_req,
                &mut self.mshrs,
                access,
                ts,
                |e, w| e.pending_atomics.push_back((w.id, w.warp, w.addr)),
                out,
            ),
        };
        l1::count(&mut self.stats, access.kind, outcome)
    }

    fn handle_resp(&mut self, _cycle: Cycle, resp: RespMsg, out: &mut L1Outbox) {
        let line = resp.line;
        match resp.payload {
            RespPayload::Data { data, ver, .. } => {
                let entry = self.mshrs.get_mut(line).expect("DATA without entry");
                entry.gets_outstanding = false;
                let loads = std::mem::take(&mut entry.waiting_loads);
                for (warp, addr) in loads {
                    out.completions.push(Completion {
                        warp,
                        addr,
                        kind: CompletionKind::LoadDone {
                            value: data.word_at(addr),
                        },
                        ts: ver,
                        seq: 0,
                    });
                }
                let poisoned = self
                    .mshrs
                    .get(line)
                    .expect("entry")
                    .poisoned_at
                    .is_some_and(|at| ver.0 <= at.raw());
                if !poisoned {
                    let mshrs = &self.mshrs;
                    let _ = self
                        .tags
                        .fill(line, (), data, false, |addr, _| !mshrs.contains(addr));
                }
                if self
                    .mshrs
                    .get(line)
                    .expect("entry")
                    .pending_atomics
                    .is_empty()
                {
                    self.mshrs.release(line);
                }
            }
            RespPayload::AtomicResp { value, ver, seq } => {
                let entry = self.mshrs.get_mut(line).expect("resp without entry");
                let (id, warp, addr) = entry
                    .pending_atomics
                    .pop_front()
                    .expect("atomic resp without pending atomic");
                debug_assert_eq!(id, resp.id);
                out.completions.push(Completion {
                    warp,
                    addr,
                    kind: CompletionKind::AtomicDone { old: value },
                    ts: ver,
                    seq,
                });
                let entry = self.mshrs.get(line).expect("entry");
                if entry.pending_atomics.is_empty()
                    && entry.waiting_loads.is_empty()
                    && !entry.gets_outstanding
                {
                    self.mshrs.release(line);
                }
            }
            RespPayload::Inv
            | RespPayload::StoreAck { .. }
            | RespPayload::Renew { .. }
            | RespPayload::Flush
            | RespPayload::DataEx { .. }
            | RespPayload::Recall
            | RespPayload::WbAck => {
                debug_assert!(false, "ideal protocol never sends these");
            }
        }
    }

    fn magic(&mut self, cycle: Cycle, line: LineAddr, action: MagicAction) {
        match action {
            MagicAction::Invalidate => {
                self.tags.invalidate(line);
                self.stats.self_invalidations += 1;
            }
            MagicAction::Update { word, value } => {
                if let Some(l) = self.tags.probe_mut(line) {
                    l.data.set_word(word, value);
                }
                // A fetch in flight may have been served pre-write data
                // at the L2; its fill would shadow this update. Poison
                // installs of data served up to this cycle.
                if let Some(entry) = self.mshrs.get_mut(line) {
                    entry.poisoned_at = Some(cycle);
                }
            }
        }
    }

    fn tick(&mut self, _cycle: Cycle, _out: &mut L1Outbox) {}

    fn next_event(&self, _now: Cycle) -> Option<Cycle> {
        // Magic coherence actions arrive out-of-band; nothing to do.
        None
    }

    fn set_chaos(&mut self, hook: Box<dyn rcc_chaos::PerturbPoint>) {
        // The only SC-IDEAL L1 injection point is transient MSHR
        // exhaustion (its "network" is magic and carries no timing).
        self.mshrs.set_chaos(hook);
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

#[derive(Debug, Clone, Default)]
struct IdealL2Entry {
    readers: Vec<(CoreId, ReqId)>,
    merged_writes: Vec<(usize, u64)>,
    pending_atomics: VecDeque<ReqMsg>,
}

/// SC-IDEAL L2: plain shared cache that magically refreshes L1 copies.
#[derive(Debug, Clone)]
pub struct IdealL2 {
    partition: PartitionId,
    tags: TagArray<u64>, // sharer bitmask for magic updates
    mshrs: MshrFile<IdealL2Entry>,
    seq: u64,
    stats: L2Stats,
}

impl IdealL2 {
    /// Creates the controller for `partition`.
    pub fn new(partition: PartitionId, cfg: &GpuConfig) -> Self {
        let (tags, mshrs) = bank::arrays(cfg);
        IdealL2 {
            partition,
            tags,
            mshrs,
            seq: 0,
            stats: L2Stats::default(),
        }
    }

    /// This bank's partition id.
    pub fn partition(&self) -> PartitionId {
        self.partition
    }

    /// Refreshes every remote copy in place — the zero-cost idealization
    /// of write propagation. Copies stay valid (and stay sharers); real
    /// protocols pay an invalidation or a lease expiry for the same
    /// effect.
    fn magic_update_others(
        &mut self,
        line: LineAddr,
        except: Option<CoreId>,
        word: usize,
        value: u64,
        out: &mut L2Outbox,
    ) {
        if let Some(l) = self.tags.probe_mut(line) {
            let mask = l.state;
            for i in 0..64 {
                if mask & (1 << i) != 0 && Some(CoreId(i)) != except {
                    out.magic_inv
                        .push((CoreId(i), line, MagicAction::Update { word, value }));
                }
            }
        }
    }

    fn fill_line(&mut self, line: LineAddr, data: Box<LineData>, dirty: bool, out: &mut L2Outbox) {
        let evicted = self
            .tags
            .fill(line, 0, data, dirty, |_, _| true)
            .expect("ideal L2 lines always evictable");
        if let Some(ev) = evicted {
            // Evicting a shared line magically drops the copies.
            for i in 0..64 {
                if ev.line.state & (1 << i) != 0 {
                    out.magic_inv
                        .push((CoreId(i), ev.line.addr, MagicAction::Invalidate));
                }
            }
            bank::write_back(&mut self.stats, out, ev.line);
        }
    }

    /// Serves a request at a resident line.
    fn serve_hit(&mut self, cycle: Cycle, req: ReqMsg, out: &mut L2Outbox) {
        let line = req.line;
        match req.payload {
            ReqPayload::Gets { .. } => {
                let l = self.tags.access(line).expect("hit requires residency");
                l.state |= 1 << req.src.index();
                out.to_l1.push(RespMsg {
                    dst: req.src,
                    line,
                    id: req.id,
                    payload: RespPayload::Data {
                        data: l.data.boxed(),
                        ver: Timestamp(cycle.raw()),
                        exp: Timestamp(u64::MAX),
                        seq: 0,
                    },
                });
            }
            ReqPayload::Write { word, value, .. } => {
                let l = self.tags.access(line).expect("hit requires residency");
                l.data.set_word(word, value);
                l.dirty = true;
                self.magic_update_others(line, Some(req.src), word, value, out);
            }
            ReqPayload::Atomic { word, op, .. } => {
                self.seq += 1;
                let seq = self.seq;
                let l = self.tags.access(line).expect("hit requires residency");
                let old = l.data.word(word);
                if op.mutates(old) {
                    let new = op.apply(old);
                    l.data.set_word(word, new);
                    l.dirty = true;
                    self.magic_update_others(line, Some(req.src), word, new, out);
                }
                out.to_l1.push(RespMsg {
                    dst: req.src,
                    line,
                    id: req.id,
                    payload: RespPayload::AtomicResp {
                        value: old,
                        ver: Timestamp(cycle.raw()),
                        seq,
                    },
                });
            }
            other => unreachable!("serve_hit on {other:?}"),
        }
    }
}

impl L2Bank for IdealL2 {
    fn handle_req(&mut self, cycle: Cycle, req: ReqMsg, out: &mut L2Outbox) -> Result<(), ReqMsg> {
        let line = req.line;
        if !matches!(
            req.payload,
            ReqPayload::Gets { .. } | ReqPayload::Write { .. } | ReqPayload::Atomic { .. }
        ) {
            return Ok(());
        }
        bank::count(&mut self.stats, &req.payload);
        match bank::route(&self.tags, &mut self.mshrs, &mut self.stats, out, line) {
            Route::Mshr(entry) => match req.payload {
                ReqPayload::Gets { .. } => entry.readers.push((req.src, req.id)),
                ReqPayload::Write { word, value, .. } => entry.merged_writes.push((word, value)),
                _ => entry.pending_atomics.push_back(req),
            },
            Route::Hit => self.serve_hit(cycle, req, out),
            Route::Full => return bank::refuse(&mut self.stats, req),
        }
        Ok(())
    }

    fn handle_dram(
        &mut self,
        cycle: Cycle,
        line: LineAddr,
        mut data: Box<LineData>,
        out: &mut L2Outbox,
    ) {
        let entry = self
            .mshrs
            .release(line)
            .expect("DRAM fill without an MSHR entry");
        let dirty = !entry.merged_writes.is_empty();
        for (word, value) in &entry.merged_writes {
            data.set_word(*word, *value);
        }
        for (dst, id) in &entry.readers {
            out.to_l1.push(RespMsg {
                dst: *dst,
                line,
                id: *id,
                payload: RespPayload::Data {
                    data: data.clone(),
                    ver: Timestamp(cycle.raw()),
                    exp: Timestamp(u64::MAX),
                    seq: 0,
                },
            });
        }
        self.fill_line(line, data, dirty, out);
        if let Some(l) = self.tags.probe_mut(line) {
            for (dst, _) in &entry.readers {
                l.state |= 1 << dst.index();
            }
        }
        // Replay queued atomics against the now-resident line. Each is
        // counted again, as on arrival: `l2.atomics` is in the metrics
        // digest, so that count is part of the pinned results.
        for req in entry.pending_atomics {
            self.stats.atomics += 1;
            self.serve_hit(cycle, req, out);
        }
    }

    fn tick(&mut self, _cycle: Cycle, _out: &mut L2Outbox) {}

    fn next_event(&self, _now: Cycle) -> Option<Cycle> {
        // Purely reactive: requests and DRAM fills drive everything.
        None
    }

    fn pending(&self) -> usize {
        self.mshrs.len()
    }

    fn stats(&self) -> &L2Stats {
        &self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::msg::{AtomicOp, RejectReason};
    use crate::testrig::Rig;
    use rcc_common::addr::{LineAddr, WordAddr};

    fn rig(cores: usize) -> Rig<IdealProtocol> {
        let cfg = GpuConfig::small();
        Rig::new(&IdealProtocol::new(&cfg), &cfg, cores)
    }

    fn word(line: u64, idx: usize) -> WordAddr {
        LineAddr(line).word(idx)
    }

    #[test]
    fn stores_complete_at_issue() {
        let mut r = rig(1);
        let w = word(1, 0);
        let c = r.store(0, w, 5);
        assert_eq!(c.kind, CompletionKind::StoreDone);
        assert_eq!(r.cycle.raw(), 0, "no time passed");
        assert_eq!(r.load_value(0, w), 5);
    }

    #[test]
    fn loads_fetch_then_hit() {
        let mut r = rig(1);
        let w = word(2, 3);
        r.seed_dram(LineAddr(2), 3, 9);
        assert_eq!(r.load_value(0, w), 9);
        let hits = r.l1s[0].stats().load_hits;
        assert_eq!(r.load_value(0, w), 9);
        assert_eq!(r.l1s[0].stats().load_hits, hits + 1);
    }

    #[test]
    fn magic_update_keeps_remote_copies_fresh_for_free() {
        let mut r = rig(2);
        let w = word(3, 0);
        r.load(0, w); // core 0 caches the line
        r.store(1, w, 7); // instant completion + magic update of core 0
        assert!(
            r.l1s[0].is_resident(LineAddr(3)),
            "the copy stays valid — it was refreshed in place"
        );
        let hits = r.l1s[0].stats().load_hits;
        assert_eq!(r.load_value(0, w), 7, "and it already holds the new value");
        assert_eq!(r.l1s[0].stats().load_hits, hits + 1, "zero-cost hit");
    }

    #[test]
    fn magic_update_poisons_in_flight_fetch() {
        // Core 0's fetch is in flight when core 1's store applies: the
        // merged load may complete with pre-write data (it orders before
        // the write), but that data must not be installed over the
        // update.
        let mut r = rig(2);
        let w = word(3, 0);
        let o = r.issue(
            0,
            Access {
                warp: WarpId(0),
                addr: w,
                kind: AccessKind::Load,
            },
        );
        assert_eq!(o, AccessOutcome::Pending);
        r.store(1, w, 7); // applies while core 0's GETS may be outstanding
        let mut budget = 10_000;
        while r.completions.iter().all(|(c, _)| *c != 0) {
            assert!(budget > 0, "merged load never completed");
            budget -= 1;
            r.step(1);
        }
        // Whatever the merged load saw, the next load must observe 7 —
        // either a fresh fetch or an updated copy, never a stale hit.
        // (The scoreboard is not applied: SC-IDEAL's instant stores do
        // not produce the (ts, seq) witness — `supports_sc()` is false.)
        assert_eq!(r.load_value(0, w), 7);
    }

    #[test]
    fn atomics_round_trip_for_the_value() {
        let mut r = rig(2);
        let w = word(4, 0);
        let c = r.atomic(0, w, AtomicOp::Add(2));
        assert_eq!(c.kind, CompletionKind::AtomicDone { old: 0 });
        let c = r.atomic(1, w, AtomicOp::Add(5));
        assert_eq!(c.kind, CompletionKind::AtomicDone { old: 2 });
        assert_eq!(r.load_value(0, w), 7);
    }

    #[test]
    fn an_atomic_refused_by_a_full_merge_list_says_so() {
        let mut cfg = GpuConfig::small();
        cfg.l1.mshr_merge = 1;
        let mut l1 = IdealL1::new(CoreId(0), &cfg);
        let mut out = L1Outbox::new();
        let (warp, addr) = (WarpId(0), word(6, 0));
        let load = Access {
            warp,
            addr,
            kind: AccessKind::Load,
        };
        assert_eq!(l1.access(Cycle(0), load, &mut out), AccessOutcome::Pending);
        let atomic = Access {
            warp,
            addr,
            kind: AccessKind::Atomic {
                op: AtomicOp::Add(1),
            },
        };
        assert_eq!(
            l1.access(Cycle(0), atomic, &mut out),
            AccessOutcome::Reject(RejectReason::MergeFull),
            "the line's entry is there; its merge list is full"
        );
        assert_eq!((l1.stats().atomics, l1.stats().rejects), (0, 1));
    }

    #[test]
    fn own_store_updates_own_cached_copy() {
        let mut r = rig(1);
        let w = word(5, 0);
        r.load(0, w);
        r.store(0, w, 3);
        assert!(
            r.l1s[0].is_resident(LineAddr(5)),
            "copy updated, not dropped"
        );
        assert_eq!(r.load_value(0, w), 3);
    }
}
