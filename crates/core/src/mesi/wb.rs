//! Write-back L1 MESI — the CPU-style configuration the paper argues
//! against for GPUs (Section I: "a write-back policy brings
//! infrequently written data into the L1 only to write it back soon
//! afterwards").
//!
//! L1 lines are Shared or Modified. Stores need exclusive ownership: a
//! GETX invalidates every sharer (or recalls the current owner's dirty
//! data) before the directory grants `DataEx`; once Modified, stores
//! complete locally with zero traffic. Dirty evictions write the line
//! back (`WbData`), and remote accesses to a Modified line pay a recall
//! round trip through the owner.
//!
//! Consistency positions: a local store to a Modified line is globally
//! safe (no other copy exists); it is positioned at its cycle,
//! continuing the line's directory-slot numbering (`fill_seq + k`), and
//! the writeback reports the final slot so the directory's counter jumps
//! past it — every post-recall service of the word then orders strictly
//! after the local stores.

use crate::bank::{self, Deferral, Route};
use crate::kind::ProtocolKind;
use crate::l1;
use crate::msg::{
    Access, AccessKind, AccessOutcome, Completion, CompletionKind, RejectReason, ReqId, ReqMsg,
    ReqPayload, RespMsg, RespPayload,
};
use crate::protocol::{L1Cache, L1Outbox, L1Stats, L2Bank, L2Outbox, L2Stats, Protocol};
use rcc_common::addr::{LineAddr, WordAddr};
use rcc_common::config::GpuConfig;
use rcc_common::ids::{CoreId, PartitionId, WarpId};
use rcc_common::time::{Cycle, Timestamp};
use rcc_common::{FxHashMap, FxHashSet};
use rcc_mem::{LineData, MshrFile, TagArray};
use std::collections::VecDeque;

/// Factory for the MESI-WB controllers.
#[derive(Debug, Clone, Default)]
pub struct MesiWbProtocol;

impl MesiWbProtocol {
    /// Creates the write-back MESI configuration.
    pub fn new(_cfg: &GpuConfig) -> Self {
        MesiWbProtocol
    }
}

impl Protocol for MesiWbProtocol {
    type L1 = MesiWbL1;
    type L2 = MesiWbL2;

    fn kind(&self) -> ProtocolKind {
        ProtocolKind::MesiWb
    }

    fn make_l1(&self, core: CoreId, cfg: &GpuConfig) -> MesiWbL1 {
        MesiWbL1::new(core, cfg)
    }

    fn make_l2(&self, partition: PartitionId, cfg: &GpuConfig) -> MesiWbL2 {
        MesiWbL2::new(partition, cfg)
    }
}

// ---------------------------------------------------------------------
// L1
// ---------------------------------------------------------------------

#[derive(Debug, Clone, Copy)]
struct WbMeta {
    /// Modified (writable) vs Shared.
    excl: bool,
    /// Sub-cycle position of this copy's latest knowledge: the fill's
    /// directory slot, advanced past every local store's slot.
    fill_seq: u64,
}

#[derive(Debug, Clone, Default)]
struct WbEntry {
    waiting_loads: Vec<(WarpId, WordAddr, u64)>,
    /// Stores awaiting exclusive ownership.
    pending_stores: Vec<(ReqId, WarpId, WordAddr, u64)>,
    /// Atomics serviced at the directory.
    pending_atomics: VecDeque<(ReqId, WarpId, WordAddr)>,
    gets_outstanding: bool,
    getx_outstanding: bool,
    poisoned: bool,
}

/// Write-back L1 controller.
#[derive(Debug, Clone)]
pub struct MesiWbL1 {
    core: CoreId,
    tags: TagArray<WbMeta>,
    mshrs: MshrFile<WbEntry>,
    /// Voluntary writebacks in flight (awaiting WbAck).
    wb_pending: FxHashSet<LineAddr>,
    next_req: u64,
    stats: L1Stats,
}

impl MesiWbL1 {
    /// Creates the controller for `core`.
    pub fn new(core: CoreId, cfg: &GpuConfig) -> Self {
        let (tags, mshrs) = l1::arrays(cfg);
        MesiWbL1 {
            core,
            tags,
            mshrs,
            wb_pending: FxHashSet::default(),
            next_req: 1,
            stats: L1Stats::default(),
        }
    }

    /// Whether `line` is held Modified (for tests).
    pub fn is_modified(&self, line: LineAddr) -> bool {
        self.tags.probe(line).is_some_and(|l| l.state.excl)
    }

    /// Whether `line` is cached at all (for tests).
    pub fn is_resident(&self, line: LineAddr) -> bool {
        self.tags.probe(line).is_some()
    }

    /// Evicts for a fill, writing back a dirty victim.
    fn fill_with_wb(
        &mut self,
        line: LineAddr,
        meta: WbMeta,
        data: Box<LineData>,
        dirty: bool,
        out: &mut L1Outbox,
    ) {
        let mshrs = &self.mshrs;
        let wb = &self.wb_pending;
        let evicted = self.tags.fill(line, meta, data, dirty, |addr, _| {
            !mshrs.contains(addr) && !wb.contains(&addr)
        });
        if let Ok(Some(ev)) = evicted {
            if ev.line.dirty {
                self.wb_pending.insert(ev.line.addr);
                out.to_l2.push(ReqMsg {
                    src: self.core,
                    line: ev.line.addr,
                    id: ReqId(0),
                    payload: ReqPayload::WbData {
                        data: Box::new(ev.line.data),
                        last_seq: ev.line.state.fill_seq,
                    },
                });
            } else {
                self.stats.self_invalidations += 1;
            }
        }
    }

    fn start_load(&mut self, cycle: Cycle, access: Access, out: &mut L1Outbox) -> AccessOutcome {
        let line = access.addr.line();
        let now = Timestamp(cycle.raw());
        if self.tags.probe(line).is_some() {
            return AccessOutcome::Done(l1::hit(&mut self.tags, &access, now, |m| m.fill_seq));
        }
        if self.mshrs.get(line).is_some_and(|e| e.poisoned) {
            return AccessOutcome::Reject(RejectReason::TransientState);
        }
        let waiting = (access.warp, access.addr, cycle.raw());
        if let Err(reason) = l1::admit(&mut self.mshrs, line, |e| e.waiting_loads.push(waiting)) {
            return AccessOutcome::Reject(reason);
        }
        let entry = self.mshrs.get_mut(line).expect("just admitted");
        if !entry.getx_outstanding {
            // A GETX replies with data too.
            l1::send_gets(&mut entry.gets_outstanding, self.core, line, now, None, out);
        }
        AccessOutcome::Pending
    }

    fn start_store(
        &mut self,
        cycle: Cycle,
        access: Access,
        value: u64,
        out: &mut L1Outbox,
    ) -> AccessOutcome {
        let line = access.addr.line();
        // The write-back fast path: a Modified line absorbs the store
        // with zero coherence traffic.
        if self.is_modified(line) {
            let l = self.tags.access(line).expect("checked");
            l.data.set_word_at(access.addr, value);
            l.dirty = true;
            // The store takes the line's next slot; future hits on this
            // copy are positioned strictly after it.
            let seq = l.state.fill_seq;
            l.state.fill_seq = seq + 1;
            return AccessOutcome::Done(Completion {
                warp: access.warp,
                addr: access.addr,
                kind: CompletionKind::StoreDone,
                ts: Timestamp(cycle.raw()),
                seq,
            });
        }
        let admitted = l1::admit_write(&mut self.next_req, &mut self.mshrs, &access, |e, w| {
            e.pending_stores.push((w.id, w.warp, w.addr, value))
        });
        if let Err(reason) = admitted {
            return AccessOutcome::Reject(reason);
        }
        self.send_getx(cycle, line, out);
        AccessOutcome::Pending
    }

    fn send_getx(&mut self, cycle: Cycle, line: LineAddr, out: &mut L1Outbox) {
        let entry = self.mshrs.get_mut(line).expect("entry exists");
        if entry.getx_outstanding {
            return;
        }
        entry.getx_outstanding = true;
        out.to_l2.push(ReqMsg {
            src: self.core,
            line,
            id: ReqId(0),
            payload: ReqPayload::GetX {
                now: Timestamp(cycle.raw()),
            },
        });
    }

    fn maybe_release(&mut self, line: LineAddr) {
        let e = self.mshrs.get(line).expect("entry exists");
        if e.waiting_loads.is_empty()
            && e.pending_stores.is_empty()
            && e.pending_atomics.is_empty()
            && !e.gets_outstanding
            && !e.getx_outstanding
        {
            self.mshrs.release(line);
        }
    }
}

impl L1Cache for MesiWbL1 {
    fn access(&mut self, cycle: Cycle, access: Access, out: &mut L1Outbox) -> AccessOutcome {
        let outcome = match access.kind {
            AccessKind::Load => self.start_load(cycle, access, out),
            AccessKind::Store { value } => self.start_store(cycle, access, value, out),
            // Atomics are serviced at the directory; if we own the line,
            // the directory will recall it from us first.
            AccessKind::Atomic { .. } => l1::send_write(
                self.core,
                &mut self.next_req,
                &mut self.mshrs,
                access,
                Timestamp(cycle.raw()),
                |e, w| e.pending_atomics.push_back((w.id, w.warp, w.addr)),
                out,
            ),
        };
        l1::count(&mut self.stats, access.kind, outcome)
    }

    fn handle_resp(&mut self, cycle: Cycle, resp: RespMsg, out: &mut L1Outbox) {
        let line = resp.line;
        match resp.payload {
            RespPayload::Data { data, ver, seq, .. } => {
                let entry = self.mshrs.get_mut(line).expect("DATA without entry");
                entry.gets_outstanding = false;
                let poisoned = std::mem::take(&mut entry.poisoned);
                let loads = std::mem::take(&mut entry.waiting_loads);
                for (warp, addr, issued) in loads {
                    out.completions.push(Completion {
                        warp,
                        addr,
                        kind: CompletionKind::LoadDone {
                            value: data.word_at(addr),
                        },
                        ts: ver.join(Timestamp(issued)),
                        seq,
                    });
                }
                if !poisoned {
                    self.fill_with_wb(
                        line,
                        WbMeta {
                            excl: false,
                            fill_seq: seq,
                        },
                        data,
                        false,
                        out,
                    );
                }
                self.maybe_release(line);
            }
            RespPayload::DataEx { mut data, seq } => {
                let entry = self.mshrs.get_mut(line).expect("DataEx without entry");
                entry.getx_outstanding = false;
                entry.poisoned = false;
                // Loads merged behind the GETX observe the pre-store data.
                let loads = std::mem::take(&mut entry.waiting_loads);
                for (warp, addr, issued) in loads {
                    out.completions.push(Completion {
                        warp,
                        addr,
                        kind: CompletionKind::LoadDone {
                            value: data.word_at(addr),
                        },
                        ts: Timestamp(cycle.raw().max(issued)),
                        seq,
                    });
                }
                // Apply the stores that wanted ownership, in order.
                let stores = std::mem::take(&mut entry.pending_stores);
                let dirty = !stores.is_empty();
                let mut line_seq = seq + 1;
                for (_, warp, addr, value) in stores {
                    data.set_word_at(addr, value);
                    let sseq = line_seq;
                    line_seq += 1;
                    out.completions.push(Completion {
                        warp,
                        addr,
                        kind: CompletionKind::StoreDone,
                        ts: Timestamp(cycle.raw()),
                        seq: sseq,
                    });
                }
                self.fill_with_wb(
                    line,
                    WbMeta {
                        excl: true,
                        fill_seq: line_seq,
                    },
                    data,
                    dirty,
                    out,
                );
                self.maybe_release(line);
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
                self.maybe_release(line);
            }
            RespPayload::Recall => {
                // Surrender a Modified line with its data; Shared copies
                // (or lines already written back) just vanish.
                match self.tags.invalidate(line) {
                    Some(l) if l.state.excl => {
                        out.to_l2.push(ReqMsg {
                            src: self.core,
                            line,
                            id: ReqId(0),
                            payload: ReqPayload::WbData {
                                data: Box::new(l.data),
                                last_seq: l.state.fill_seq,
                            },
                        });
                    }
                    Some(_) => {
                        // Treated like an invalidation of a shared copy.
                        out.to_l2.push(ReqMsg {
                            src: self.core,
                            line,
                            id: ReqId(0),
                            payload: ReqPayload::InvAck,
                        });
                    }
                    None => {
                        debug_assert!(
                            self.wb_pending.contains(&line),
                            "recall for a line we neither hold nor are writing back"
                        );
                        // The voluntary WbData in flight answers the recall.
                    }
                }
                if let Some(entry) = self.mshrs.get_mut(line) {
                    if entry.gets_outstanding {
                        entry.poisoned = true;
                    }
                }
                self.stats.invs_received += 1;
            }
            RespPayload::Inv => {
                self.stats.invs_received += 1;
                self.tags.invalidate(line);
                if let Some(entry) = self.mshrs.get_mut(line) {
                    if entry.gets_outstanding {
                        entry.poisoned = true;
                    }
                }
                out.to_l2.push(ReqMsg {
                    src: self.core,
                    line,
                    id: ReqId(0),
                    payload: ReqPayload::InvAck,
                });
            }
            RespPayload::WbAck => {
                self.wb_pending.remove(&line);
            }
            RespPayload::StoreAck { .. } | RespPayload::Renew { .. } | RespPayload::Flush => {
                debug_assert!(false, "MESI-WB never sends these");
            }
        }
    }

    fn tick(&mut self, _cycle: Cycle, _out: &mut L1Outbox) {}

    fn next_event(&self, _now: Cycle) -> Option<Cycle> {
        // Purely reactive: invalidations, recalls, and fills drive all
        // transitions.
        None
    }

    fn set_chaos(&mut self, hook: Box<dyn rcc_chaos::PerturbPoint>) {
        // The only MESI-WB L1 injection point is transient MSHR
        // exhaustion; every allocate/merge path here tolerates rejection.
        self.mshrs.set_chaos(hook);
    }

    fn pending(&self) -> usize {
        self.mshrs.len() + self.wb_pending.len()
    }

    fn stats(&self) -> &L1Stats {
        &self.stats
    }

    fn stats_mut(&mut self) -> &mut L1Stats {
        &mut self.stats
    }
}

// ---------------------------------------------------------------------
// L2 directory
// ---------------------------------------------------------------------

#[derive(Debug, Clone, Copy)]
enum DirState {
    /// Sharer bitmask (possibly stale, possibly empty).
    Shared(u64),
    /// A single L1 holds the line Modified.
    Modified(CoreId),
}

#[derive(Debug, Clone, Copy)]
struct WbDir {
    state: DirState,
}

#[derive(Debug, Clone, Default)]
struct WbL2Entry {
    queued: VecDeque<ReqMsg>,
}

#[derive(Debug, Clone)]
struct PendingFill {
    line: LineAddr,
    data: Box<LineData>,
    queued: VecDeque<ReqMsg>,
}

#[derive(Debug, Clone)]
enum Txn {
    /// Invalidating sharers before serving `op` (GETX or atomic).
    CollectInvs {
        needed: usize,
        op: ReqMsg,
        started: Cycle,
    },
    /// Recalled a Modified owner; waiting for its WbData.
    AwaitWb {
        op: Option<ReqMsg>,
        pending_fill: Option<PendingFill>,
        started: Cycle,
    },
}

/// Write-back MESI directory.
#[derive(Debug, Clone)]
pub struct MesiWbL2 {
    partition: PartitionId,
    tags: TagArray<WbDir>,
    mshrs: MshrFile<WbL2Entry>,
    txns: FxHashMap<LineAddr, Txn>,
    filling: FxHashSet<LineAddr>,
    stalled_fills: Vec<PendingFill>,
    deferred: FxHashMap<LineAddr, VecDeque<ReqMsg>>,
    deferred_count: usize,
    seq: u64,
    stats: L2Stats,
}

impl MesiWbL2 {
    /// Creates the directory for `partition`.
    pub fn new(partition: PartitionId, cfg: &GpuConfig) -> Self {
        let (tags, mshrs) = bank::arrays(cfg);
        MesiWbL2 {
            partition,
            tags,
            mshrs,
            txns: FxHashMap::default(),
            filling: FxHashSet::default(),
            stalled_fills: Vec::new(),
            deferred: FxHashMap::default(),
            deferred_count: 0,
            seq: 0,
            stats: L2Stats::default(),
        }
    }

    /// This bank's partition id.
    pub fn partition(&self) -> PartitionId {
        self.partition
    }

    /// Current owner of a resident line (for tests).
    pub fn owner(&self, line: LineAddr) -> Option<CoreId> {
        self.tags.probe(line).and_then(|l| match l.state.state {
            DirState::Modified(o) => Some(o),
            DirState::Shared(_) => None,
        })
    }

    fn next_seq(&mut self) -> u64 {
        self.seq += 1;
        self.seq
    }

    /// Whether `tick` retries the parked fills: some fill found every
    /// way transiently busy and no eviction recall is pending (a recall
    /// legitimately holds them until its InvAck or WbData arrives).
    fn stalled_fills_retryable(&self) -> bool {
        !self.stalled_fills.is_empty()
            && !self.txns.values().any(|t| match t {
                Txn::CollectInvs { op, .. } => matches!(op.payload, ReqPayload::FlushAck),
                Txn::AwaitWb { pending_fill, .. } => pending_fill.is_some(),
            })
    }

    fn sharers(mask: u64) -> Vec<CoreId> {
        (0..64)
            .filter(|i| mask & (1 << i) != 0)
            .map(CoreId)
            .collect()
    }

    fn serve_hit(&mut self, cycle: Cycle, req: ReqMsg, out: &mut L2Outbox) {
        match &req.payload {
            ReqPayload::Gets { .. } => self.serve_gets(cycle, &req, out),
            _ => self.serve_excl_op(cycle, req, out),
        }
    }

    fn serve_gets(&mut self, cycle: Cycle, req: &ReqMsg, out: &mut L2Outbox) {
        match self.tags.probe(req.line).expect("resident").state.state {
            DirState::Shared(_) => {
                let seq = self.next_seq();
                let l = self.tags.access(req.line).expect("checked");
                if let DirState::Shared(mask) = &mut l.state.state {
                    *mask |= 1 << req.src.index();
                }
                out.to_l1.push(RespMsg {
                    dst: req.src,
                    line: req.line,
                    id: req.id,
                    payload: RespPayload::Data {
                        data: l.data.boxed(),
                        ver: Timestamp(cycle.raw()),
                        exp: Timestamp(u64::MAX),
                        seq,
                    },
                });
            }
            DirState::Modified(owner) => {
                // Recall the dirty line from its owner first.
                self.stats.invs_sent += 1;
                out.to_l1.push(RespMsg {
                    dst: owner,
                    line: req.line,
                    id: ReqId(0),
                    payload: RespPayload::Recall,
                });
                self.txns.insert(
                    req.line,
                    Txn::AwaitWb {
                        op: Some(req.clone()),
                        pending_fill: None,
                        started: cycle,
                    },
                );
            }
        }
    }

    fn grant_exclusive(&mut self, cycle: Cycle, req: &ReqMsg, out: &mut L2Outbox) {
        let seq = self.next_seq();
        let l = self.tags.access(req.line).expect("resident");
        l.state.state = DirState::Modified(req.src);
        out.to_l1.push(RespMsg {
            dst: req.src,
            line: req.line,
            id: req.id,
            payload: RespPayload::DataEx {
                data: l.data.boxed(),
                seq,
            },
        });
        let _ = cycle;
    }

    fn apply_atomic(&mut self, cycle: Cycle, req: &ReqMsg, out: &mut L2Outbox) {
        let ReqPayload::Atomic { word, op, .. } = &req.payload else {
            unreachable!("apply_atomic on {req:?}");
        };
        let seq = self.next_seq();
        let l = self.tags.access(req.line).expect("resident");
        let old = l.data.word(*word);
        if op.mutates(old) {
            l.data.set_word(*word, op.apply(old));
            l.dirty = true;
        }
        out.to_l1.push(RespMsg {
            dst: req.src,
            line: req.line,
            id: req.id,
            payload: RespPayload::AtomicResp {
                value: old,
                ver: Timestamp(cycle.raw()),
                seq,
            },
        });
    }

    /// Serves a GETX or atomic that may need invalidations/recalls.
    fn serve_excl_op(&mut self, cycle: Cycle, req: ReqMsg, out: &mut L2Outbox) {
        let state = self.tags.probe(req.line).expect("resident").state.state;
        match state {
            DirState::Modified(owner) => {
                self.stats.invs_sent += 1;
                self.stats.stalled_stores += 1;
                out.to_l1.push(RespMsg {
                    dst: owner,
                    line: req.line,
                    id: ReqId(0),
                    payload: RespPayload::Recall,
                });
                self.txns.insert(
                    req.line,
                    Txn::AwaitWb {
                        op: Some(req),
                        pending_fill: None,
                        started: cycle,
                    },
                );
            }
            DirState::Shared(mask) => {
                // For a GETX the requester's own stale copy is replaced
                // wholesale by the DataEx, so it needs no invalidation;
                // an atomic invalidates everyone.
                let exclude = match req.payload {
                    ReqPayload::GetX { .. } => Some(req.src),
                    _ => None,
                };
                let targets: Vec<CoreId> = Self::sharers(mask)
                    .into_iter()
                    .filter(|c| Some(*c) != exclude)
                    .collect();
                if let DirState::Shared(m) =
                    &mut self.tags.access(req.line).expect("checked").state.state
                {
                    *m = 0;
                }
                if targets.is_empty() {
                    match req.payload {
                        ReqPayload::GetX { .. } => self.grant_exclusive(cycle, &req, out),
                        _ => self.apply_atomic(cycle, &req, out),
                    }
                    return;
                }
                self.stats.invs_sent += targets.len() as u64;
                self.stats.stalled_stores += 1;
                for dst in &targets {
                    out.to_l1.push(RespMsg {
                        dst: *dst,
                        line: req.line,
                        id: ReqId(0),
                        payload: RespPayload::Inv,
                    });
                }
                self.txns.insert(
                    req.line,
                    Txn::CollectInvs {
                        needed: targets.len(),
                        op: req,
                        started: cycle,
                    },
                );
            }
        }
    }

    fn replay_queued(
        &mut self,
        cycle: Cycle,
        line: LineAddr,
        queued: VecDeque<ReqMsg>,
        out: &mut L2Outbox,
    ) {
        // Queued requests were absorbed by the MSHR *before* the fill
        // arrived; anything in `deferred` arrived later, while the fill was
        // stalled or a transaction was open. Replay the queued requests
        // first, and if one of them re-blocks the line, park the remainder
        // *ahead* of the existing deferred requests — otherwise two
        // same-core requests could be acknowledged out of order.
        let mut queued = queued;
        while let Some(req) = queued.pop_front() {
            if self.is_blocked(line) {
                queued.push_front(req);
                let mut newer = self.deferred.remove(&line).unwrap_or_default();
                self.deferred_count += queued.len();
                queued.append(&mut newer);
                self.deferred.insert(line, queued);
                return;
            }
            self.serve_hit(cycle, req, out);
        }
        self.redispatch_deferred(cycle, line, out);
    }

    fn try_fill_or_recall(
        &mut self,
        cycle: Cycle,
        line: LineAddr,
        data: Box<LineData>,
        queued: VecDeque<ReqMsg>,
        out: &mut L2Outbox,
    ) {
        let txns = &self.txns;
        // Prefer victims with no tracked copies at all.
        let attempt = self.tags.fill(
            line,
            WbDir {
                state: DirState::Shared(0),
            },
            data,
            false,
            |addr, d| matches!(d.state, DirState::Shared(0)) && !txns.contains_key(&addr),
        );
        match attempt {
            Ok(evicted) => {
                if let Some(ev) = evicted {
                    bank::write_back(&mut self.stats, out, ev.line);
                }
                self.replay_queued(cycle, line, queued, out);
            }
            Err(data) => {
                // Recall a tracked victim: Shared sharers get Inv (acks
                // only); a Modified owner must return its data.
                let victim = self
                    .tags
                    .peek_victim(line, |addr, _| !txns.contains_key(&addr))
                    .map(|v| (v.addr, v.state.state));
                self.filling.insert(line);
                let Some((victim_addr, state)) = victim else {
                    self.stalled_fills.push(PendingFill { line, data, queued });
                    return;
                };
                match state {
                    DirState::Modified(owner) => {
                        self.stats.invs_sent += 1;
                        out.to_l1.push(RespMsg {
                            dst: owner,
                            line: victim_addr,
                            id: ReqId(0),
                            payload: RespPayload::Recall,
                        });
                        self.txns.insert(
                            victim_addr,
                            Txn::AwaitWb {
                                op: None,
                                pending_fill: Some(PendingFill { line, data, queued }),
                                started: cycle,
                            },
                        );
                    }
                    DirState::Shared(mask) => {
                        let targets = Self::sharers(mask);
                        debug_assert!(!targets.is_empty());
                        self.stats.invs_sent += targets.len() as u64;
                        for dst in &targets {
                            out.to_l1.push(RespMsg {
                                dst: *dst,
                                line: victim_addr,
                                id: ReqId(0),
                                payload: RespPayload::Inv,
                            });
                        }
                        // Reuse CollectInvs with a synthetic "op" meaning
                        // "complete the eviction"; represented via AwaitWb
                        // with a pending fill and `needed` tracked by
                        // clearing the mask and counting acks in the
                        // CollectInvs arm would conflate ops — instead we
                        // model it as CollectInvs whose op is the fill.
                        self.txns.insert(
                            victim_addr,
                            Txn::CollectInvs {
                                needed: targets.len(),
                                op: ReqMsg {
                                    src: CoreId(0),
                                    line: victim_addr,
                                    id: ReqId(0),
                                    // Marker: an InvAck-completing eviction.
                                    payload: ReqPayload::FlushAck,
                                },
                                started: cycle,
                            },
                        );
                        // Stash the fill alongside (keyed by victim).
                        self.stalled_fills.push(PendingFill { line, data, queued });
                    }
                }
            }
        }
    }

    fn complete_victim_eviction(&mut self, victim: LineAddr, out: &mut L2Outbox) {
        if let Some(v) = self.tags.invalidate(victim) {
            bank::write_back(&mut self.stats, out, v);
        }
    }

    fn handle_inv_ack(&mut self, cycle: Cycle, line: LineAddr, out: &mut L2Outbox) {
        match self.txns.get_mut(&line) {
            Some(Txn::CollectInvs { needed, .. }) => {
                *needed -= 1;
                if *needed > 0 {
                    return;
                }
                let Some(Txn::CollectInvs { op, started, .. }) = self.txns.remove(&line) else {
                    unreachable!();
                };
                self.stats.store_stall_cycles += cycle.raw().saturating_sub(started.raw());
                if matches!(op.payload, ReqPayload::FlushAck) {
                    // Eviction marker: remove the victim and retry the
                    // parked fill(s).
                    self.complete_victim_eviction(line, out);
                    let stalled = std::mem::take(&mut self.stalled_fills);
                    for pf in stalled {
                        self.filling.remove(&pf.line);
                        self.try_fill_or_recall(cycle, pf.line, pf.data, pf.queued, out);
                    }
                } else {
                    match op.payload {
                        ReqPayload::GetX { .. } => self.grant_exclusive(cycle, &op, out),
                        _ => self.apply_atomic(cycle, &op, out),
                    }
                }
                self.redispatch_deferred(cycle, line, out);
            }
            Some(Txn::AwaitWb { .. }) | None => {
                // Spurious ack from a stale sharer bit; nothing to do.
            }
        }
    }

    fn handle_wb_data(
        &mut self,
        cycle: Cycle,
        src: CoreId,
        line: LineAddr,
        data: Box<LineData>,
        out: &mut L2Outbox,
    ) {
        // Always acknowledge so the writer can clear its in-flight set.
        out.to_l1.push(RespMsg {
            dst: src,
            line,
            id: ReqId(0),
            payload: RespPayload::WbAck,
        });
        match self.txns.remove(&line) {
            Some(Txn::AwaitWb {
                op,
                pending_fill,
                started,
            }) => {
                self.stats.store_stall_cycles += cycle.raw().saturating_sub(started.raw());
                if let Some(l) = self.tags.access(line) {
                    l.data = *data;
                    l.dirty = true;
                    l.state.state = DirState::Shared(0);
                }
                if let Some(req) = op {
                    self.serve_hit(cycle, req, out);
                }
                if let Some(pf) = pending_fill {
                    self.complete_victim_eviction(line, out);
                    self.filling.remove(&pf.line);
                    self.try_fill_or_recall(cycle, pf.line, pf.data, pf.queued, out);
                }
                self.redispatch_deferred(cycle, line, out);
            }
            Some(txn) => {
                // Shouldn't happen: put it back.
                self.txns.insert(line, txn);
            }
            None => {
                // Voluntary writeback.
                if let Some(l) = self.tags.access(line) {
                    l.data = *data;
                    l.dirty = true;
                    l.state.state = DirState::Shared(0);
                }
            }
        }
    }
}

impl L2Bank for MesiWbL2 {
    fn handle_req(&mut self, cycle: Cycle, req: ReqMsg, out: &mut L2Outbox) -> Result<(), ReqMsg> {
        let line = req.line;
        match req.payload {
            ReqPayload::InvAck => {
                self.handle_inv_ack(cycle, line, out);
                return Ok(());
            }
            ReqPayload::WbData { data, last_seq } => {
                // Post-recall services must order after the owner's
                // local stores.
                self.seq = self.seq.max(last_seq);
                self.handle_wb_data(cycle, req.src, line, data, out);
                return Ok(());
            }
            ReqPayload::FlushAck => return Ok(()),
            _ => {}
        }
        if self.must_defer(line) {
            self.defer(req);
            return Ok(());
        }
        match &req.payload {
            ReqPayload::Gets { .. } | ReqPayload::GetX { .. } | ReqPayload::Atomic { .. } => {
                bank::count(&mut self.stats, &req.payload);
                match bank::route(&self.tags, &mut self.mshrs, &mut self.stats, out, line) {
                    Route::Mshr(entry) => entry.queued.push_back(req),
                    Route::Hit => self.serve_hit(cycle, req, out),
                    Route::Full => return bank::refuse(&mut self.stats, req),
                }
            }
            ReqPayload::Write { .. } => {
                debug_assert!(false, "write-back L1s never send write-through stores");
            }
            _ => unreachable!("handled above"),
        }
        Ok(())
    }

    fn handle_dram(
        &mut self,
        cycle: Cycle,
        line: LineAddr,
        data: Box<LineData>,
        out: &mut L2Outbox,
    ) {
        let entry = self
            .mshrs
            .release(line)
            .expect("DRAM fill without an MSHR entry");
        self.try_fill_or_recall(cycle, line, data, entry.queued, out);
        self.retry_mshr_waiters(cycle, out);
    }

    fn tick(&mut self, cycle: Cycle, out: &mut L2Outbox) {
        if self.stalled_fills_retryable() {
            let stalled = std::mem::take(&mut self.stalled_fills);
            for pf in stalled {
                self.filling.remove(&pf.line);
                self.try_fill_or_recall(cycle, pf.line, pf.data, pf.queued, out);
            }
        }
    }

    fn next_event(&self, now: Cycle) -> Option<Cycle> {
        // Exact: the hint is `tick`'s own guard. While an eviction recall
        // holds the parked fills the bank sleeps; the InvAck or WbData
        // that ends the recall retries them in `handle_req`, after which
        // the engine re-arms the bank.
        self.stalled_fills_retryable().then_some(now + 1)
    }

    fn pending(&self) -> usize {
        self.mshrs.len() + self.deferred_count + self.txns.len() + self.stalled_fills.len()
    }

    fn stats(&self) -> &L2Stats {
        &self.stats
    }
}

impl Deferral for MesiWbL2 {
    fn is_blocked(&self, line: LineAddr) -> bool {
        self.txns.contains_key(&line) || self.filling.contains(&line)
    }

    fn deferred(&self) -> &FxHashMap<LineAddr, VecDeque<ReqMsg>> {
        &self.deferred
    }

    fn deferred_mut(&mut self) -> (&mut FxHashMap<LineAddr, VecDeque<ReqMsg>>, &mut usize) {
        (&mut self.deferred, &mut self.deferred_count)
    }
}
