//! MESI L2 bank: the coherence directory. Tracks sharers per line, turns
//! stores into invalidate-collect-apply sequences, and recalls sharers on
//! evictions.

use crate::bank::{self, Deferral, Route};
use crate::msg::{ReqId, ReqMsg, ReqPayload, RespMsg, RespPayload};
use crate::protocol::{L2Bank, L2Outbox, L2Stats};
use rcc_common::addr::LineAddr;
use rcc_common::config::GpuConfig;
use rcc_common::ids::{CoreId, PartitionId};
use rcc_common::time::{Cycle, Timestamp};
use rcc_common::{FxHashMap, FxHashSet};
use rcc_mem::{LineData, MshrFile, TagArray};
use std::collections::VecDeque;

/// Directory state per line: which cores hold (possibly stale-tracked)
/// copies. L1s evict silently, so a bit may be set for a core that no
/// longer caches the line — such cores simply ack the spurious
/// invalidation.
#[derive(Debug, Clone, Copy, Default)]
struct Directory {
    sharers: u64,
}

impl Directory {
    fn add(&mut self, core: CoreId) {
        self.sharers |= 1 << core.index();
    }

    fn all(&self) -> Vec<CoreId> {
        (0..64)
            .filter(|i| self.sharers & (1 << i) != 0)
            .map(CoreId)
            .collect()
    }
}

/// An invalidate-collect-apply transaction in flight for a resident line.
#[derive(Debug, Clone)]
struct PendingInv {
    needed: usize,
    /// The write/atomic that triggered the invalidations (applied when
    /// the last ack arrives).
    op: ReqMsg,
    started: Cycle,
}

/// A fill waiting for a recall to finish.
#[derive(Debug, Clone)]
struct PendingFill {
    line: LineAddr,
    data: Box<LineData>,
    queued: VecDeque<ReqMsg>,
}

/// A recall in flight: the victim stays resident (transiently busy) until
/// every sharer acked; only then may the displacing fill complete. This
/// is the recall cost the paper contrasts with RCC's self-expiring leases
/// ("RCC allows caches to be non-inclusive without requiring the usual
/// recall messages").
#[derive(Debug, Clone)]
struct Recall {
    needed: usize,
    pending_fill: Option<PendingFill>,
}

#[derive(Debug, Clone, Default)]
struct MesiEntry {
    /// All requests that arrived while the line was being fetched, in
    /// arrival order; replayed through the hit paths at fill time.
    queued: VecDeque<ReqMsg>,
}

/// The MESI controller for one L2 partition.
#[derive(Debug, Clone)]
pub struct MesiL2 {
    partition: PartitionId,
    tags: TagArray<Directory>,
    mshrs: MshrFile<MesiEntry>,
    pending_inv: FxHashMap<LineAddr, PendingInv>,
    recalls: FxHashMap<LineAddr, Recall>,
    /// Lines whose fill is parked behind a recall.
    filling: FxHashSet<LineAddr>,
    /// Fills that found every way transiently busy; retried each tick.
    stalled_fills: Vec<PendingFill>,
    deferred: FxHashMap<LineAddr, VecDeque<ReqMsg>>,
    deferred_count: usize,
    seq: u64,
    stats: L2Stats,
}

impl MesiL2 {
    /// Creates the controller for `partition`.
    pub fn new(partition: PartitionId, cfg: &GpuConfig) -> Self {
        let (tags, mshrs) = bank::arrays(cfg);
        MesiL2 {
            partition,
            tags,
            mshrs,
            pending_inv: FxHashMap::default(),
            recalls: FxHashMap::default(),
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

    /// Sharer count of a resident line (for tests).
    pub fn sharer_count(&self, line: LineAddr) -> Option<u32> {
        self.tags.probe(line).map(|l| l.state.sharers.count_ones())
    }

    fn next_seq(&mut self) -> u64 {
        self.seq += 1;
        self.seq
    }

    fn serve_gets_hit(&mut self, cycle: Cycle, req: &ReqMsg, out: &mut L2Outbox) {
        let seq = self.next_seq();
        let line = self.tags.access(req.line).expect("hit requires residency");
        line.state.add(req.src);
        out.to_l1.push(RespMsg {
            dst: req.src,
            line: req.line,
            id: req.id,
            payload: RespPayload::Data {
                data: line.data.boxed(),
                ver: Timestamp(cycle.raw()),
                exp: Timestamp(u64::MAX),
                seq,
            },
        });
    }

    /// Applies a (write-permission-holding) store/atomic and acks it.
    fn apply_write(&mut self, cycle: Cycle, req: &ReqMsg, out: &mut L2Outbox) {
        let seq = self.next_seq();
        let ver = Timestamp(cycle.raw());
        let meta = self
            .tags
            .access(req.line)
            .expect("apply requires residency");
        match &req.payload {
            ReqPayload::Write { word, value, .. } => {
                meta.data.set_word(*word, *value);
                meta.dirty = true;
                out.to_l1.push(RespMsg {
                    dst: req.src,
                    line: req.line,
                    id: req.id,
                    payload: RespPayload::StoreAck { ver, seq },
                });
            }
            ReqPayload::Atomic { word, op, .. } => {
                let old = meta.data.word(*word);
                if op.mutates(old) {
                    meta.data.set_word(*word, op.apply(old));
                    meta.dirty = true;
                }
                out.to_l1.push(RespMsg {
                    dst: req.src,
                    line: req.line,
                    id: req.id,
                    payload: RespPayload::AtomicResp {
                        value: old,
                        ver,
                        seq,
                    },
                });
            }
            other => unreachable!("apply_write on {other:?}"),
        }
    }

    fn serve_write_hit(&mut self, cycle: Cycle, req: ReqMsg, out: &mut L2Outbox) {
        let line = req.line;
        let targets = {
            let meta = self.tags.probe_mut(line).expect("hit requires residency");
            // Invalidate every tracked copy — including the writer's own
            // core: although the writer dropped its copy at store issue,
            // another of its warps may have refetched the line while the
            // write-through was in flight, and that copy is stale too.
            let targets = meta.state.all();
            meta.state.sharers = 0;
            targets
        };
        if targets.is_empty() {
            self.apply_write(cycle, &req, out);
            return;
        }
        // Invalidate-collect-apply: the store waits for every sharer.
        self.stats.stalled_stores += 1;
        self.stats.invs_sent += targets.len() as u64;
        for dst in &targets {
            out.to_l1.push(RespMsg {
                dst: *dst,
                line,
                id: ReqId(0),
                payload: RespPayload::Inv,
            });
        }
        self.pending_inv.insert(
            line,
            PendingInv {
                needed: targets.len(),
                op: req,
                started: cycle,
            },
        );
    }

    fn serve_hit(&mut self, cycle: Cycle, req: ReqMsg, out: &mut L2Outbox) {
        match &req.payload {
            ReqPayload::Gets { .. } => self.serve_gets_hit(cycle, &req, out),
            _ => self.serve_write_hit(cycle, req, out),
        }
    }

    /// Replays requests that queued behind a fetch, in arrival order; a
    /// write needing invalidations blocks the line and defers the rest,
    /// behind any requests deferred earlier (MESI-WB replays ahead of
    /// them; both orders are kept bit for bit).
    fn replay_queued(
        &mut self,
        cycle: Cycle,
        line: LineAddr,
        queued: VecDeque<ReqMsg>,
        out: &mut L2Outbox,
    ) {
        for req in queued {
            if self.must_defer(line) {
                self.defer(req);
            } else {
                self.serve_hit(cycle, req, out);
            }
        }
        self.redispatch_deferred(cycle, line, out);
    }

    /// Completes a fill if a sharer-free way exists; otherwise starts a
    /// recall of the LRU shared victim and parks the fill behind it.
    fn try_fill_or_recall(
        &mut self,
        cycle: Cycle,
        line: LineAddr,
        data: Box<LineData>,
        queued: VecDeque<ReqMsg>,
        out: &mut L2Outbox,
    ) {
        let (pending_inv, recalls) = (&self.pending_inv, &self.recalls);
        let blocked =
            |addr: LineAddr| pending_inv.contains_key(&addr) || recalls.contains_key(&addr);
        let attempt = self
            .tags
            .fill(line, Directory::default(), data, false, |addr, d| {
                d.sharers == 0 && !blocked(addr)
            });
        match attempt {
            Ok(evicted) => {
                if let Some(ev) = evicted {
                    debug_assert_eq!(ev.line.state.sharers, 0);
                    bank::write_back(&mut self.stats, out, ev.line);
                }
                self.replay_queued(cycle, line, queued, out);
            }
            Err(data) => {
                // Every candidate way holds a shared line: recall the LRU
                // one. The victim stays resident (busy) and the fill waits
                // for the acks — the directory-protocol cost RCC avoids.
                let victim = self
                    .tags
                    .peek_victim(line, |addr, _| !blocked(addr))
                    .map(|v| (v.addr, v.state.all()));
                let Some((victim_addr, targets)) = victim else {
                    // All ways transiently busy; retry next cycle.
                    self.stalled_fills.push(PendingFill { line, data, queued });
                    return;
                };
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
                self.filling.insert(line);
                self.recalls.insert(
                    victim_addr,
                    Recall {
                        needed: targets.len(),
                        pending_fill: Some(PendingFill { line, data, queued }),
                    },
                );
            }
        }
    }

    fn handle_inv_ack(&mut self, cycle: Cycle, line: LineAddr, out: &mut L2Outbox) {
        if let Some(p) = self.pending_inv.get_mut(&line) {
            p.needed -= 1;
            if p.needed == 0 {
                let p = self.pending_inv.remove(&line).expect("present");
                self.stats.store_stall_cycles += cycle.raw() - p.started.raw();
                self.apply_write(cycle, &p.op, out);
                self.redispatch_deferred(cycle, line, out);
            }
            return;
        }
        if let Some(r) = self.recalls.get_mut(&line) {
            r.needed -= 1;
            if r.needed == 0 {
                let r = self.recalls.remove(&line).expect("present");
                let victim = self
                    .tags
                    .invalidate(line)
                    .expect("recalled victim stays resident until acked");
                bank::write_back(&mut self.stats, out, victim);
                if let Some(pf) = r.pending_fill {
                    self.filling.remove(&pf.line);
                    // A way is now free; this fill cannot evict.
                    let ev = self
                        .tags
                        .fill(pf.line, Directory::default(), pf.data, false, |_, _| true)
                        .expect("way just freed");
                    debug_assert!(ev.is_none());
                    self.replay_queued(cycle, pf.line, pf.queued, out);
                }
                self.redispatch_deferred(cycle, line, out);
            }
            return;
        }
        debug_assert!(false, "inv-ack for {line} with no transaction");
    }
}

impl L2Bank for MesiL2 {
    fn handle_req(&mut self, cycle: Cycle, req: ReqMsg, out: &mut L2Outbox) -> Result<(), ReqMsg> {
        let line = req.line;
        if matches!(req.payload, ReqPayload::InvAck) {
            self.handle_inv_ack(cycle, line, out);
            return Ok(());
        }
        if matches!(req.payload, ReqPayload::FlushAck) {
            return Ok(());
        }
        if self.must_defer(line) {
            self.defer(req);
            return Ok(());
        }
        match &req.payload {
            ReqPayload::Gets { .. } | ReqPayload::Write { .. } | ReqPayload::Atomic { .. } => {
                bank::count(&mut self.stats, &req.payload);
                match bank::route(&self.tags, &mut self.mshrs, &mut self.stats, out, line) {
                    Route::Mshr(entry) => entry.queued.push_back(req),
                    Route::Hit => self.serve_hit(cycle, req, out),
                    Route::Full => return bank::refuse(&mut self.stats, req),
                }
            }
            ReqPayload::InvAck | ReqPayload::FlushAck => unreachable!("handled above"),
            ReqPayload::GetX { .. } | ReqPayload::WbData { .. } => {
                debug_assert!(false, "write-through MESI L1s never send these");
            }
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
        if !self.stalled_fills.is_empty() {
            let stalled = std::mem::take(&mut self.stalled_fills);
            for pf in stalled {
                self.try_fill_or_recall(cycle, pf.line, pf.data, pf.queued, out);
            }
        }
    }

    fn next_event(&self, now: Cycle) -> Option<Cycle> {
        // Only stalled fills need per-cycle retries; everything else is
        // driven by requests, acks, and DRAM fills.
        if self.stalled_fills.is_empty() {
            None
        } else {
            Some(now + 1)
        }
    }

    fn pending(&self) -> usize {
        self.mshrs.len()
            + self.deferred_count
            + self.pending_inv.len()
            + self.recalls.len()
            + self.stalled_fills.len()
    }

    fn stats(&self) -> &L2Stats {
        &self.stats
    }
}

impl Deferral for MesiL2 {
    fn is_blocked(&self, line: LineAddr) -> bool {
        self.pending_inv.contains_key(&line)
            || self.recalls.contains_key(&line)
            || self.filling.contains(&line)
    }

    fn deferred(&self) -> &FxHashMap<LineAddr, VecDeque<ReqMsg>> {
        &self.deferred
    }

    fn deferred_mut(&mut self) -> (&mut FxHashMap<LineAddr, VecDeque<ReqMsg>>, &mut usize) {
        (&mut self.deferred, &mut self.deferred_count)
    }
}
