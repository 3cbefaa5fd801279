//! MESI L1 controller: Shared-state write-through cache with external
//! invalidations.

use crate::l1::{self, PendingWrite};
use crate::msg::{
    Access, AccessKind, AccessOutcome, Completion, CompletionKind, RejectReason, ReqId, ReqMsg,
    ReqPayload, RespMsg, RespPayload,
};
use crate::protocol::{L1Cache, L1Outbox, L1Stats};
use rcc_common::addr::{LineAddr, WordAddr};
use rcc_common::config::GpuConfig;
use rcc_common::ids::{CoreId, WarpId};
use rcc_common::time::{Cycle, Timestamp};
use rcc_mem::{MshrFile, TagArray};
use std::collections::VecDeque;

#[derive(Debug, Clone, Default)]
struct MesiEntry {
    /// Merged loads with their issue cycles: positioned at
    /// `max(directory service time, issue time)` — every merged load
    /// issued before our inv-ack, which precedes any racing write's
    /// completion, so the fetched value is current at either point.
    waiting_loads: Vec<(WarpId, WordAddr, u64)>,
    pending_writes: VecDeque<PendingWrite>,
    gets_outstanding: bool,
    /// An invalidation raced the fetch: complete the merged loads when
    /// the data arrives, but do not cache it, and accept no new loads.
    poisoned: bool,
}

/// Per-line L1 metadata: the directory service slot of the fill, used as
/// the sub-cycle position of hits.
#[derive(Debug, Clone, Copy)]
struct SharedMeta {
    fill_seq: u64,
}

/// The MESI L1 controller for one core.
#[derive(Debug, Clone)]
pub struct MesiL1 {
    core: CoreId,
    tags: TagArray<SharedMeta>,
    mshrs: MshrFile<MesiEntry>,
    next_req: u64,
    stats: L1Stats,
}

impl MesiL1 {
    /// Creates the controller for `core`.
    pub fn new(core: CoreId, cfg: &GpuConfig) -> Self {
        let (tags, mshrs) = l1::arrays(cfg);
        MesiL1 {
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

    fn start_load(&mut self, cycle: Cycle, access: Access, out: &mut L1Outbox) -> AccessOutcome {
        let line = access.addr.line();
        let now = Timestamp(cycle.raw());
        if self.tags.probe(line).is_some() {
            // Positioned at the fill's directory slot within the cycle:
            // before any same-cycle write this copy cannot have seen.
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
        l1::send_gets(&mut entry.gets_outstanding, self.core, line, now, None, out);
        AccessOutcome::Pending
    }

    /// Completes the write `id` the L2 acknowledged at (`ts`, `seq`),
    /// and releases the MSHR entry if nothing remains outstanding.
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
        }
    }
}

impl L1Cache for MesiL1 {
    fn access(&mut self, cycle: Cycle, access: Access, out: &mut L1Outbox) -> AccessOutcome {
        let outcome = match access.kind {
            AccessKind::Load => self.start_load(cycle, access, out),
            AccessKind::Store { .. } | AccessKind::Atomic { .. } => {
                let outcome = l1::send_write(
                    self.core,
                    &mut self.next_req,
                    &mut self.mshrs,
                    access,
                    Timestamp(cycle.raw()),
                    |e, w| e.pending_writes.push_back(w),
                    out,
                );
                // Write-through-invalidate: drop the local copy at issue
                // so no warp on this core can read the pre-store value
                // after the store is globally ordered.
                if outcome == AccessOutcome::Pending
                    && self.tags.invalidate(access.addr.line()).is_some()
                {
                    self.stats.self_invalidations += 1;
                }
                outcome
            }
        };
        l1::count(&mut self.stats, access.kind, outcome)
    }

    fn handle_resp(&mut self, _cycle: Cycle, resp: RespMsg, out: &mut L1Outbox) {
        let line = resp.line;
        match resp.payload {
            RespPayload::Data {
                data,
                ver,
                exp: _,
                seq,
            } => {
                let entry = self.mshrs.get_mut(line).expect("DATA without entry");
                entry.gets_outstanding = false;
                let poisoned = entry.poisoned;
                entry.poisoned = false;
                let loads = std::mem::take(&mut entry.waiting_loads);
                for (warp, addr, issued) in loads {
                    out.completions.push(Completion {
                        warp,
                        addr,
                        kind: CompletionKind::LoadDone {
                            value: data.word_at(addr),
                        },
                        // max(directory slot, issue time); even for a
                        // poisoned fill this precedes the racing write's
                        // completion (our inv-ack gates it).
                        ts: ver.join(Timestamp(issued)),
                        seq,
                    });
                }
                if !poisoned {
                    let mshrs = &self.mshrs;
                    let _ = self.tags.fill(
                        line,
                        SharedMeta { fill_seq: seq },
                        data,
                        false,
                        |addr, _| !mshrs.contains(addr),
                    );
                }
                let entry = self.mshrs.get(line).expect("entry exists");
                if entry.pending_writes.is_empty() {
                    self.mshrs.release(line);
                }
            }
            RespPayload::StoreAck { ver, seq } => {
                self.complete_write(line, resp.id, CompletionKind::StoreDone, ver, seq, out);
            }
            RespPayload::AtomicResp { value, ver, seq } => {
                let kind = CompletionKind::AtomicDone { old: value };
                self.complete_write(line, resp.id, kind, ver, seq, out);
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
            RespPayload::Renew { .. }
            | RespPayload::Flush
            | RespPayload::DataEx { .. }
            | RespPayload::Recall
            | RespPayload::WbAck => {
                debug_assert!(false, "write-through MESI never sends these");
            }
        }
    }

    fn tick(&mut self, _cycle: Cycle, _out: &mut L1Outbox) {}

    fn next_event(&self, _now: Cycle) -> Option<Cycle> {
        // Purely reactive: invalidations and fills drive all transitions.
        None
    }

    fn set_chaos(&mut self, hook: Box<dyn rcc_chaos::PerturbPoint>) {
        // The only MESI L1 injection point is transient MSHR exhaustion.
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
