//! TC L1 controller: physically-timed leases, self-invalidation, no
//! invalidation traffic. Shared by TC-Strong and TC-Weak — the store
//! discipline lives entirely in the L2.

use crate::l1::{self, PendingWrite};
use crate::msg::{
    Access, AccessKind, AccessOutcome, Completion, CompletionKind, ReqId, RespMsg, RespPayload,
};
use crate::protocol::{L1Cache, L1Outbox, L1Stats};
use rcc_common::addr::{LineAddr, WordAddr};
use rcc_common::config::GpuConfig;
use rcc_common::ids::{CoreId, WarpId};
use rcc_common::time::{Cycle, Timestamp};
use rcc_mem::{MshrFile, TagArray};
use std::collections::VecDeque;

/// Per-line metadata: physical lease expiration (exclusive — the copy is
/// readable while `cycle < exp`) and the bank service sequence of the
/// fill, used as the sub-cycle position of hits.
#[derive(Debug, Clone, Copy)]
struct TcMeta {
    exp: Timestamp,
    fill_seq: u64,
}

#[derive(Debug, Clone, Default)]
struct TcEntry {
    /// Merged loads with their issue cycles: a merged load's SC position
    /// is `max(serve time, issue time)` — within the granted lease, so
    /// still before any write the data could have missed.
    waiting_loads: Vec<(WarpId, WordAddr, u64)>,
    pending_writes: VecDeque<PendingWrite>,
    gets_outstanding: bool,
}

/// The TC L1 controller for one core.
#[derive(Debug, Clone)]
pub struct TcL1 {
    core: CoreId,
    tags: TagArray<TcMeta>,
    mshrs: MshrFile<TcEntry>,
    next_req: u64,
    stats: L1Stats,
}

impl TcL1 {
    /// Creates the controller for `core`.
    pub fn new(core: CoreId, cfg: &GpuConfig) -> Self {
        let (tags, mshrs) = l1::arrays(cfg);
        TcL1 {
            core,
            tags,
            mshrs,
            next_req: 1,
            stats: L1Stats::default(),
        }
    }

    /// Physical lease expiration of a resident line (for tests).
    pub fn lease_exp(&self, line: LineAddr) -> Option<Timestamp> {
        self.tags.probe(line).map(|l| l.state.exp)
    }

    fn is_readable(&self, cycle: Cycle, line: LineAddr) -> bool {
        self.tags
            .probe(line)
            .is_some_and(|l| Timestamp(cycle.raw()) < l.state.exp)
    }

    fn start_load(&mut self, cycle: Cycle, access: Access, out: &mut L1Outbox) -> AccessOutcome {
        let line = access.addr.line();
        let now = Timestamp(cycle.raw());
        if self.is_readable(cycle, line) {
            // Hits are positioned at their fill's bank slot within the
            // cycle: before any same-cycle write they cannot have seen.
            return AccessOutcome::Done(l1::hit(&mut self.tags, &access, now, |m| m.fill_seq));
        }
        if !self.mshrs.contains(line) && self.tags.invalidate(line).is_some() {
            // Physically expired copy: self-invalidate (no renew
            // mechanism in TC — drop the stale data).
            self.stats.expired_loads += 1;
            self.stats.self_invalidations += 1;
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
    /// and releases the MSHR entry and the (write-no-allocate) line if
    /// nothing remains outstanding.
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
}

impl L1Cache for TcL1 {
    fn access(&mut self, cycle: Cycle, access: Access, out: &mut L1Outbox) -> AccessOutcome {
        let outcome = match access.kind {
            AccessKind::Load => self.start_load(cycle, access, out),
            AccessKind::Store { .. } | AccessKind::Atomic { .. } => l1::send_write(
                self.core,
                &mut self.next_req,
                &mut self.mshrs,
                access,
                Timestamp(cycle.raw()),
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
                let entry = self.mshrs.get_mut(line).expect("DATA without entry");
                entry.gets_outstanding = false;
                let loads = std::mem::take(&mut entry.waiting_loads);
                let mut refetch = Vec::new();
                for (warp, addr, issued) in loads {
                    // The lease guarantees no write applies before `exp`,
                    // so the value is current for any position below it.
                    // A load that merged *after* the covered window must
                    // re-request — its data could already be stale.
                    if Timestamp(issued) >= exp {
                        refetch.push((warp, addr, issued));
                        continue;
                    }
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
                let mshrs = &self.mshrs;
                let _ = self.tags.fill(
                    line,
                    TcMeta { exp, fill_seq: seq },
                    data,
                    false,
                    |addr, _| !mshrs.contains(addr),
                );
                if refetch.is_empty() {
                    let entry = self.mshrs.get(line).expect("entry exists");
                    if entry.pending_writes.is_empty() {
                        debug_assert!(entry.waiting_loads.is_empty());
                        self.mshrs.release(line);
                    }
                } else {
                    let entry = self.mshrs.get_mut(line).expect("entry exists");
                    entry.waiting_loads = refetch;
                    // The fresh grant will exceed `exp`.
                    l1::send_gets(&mut entry.gets_outstanding, self.core, line, exp, None, out);
                }
            }
            RespPayload::StoreAck { ver, seq } => {
                // TCS: the apply time. TCW: the GWCT the LSU's fences will
                // wait on.
                self.complete_write(line, resp.id, CompletionKind::StoreDone, ver, seq, out);
            }
            RespPayload::AtomicResp { value, ver, seq } => {
                let kind = CompletionKind::AtomicDone { old: value };
                self.complete_write(line, resp.id, kind, ver, seq, out);
            }
            RespPayload::Renew { .. }
            | RespPayload::Inv
            | RespPayload::Flush
            | RespPayload::DataEx { .. }
            | RespPayload::Recall
            | RespPayload::WbAck => {
                debug_assert!(false, "TC never sends these");
            }
        }
    }

    fn tick(&mut self, _cycle: Cycle, _out: &mut L1Outbox) {}

    fn next_event(&self, _now: Cycle) -> Option<Cycle> {
        // Lease expiry is checked lazily on access; no spontaneous work.
        None
    }

    fn set_chaos(&mut self, hook: Box<dyn rcc_chaos::PerturbPoint>) {
        // The only TC L1 injection point is transient MSHR exhaustion.
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
