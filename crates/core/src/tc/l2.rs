//! TC L2 bank: grants fixed physical-time leases and implements the two
//! store disciplines (stall-until-expiry for TC-Strong, eager-with-GWCT
//! for TC-Weak).

use crate::bank::{self, Deferral, Route};
use crate::msg::{ReqMsg, ReqPayload, RespMsg, RespPayload};
use crate::protocol::{L2Bank, L2Outbox, L2Stats};
use crate::tc::StoreDiscipline;
use rcc_chaos::{PerturbPoint, Site};
use rcc_common::addr::LineAddr;
use rcc_common::config::{GpuConfig, TcParams};
use rcc_common::ids::PartitionId;
use rcc_common::time::{Cycle, Timestamp};
use rcc_common::FxHashMap;
use rcc_mem::{LineData, MshrFile, TagArray};
use std::collections::{BTreeMap, VecDeque};

/// Per-line metadata: the latest lease expiration granted (a cycle) and
/// the lifetime predictor's current lease for this line.
#[derive(Debug, Clone, Copy)]
struct TcMeta {
    exp: Timestamp,
    lease: u64,
}

/// A store or atomic waiting (TC-Strong) for leases to expire.
#[derive(Debug, Clone)]
struct WaitingWrite {
    req: ReqMsg,
}

#[derive(Debug, Clone, Default)]
struct TcEntry {
    /// All requests that arrived while the line was being fetched, in
    /// arrival order; replayed through the hit paths at fill time so a
    /// reader that arrived after a write observes it.
    queued: VecDeque<ReqMsg>,
}

/// The TC controller for one L2 partition.
#[derive(Debug, Clone)]
pub struct TcL2 {
    partition: PartitionId,
    lease: u64,
    lease_min: u64,
    lease_max: u64,
    discipline: StoreDiscipline,
    tags: TagArray<TcMeta>,
    mshrs: MshrFile<TcEntry>,
    /// TC-Strong: stores waiting for a line's leases to expire, keyed by
    /// release cycle. Requests to such lines defer behind them.
    waiting: BTreeMap<u64, Vec<WaitingWrite>>,
    /// Lines with waiting stores; same-line requests defer here to keep
    /// the per-line order (and to stop new leases from starving the store).
    deferred: FxHashMap<LineAddr, VecDeque<ReqMsg>>,
    blocked_lines: FxHashMap<LineAddr, usize>,
    /// Fills whose every candidate way held a line with parked stores;
    /// retried at every tick, and due the cycle after a release frees a
    /// way.
    stalled_fills: Vec<(LineAddr, Box<LineData>, VecDeque<ReqMsg>)>,
    deferred_count: usize,
    /// Maximum expiration among evicted lines (the physical-time analogue
    /// of RCC's `mnow`; see module docs in [`crate::tc`]).
    max_evicted_exp: Timestamp,
    seq: u64,
    /// Chaos hook: truncates granted leases (`Site::LeaseTruncate`),
    /// forcing early physical-time expirations.
    chaos: Option<Box<dyn PerturbPoint>>,
    stats: L2Stats,
}

impl TcL2 {
    /// Creates the controller for `partition`.
    pub fn new(
        partition: PartitionId,
        cfg: &GpuConfig,
        params: TcParams,
        discipline: StoreDiscipline,
    ) -> Self {
        let (tags, mshrs) = bank::arrays(cfg);
        TcL2 {
            partition,
            lease: params.lease_cycles,
            lease_min: params.lease_min,
            lease_max: params.lease_max,
            discipline,
            tags,
            mshrs,
            waiting: BTreeMap::new(),
            deferred: FxHashMap::default(),
            blocked_lines: FxHashMap::default(),
            stalled_fills: Vec::new(),
            deferred_count: 0,
            max_evicted_exp: Timestamp::ZERO,
            seq: 0,
            chaos: None,
            stats: L2Stats::default(),
        }
    }

    /// This bank's partition id.
    pub fn partition(&self) -> PartitionId {
        self.partition
    }

    /// Lease expiration of a resident line (for tests).
    pub fn line_exp(&self, line: LineAddr) -> Option<Timestamp> {
        self.tags.probe(line).map(|l| l.state.exp)
    }

    fn next_seq(&mut self) -> u64 {
        self.seq += 1;
        self.seq
    }

    /// Fills `line`, never evicting a line with parked stores.
    ///
    /// Hands the line back (having changed nothing but the LRU clock)
    /// when every candidate way is pinned by a parked store; the caller
    /// retries later.
    fn fill_line(
        &mut self,
        line: LineAddr,
        meta: TcMeta,
        data: Box<LineData>,
        out: &mut L2Outbox,
    ) -> Result<(), Box<LineData>> {
        let blocked = &self.blocked_lines;
        let evicted = self.tags.fill(line, meta, data, false, |addr, _| {
            !blocked.contains_key(&addr)
        })?;
        if let Some(ev) = evicted {
            self.max_evicted_exp = self.max_evicted_exp.join(ev.line.state.exp);
            bank::write_back(&mut self.stats, out, ev.line);
        }
        Ok(())
    }

    fn serve_hit(&mut self, cycle: Cycle, req: ReqMsg, out: &mut L2Outbox) {
        match &req.payload {
            ReqPayload::Gets { .. } => self.serve_gets_hit(cycle, &req, out),
            _ => self.serve_write_hit(cycle, req, out),
        }
    }

    fn serve_gets_hit(&mut self, cycle: Cycle, req: &ReqMsg, out: &mut L2Outbox) {
        let max = self.lease_max;
        let seq = self.next_seq();
        // Chaos: a fired truncation grants a one-cycle lease. Shorter
        // leases are strictly more conservative for TC (smaller stale
        // window, earlier self-invalidation), so this is always sound.
        let truncated = match &mut self.chaos {
            Some(c) => c.fires(Site::LeaseTruncate),
            None => false,
        };
        let meta = self.tags.access(req.line).expect("hit requires residency");
        let granted = if truncated { 1 } else { meta.state.lease };
        let exp = meta.state.exp.join(Timestamp(cycle.raw() + granted));
        meta.state.exp = exp;
        // Lifetime predictor: additive growth per re-read, so read-only
        // data creeps toward long leases while the ÷8 write penalty keeps
        // read-write shared lines (and their TCS stalls / TCW GWCTs)
        // short: AIMD settles near the read/write ratio × step.
        meta.state.lease = (meta.state.lease + 128).min(max);
        out.to_l1.push(RespMsg {
            dst: req.src,
            line: req.line,
            id: req.id,
            payload: RespPayload::Data {
                data: meta.data.boxed(),
                ver: Timestamp(cycle.raw()),
                exp,
                seq,
            },
        });
    }

    /// Applies a store/atomic to a resident line and acknowledges it.
    fn apply_write(&mut self, cycle: Cycle, req: &ReqMsg, out: &mut L2Outbox) {
        let gwct = {
            let meta = self.tags.probe(req.line).expect("apply requires residency");
            meta.state.exp.join(Timestamp(cycle.raw()))
        };
        let seq = self.next_seq();
        match &req.payload {
            ReqPayload::Write { word, value, .. } => {
                let meta = self.tags.access(req.line).expect("checked");
                meta.data.set_word(*word, *value);
                meta.dirty = true;
                let ver = match self.discipline {
                    // TCS applies only after expiry: position = now.
                    StoreDiscipline::StallUntilExpiry => Timestamp(cycle.raw()),
                    // TCW acks with the global write completion time.
                    StoreDiscipline::EagerWithGwct => gwct,
                };
                out.to_l1.push(RespMsg {
                    dst: req.src,
                    line: req.line,
                    id: req.id,
                    payload: RespPayload::StoreAck { ver, seq },
                });
            }
            ReqPayload::Atomic { word, op, .. } => {
                let meta = self.tags.access(req.line).expect("checked");
                let old = meta.data.word(*word);
                if op.mutates(old) {
                    meta.data.set_word(*word, op.apply(old));
                    meta.dirty = true;
                }
                let ver = match self.discipline {
                    StoreDiscipline::StallUntilExpiry => Timestamp(cycle.raw()),
                    StoreDiscipline::EagerWithGwct => gwct,
                };
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

    /// TC-Strong: park a write until `release` (exclusive lower bound on
    /// the apply cycle), blocking the line.
    fn park_write(&mut self, cycle: Cycle, release: Timestamp, req: ReqMsg) {
        self.stats.stalled_stores += 1;
        self.stats.store_stall_cycles += release.raw().saturating_sub(cycle.raw());
        *self.blocked_lines.entry(req.line).or_insert(0) += 1;
        self.waiting
            .entry(release.raw())
            .or_default()
            .push(WaitingWrite { req });
    }

    fn serve_write_hit(&mut self, cycle: Cycle, req: ReqMsg, out: &mut L2Outbox) {
        let exp = {
            let min = self.lease_min;
            let meta = self
                .tags
                .probe_mut(req.line)
                .expect("hit requires residency");
            if Timestamp(cycle.raw()) < meta.state.exp {
                // Lifetime predictor: a write hit an unexpired lease.
                // TC-Strong must cut hard — every cycle of residual lease
                // is a cycle its stores stall. TC-Weak's stores never
                // wait, so it only trims gently to bound fence GWCTs
                // while keeping read-shared lines cacheable (this is why
                // TCW tolerates false sharing that hurts RCC — e.g. the
                // bfs frontier mask).
                let divisor = match self.discipline {
                    StoreDiscipline::StallUntilExpiry => 8,
                    StoreDiscipline::EagerWithGwct => 2,
                };
                meta.state.lease = (meta.state.lease / divisor).max(min);
            }
            meta.state.exp
        };
        match self.discipline {
            StoreDiscipline::StallUntilExpiry if Timestamp(cycle.raw()) < exp => {
                // Outstanding leases: the store stalls at the L2 until
                // they all expire — the TCS behaviour RCC eliminates.
                self.park_write(cycle, exp, req);
            }
            _ => self.apply_write(cycle, &req, out),
        }
    }
}

impl L2Bank for TcL2 {
    fn handle_req(&mut self, cycle: Cycle, req: ReqMsg, out: &mut L2Outbox) -> Result<(), ReqMsg> {
        let line = req.line;
        // Order behind a parked store or earlier deferred requests.
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
            ReqPayload::InvAck
            | ReqPayload::FlushAck
            | ReqPayload::GetX { .. }
            | ReqPayload::WbData { .. } => {}
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
        self.finish_fill(cycle, line, data, entry.queued, out);
    }

    fn tick(&mut self, cycle: Cycle, out: &mut L2Outbox) {
        if !self.stalled_fills.is_empty() {
            let stalled = std::mem::take(&mut self.stalled_fills);
            for (line, data, queued) in stalled {
                self.finish_fill(cycle, line, data, queued, out);
            }
        }
        // Release parked stores whose leases have expired (cycle > exp).
        let ready: Vec<u64> = self
            .waiting
            .keys()
            .copied()
            .take_while(|&r| r <= cycle.raw())
            .collect();
        for r in ready {
            let writes = self.waiting.remove(&r).expect("key listed");
            for w in writes {
                let line = w.req.line;
                self.apply_write(cycle, &w.req, out);
                match self.blocked_lines.get_mut(&line) {
                    Some(n) if *n > 1 => *n -= 1,
                    _ => {
                        self.blocked_lines.remove(&line);
                    }
                }
                self.redispatch_deferred(cycle, line, out);
            }
        }
    }

    fn set_chaos(&mut self, hook: Box<dyn PerturbPoint>) {
        // Deliberately NOT forwarded to `self.mshrs` (see
        // `L2Bank::set_chaos`).
        self.chaos = Some(hook);
    }

    fn next_event(&self, now: Cycle) -> Option<Cycle> {
        // A stalled fill waits for a way whose parked stores released,
        // and a failed retry changes nothing, so the bank wakes the cycle
        // after a release frees one (`tick` retries fills before it
        // releases stores). Parked stores wake when the earliest blocking
        // lease expires (first key of the ordered map).
        let blocked = &self.blocked_lines;
        if self.stalled_fills.iter().any(|(line, ..)| {
            self.tags
                .can_fill(*line, |addr, _| !blocked.contains_key(&addr))
        }) {
            return Some(now + 1);
        }
        self.waiting
            .keys()
            .next()
            .map(|&release| Cycle(release.max(now.raw() + 1)))
    }

    fn pending(&self) -> usize {
        self.mshrs.len()
            + self.deferred_count
            + self.stalled_fills.len()
            + self.waiting.values().map(Vec::len).sum::<usize>()
    }

    fn stats(&self) -> &L2Stats {
        &self.stats
    }
}

impl TcL2 {
    /// Installs a filled line (inheriting the partition-wide evicted
    /// lease bound) and replays the requests queued behind the fetch.
    fn finish_fill(
        &mut self,
        cycle: Cycle,
        line: LineAddr,
        data: Box<LineData>,
        queued: VecDeque<ReqMsg>,
        out: &mut L2Outbox,
    ) {
        // A refetched line may still have unexpired copies from before its
        // eviction: conservatively inherit the partition-wide bound.
        let meta = TcMeta {
            exp: self.max_evicted_exp,
            lease: self.lease,
        };
        if let Err(data) = self.fill_line(line, meta, data, out) {
            self.stalled_fills.push((line, data, queued));
            return;
        }
        // Replay everything in arrival order through the hit paths, so a
        // reader that arrived after a write observes it. A TCS write may
        // park against the inherited expiration, deferring the remainder.
        for req in queued {
            if self.is_blocked(line) {
                self.defer(req);
            } else {
                self.serve_hit(cycle, req, out);
            }
        }
        self.redispatch_deferred(cycle, line, out);
    }
}

impl Deferral for TcL2 {
    fn is_blocked(&self, line: LineAddr) -> bool {
        self.blocked_lines.contains_key(&line)
    }

    fn deferred(&self) -> &FxHashMap<LineAddr, VecDeque<ReqMsg>> {
        &self.deferred
    }

    fn deferred_mut(&mut self) -> (&mut FxHashMap<LineAddr, VecDeque<ReqMsg>>, &mut usize) {
        (&mut self.deferred, &mut self.deferred_count)
    }
}
