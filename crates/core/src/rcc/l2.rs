//! RCC L2 bank controller (Fig. 5, right table).
//!
//! Stable states are V and I; the transient states are IV (miss being
//! filled from DRAM, with reads and writes merging into the MSHR) and IAV
//! (atomic waiting for a DRAM fill, stalling all other requests to the
//! block). The bank owns the per-partition "memory time" `mnow` that
//! preserves logical ordering across L2 evictions (Section III-D), the
//! per-block lease predictor state, and the write serialization sequence
//! numbers the consistency scoreboard uses to break ties between writes
//! that share a logical version.

use crate::bank::{self, Deferral, Route};
use crate::msg::{AtomicOp, ReqId, ReqMsg, ReqPayload, RespMsg, RespPayload};
use crate::protocol::{L2Bank, L2Outbox, L2Stats};
use crate::rcc::predictor::LeasePredictor;
use rcc_chaos::{PerturbPoint, Site};
use rcc_common::addr::LineAddr;
use rcc_common::config::{GpuConfig, RccParams};
use rcc_common::ids::{CoreId, PartitionId};
use rcc_common::time::{Cycle, Timestamp};
use rcc_common::FxHashMap;
use rcc_mem::{LineData, MshrFile, TagArray};
use std::collections::VecDeque;

/// The paper's L2 state names (Fig. 5, right table), derived for
/// inspection: two stable states plus the two transient fill states.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum L2State {
    /// Not present, no fill outstanding.
    I,
    /// Resident.
    V,
    /// Miss being filled from DRAM; reads and writes merge in the MSHR.
    Iv,
    /// Atomic waiting for a DRAM fill; all other requests to the block
    /// stall behind it.
    Iav,
}

/// Per-line L2 metadata: version, lease expiration, predicted lease.
#[derive(Debug, Clone, Copy)]
struct L2Meta {
    /// Logical time of the last write (Table II).
    ver: Timestamp,
    /// Expiration of the last outstanding lease (Table II).
    exp: Timestamp,
    /// Predicted lease duration for the next GETS (Section III-E).
    lease: u64,
}

/// An atomic operation waiting for its DRAM fill (IAV state).
#[derive(Debug, Clone, Copy)]
struct PendingAtomic {
    src: CoreId,
    id: ReqId,
    word: usize,
    op: AtomicOp,
    now: Timestamp,
}

/// MSHR entry for a line being filled from DRAM.
#[derive(Debug, Clone, Default)]
struct L2Entry {
    /// Latest `now` of any reading core (Table II, elidable in hardware).
    lastrd: Timestamp,
    has_read: bool,
    /// Latest `now` of any writing core (Table II).
    lastwr: Timestamp,
    has_write: bool,
    /// Cores (and their request ids) waiting for DATA.
    readers: Vec<(CoreId, ReqId)>,
    /// Word writes merged in physical arrival order; later writes to the
    /// same word win, matching the paper's same-version tiebreak by
    /// physical arrival at the L2 (footnote 2).
    merged_writes: Vec<(usize, u64)>,
    /// IAV: the atomic that triggered the fill.
    atomic: Option<PendingAtomic>,
}

impl L2Entry {
    fn is_iav(&self) -> bool {
        self.atomic.is_some()
    }
}

/// The RCC controller for one L2 partition.
#[derive(Debug, Clone)]
pub struct RccL2 {
    partition: PartitionId,
    predictor: LeasePredictor,
    rollover_threshold: u64,
    tags: TagArray<L2Meta>,
    mshrs: MshrFile<L2Entry>,
    /// Requests stalled behind a same-line transient state (IAV, or an
    /// atomic arriving in IV).
    deferred: FxHashMap<LineAddr, VecDeque<ReqMsg>>,
    deferred_count: usize,
    /// Memory time: max(`exp`, `ver`) over all lines evicted to DRAM.
    mnow: Timestamp,
    /// Write serialization counter (ticks on every write/atomic).
    seq: u64,
    /// Largest timestamp minted by this bank, for rollover detection.
    ts_high: Timestamp,
    /// Chaos hook: truncates granted leases (`Site::LeaseTruncate`) and
    /// bumps write/atomic positions (`Site::TsBump`) to create early
    /// expirations and rollover pressure.
    chaos: Option<Box<dyn PerturbPoint>>,
    stats: L2Stats,
}

impl RccL2 {
    /// Creates the controller for `partition`.
    pub fn new(partition: PartitionId, cfg: &GpuConfig, params: RccParams) -> Self {
        let (tags, mshrs) = bank::arrays(cfg);
        RccL2 {
            partition,
            predictor: LeasePredictor::new(&params),
            rollover_threshold: params.rollover_threshold,
            tags,
            mshrs,
            deferred: FxHashMap::default(),
            deferred_count: 0,
            mnow: Timestamp::ZERO,
            seq: 0,
            ts_high: Timestamp::ZERO,
            chaos: None,
            stats: L2Stats::default(),
        }
    }

    /// This bank's partition id.
    pub fn partition(&self) -> PartitionId {
        self.partition
    }

    /// The partition's memory time `mnow` (Section III-D).
    pub fn mnow(&self) -> Timestamp {
        self.mnow
    }

    /// Version and lease expiration of a resident line (for tests).
    pub fn line_times(&self, line: LineAddr) -> Option<(Timestamp, Timestamp)> {
        self.tags.probe(line).map(|l| (l.state.ver, l.state.exp))
    }

    /// Recovers the paper's state name for `line` (tests / verification).
    pub fn derived_state(&self, line: LineAddr) -> L2State {
        match self.mshrs.get(line) {
            Some(e) if e.is_iav() => L2State::Iav,
            Some(_) => L2State::Iv,
            None if self.tags.probe(line).is_some() => L2State::V,
            None => L2State::I,
        }
    }

    /// Predicted lease of a resident line (for tests).
    pub fn predicted_lease(&self, line: LineAddr) -> Option<u64> {
        self.tags.probe(line).map(|l| l.state.lease)
    }

    /// Installs a line with the given contents and timestamps, as if it
    /// had been filled and written. Intended for setting up scenarios in
    /// tests and examples (e.g. the paper's Fig. 3 walkthrough).
    pub fn install_line(
        &mut self,
        line: LineAddr,
        data: LineData,
        ver: Timestamp,
        exp: Timestamp,
        lease: u64,
    ) {
        self.ts_high = self.ts_high.join(ver).join(exp);
        let evicted = self
            .tags
            .fill(line, L2Meta { ver, exp, lease }, data, false, |_, _| true)
            .expect("install target set has room");
        if let Some(ev) = evicted {
            // Keep the eviction rule of Section III-D even for
            // test-installed lines.
            self.mnow = self.mnow.join(ev.line.state.exp).join(ev.line.state.ver);
        }
    }

    fn mint(&mut self, t: Timestamp) -> Timestamp {
        self.ts_high = self.ts_high.join(t);
        t
    }

    fn next_seq(&mut self) -> u64 {
        self.seq += 1;
        self.seq
    }

    /// Chaos: whether to truncate the lease granted by the current
    /// read-service event to a single logical tick. Shrinking a lease is
    /// always sound — `exp` still never decreases (it only gains a
    /// smaller extension), rule 3 still pushes writes past it.
    fn chaos_truncates(&mut self) -> bool {
        match &mut self.chaos {
            Some(c) => c.fires(Site::LeaseTruncate),
            None => false,
        }
    }

    /// Chaos: bump a write/atomic's logical position forward. Applied to
    /// the request's `now` at service entry, so the bump flows through
    /// every timestamp derived from it (`lastwr`, `PendingAtomic::now`,
    /// `meta.ver`) and a later DRAM fill can never recompute a version
    /// below an already-acked one. Bumps only advance logical time —
    /// exactly what rules 2/3 are built to tolerate — while dragging
    /// `ts_high` toward the rollover threshold faster.
    fn chaos_bump(&mut self, now: Timestamp) -> Timestamp {
        match &mut self.chaos {
            Some(c) => now.plus(c.jitter(Site::TsBump)),
            None => now,
        }
    }

    /// Inserts `line` into the tag array, applying the eviction rule of
    /// Section III-D to any displaced victim: `mnow` absorbs its
    /// timestamps and dirty data is written back.
    fn fill_line(
        &mut self,
        line: LineAddr,
        meta: L2Meta,
        data: Box<LineData>,
        dirty: bool,
        out: &mut L2Outbox,
    ) {
        let evicted = self
            .tags
            .fill(line, meta, data, dirty, |_, _| true)
            .expect("all resident L2 lines are stable and evictable");
        if let Some(ev) = evicted {
            self.mnow = self.mnow.join(ev.line.state.exp).join(ev.line.state.ver);
            bank::write_back(&mut self.stats, out, ev.line);
        }
    }

    fn serve_gets_hit(
        &mut self,
        src: CoreId,
        line: LineAddr,
        now: Timestamp,
        renew_exp: Option<Timestamp>,
        out: &mut L2Outbox,
    ) {
        let truncated = self.chaos_truncates();
        let meta = self.tags.access(line).expect("hit requires resident line");
        let lease = if truncated { 1 } else { meta.state.lease };
        // Fig. 5, GETS in V: D.exp = max(D.exp, D.ver + lease, M.now + lease).
        let new_exp = meta
            .state
            .exp
            .join(meta.state.ver.plus(lease))
            .join(now.plus(lease));
        meta.state.exp = new_exp;
        let ver = meta.state.ver;
        // Renewable iff the L1's expired lease postdates the last write —
        // then its stale copy is actually current (Section III-E).
        if renew_exp.is_some_and(|e| e > ver) {
            meta.state.lease = self.predictor.on_renew(lease);
            self.stats.renews_granted += 1;
            out.to_l1.push(RespMsg {
                dst: src,
                line,
                id: ReqId(0),
                payload: RespPayload::Renew { exp: new_exp },
            });
        } else {
            let data = meta.data.boxed();
            // The service slot orders this read against same-version
            // writes at this bank (footnote 2's physical-arrival order).
            let seq = self.next_seq();
            out.to_l1.push(RespMsg {
                dst: src,
                line,
                id: ReqId(0),
                payload: RespPayload::Data {
                    data,
                    ver,
                    exp: new_exp,
                    seq,
                },
            });
        }
        self.mint(new_exp);
    }

    #[allow(clippy::too_many_arguments)] // mirrors the WRITE message fields
    fn serve_write_hit(
        &mut self,
        src: CoreId,
        line: LineAddr,
        id: ReqId,
        now: Timestamp,
        word: usize,
        value: u64,
        out: &mut L2Outbox,
    ) {
        let meta = self.tags.access(line).expect("hit requires resident line");
        // Fig. 5, WRITE in V — rules 2 and 3 in one step:
        // D.ver = max(M.now, D.ver, D.exp + 1). This *is* the instant
        // acquisition of write permission: no invalidations, no waiting.
        let new_ver = now.join(meta.state.ver).join(meta.state.exp.succ());
        meta.state.ver = new_ver;
        meta.state.lease = self.predictor.on_write(meta.state.lease);
        meta.data.set_word(word, value);
        meta.dirty = true;
        let seq = self.next_seq();
        self.mint(new_ver);
        out.to_l1.push(RespMsg {
            dst: src,
            line,
            id,
            payload: RespPayload::StoreAck { ver: new_ver, seq },
        });
    }

    #[allow(clippy::too_many_arguments)] // mirrors the ATOMIC message fields
    fn serve_atomic_hit(
        &mut self,
        src: CoreId,
        line: LineAddr,
        id: ReqId,
        now: Timestamp,
        word: usize,
        op: AtomicOp,
        out: &mut L2Outbox,
    ) {
        let meta = self.tags.access(line).expect("hit requires resident line");
        let old = meta.data.word(word);
        let new_ver = if op.mutates(old) {
            // Mutating atomics are writes: same version rule as stores.
            let v = now.join(meta.state.ver).join(meta.state.exp.succ());
            meta.state.ver = v;
            meta.state.lease = self.predictor.on_write(meta.state.lease);
            meta.data.set_word(word, op.apply(old));
            meta.dirty = true;
            v
        } else {
            // Non-mutating atomics (failed CAS, atomic reads) serialize at
            // the L2 without bumping the version, so outstanding leases
            // survive. Their position is max(M.now, D.ver); extending
            // D.exp to that point forces any later write past it (rule 3),
            // exactly as a zero-length read lease would.
            let p = now.join(meta.state.ver);
            meta.state.exp = meta.state.exp.join(p);
            p
        };
        let seq = self.next_seq();
        self.mint(new_ver);
        out.to_l1.push(RespMsg {
            dst: src,
            line,
            id,
            payload: RespPayload::AtomicResp {
                value: old,
                ver: new_ver,
                seq,
            },
        });
    }
}

impl L2Bank for RccL2 {
    fn handle_req(&mut self, _cycle: Cycle, req: ReqMsg, out: &mut L2Outbox) -> Result<(), ReqMsg> {
        let line = req.line;

        if self.must_defer(line) {
            self.defer(req);
            return Ok(());
        }

        match req.payload {
            ReqPayload::Gets { now, renew_exp } => {
                self.stats.gets += 1;
                match bank::route(&self.tags, &mut self.mshrs, &mut self.stats, out, line) {
                    // IV: merge the reader (Fig. 5, GETS in IV), or
                    // I → IV: fetch the line (GETS in I).
                    Route::Mshr(entry) => {
                        entry.lastrd = entry.lastrd.join(now);
                        entry.has_read = true;
                        entry.readers.push((req.src, req.id));
                    }
                    Route::Hit => self.serve_gets_hit(req.src, line, now, renew_exp, out),
                    Route::Full => {
                        self.stats.gets -= 1;
                        return Err(req);
                    }
                }
            }
            ReqPayload::Write { now, word, value } => {
                let now = self.chaos_bump(now);
                self.stats.writes += 1;
                match bank::route(&self.tags, &mut self.mshrs, &mut self.stats, out, line) {
                    // IV: merge the write, or I → IV: fetch the line. Ack
                    // at once with ver = max(lastwr, mnow) — the store
                    // does not wait for DRAM (Section III-D). mnow may
                    // equal an evicted lease's expiration, at which
                    // remote copies are still readable — the write must
                    // land strictly past it (rule 3).
                    Route::Mshr(entry) => {
                        entry.lastwr = entry.lastwr.join(now);
                        entry.has_write = true;
                        entry.merged_writes.push((word, value));
                        let ver = entry.lastwr.join(self.mnow.succ());
                        let seq = self.next_seq();
                        self.mint(ver);
                        out.to_l1.push(RespMsg {
                            dst: req.src,
                            line,
                            id: req.id,
                            payload: RespPayload::StoreAck { ver, seq },
                        });
                    }
                    Route::Hit => {
                        self.serve_write_hit(req.src, line, req.id, now, word, value, out);
                    }
                    Route::Full => {
                        self.stats.writes -= 1;
                        return Err(req);
                    }
                }
            }
            ReqPayload::Atomic { now, word, op } => {
                let now = self.chaos_bump(now);
                self.stats.atomics += 1;
                if self.mshrs.contains(line) {
                    // Fig. 5: ATOMIC in IV stalls.
                    self.stats.atomics -= 1;
                    self.defer(req);
                    return Ok(());
                }
                match bank::route(&self.tags, &mut self.mshrs, &mut self.stats, out, line) {
                    // I → IAV (Fig. 5, ATOMIC in I).
                    Route::Mshr(entry) => {
                        entry.lastwr = now;
                        entry.has_write = true;
                        entry.atomic = Some(PendingAtomic {
                            src: req.src,
                            id: req.id,
                            word,
                            op,
                            now,
                        });
                    }
                    Route::Hit => self.serve_atomic_hit(req.src, line, req.id, now, word, op, out),
                    Route::Full => {
                        self.stats.atomics -= 1;
                        return Err(req);
                    }
                }
            }
            ReqPayload::InvAck
            | ReqPayload::FlushAck
            | ReqPayload::GetX { .. }
            | ReqPayload::WbData { .. } => {
                // InvAck/FlushAck are handled by the simulator's
                // coordinators; GetX/WbData belong to MESI-WB.
            }
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

        if let Some(at) = entry.atomic {
            // IAV completion (Fig. 5, DATA in IAV).
            let old = data.word(at.word);
            let ver = at.now.join(self.mnow.succ());
            let mutated = at.op.mutates(old);
            if mutated {
                data.set_word(at.word, at.op.apply(old));
            }
            let seq = self.next_seq();
            self.mint(ver);
            out.to_l1.push(RespMsg {
                dst: at.src,
                line,
                id: at.id,
                payload: RespPayload::AtomicResp {
                    value: old,
                    ver,
                    seq,
                },
            });
            let meta = L2Meta {
                ver,
                exp: ver,
                lease: self.predictor.on_write(self.predictor.initial()),
            };
            self.fill_line(line, meta, data, mutated, out);
            self.redispatch_deferred(cycle, line, out);
            return;
        }

        // IV completion (Fig. 5, DATA in IV):
        //   D.exp = D.ver = mnow;
        //   MSHR.haswrite? D.ver = max(MSHR.lastwr, mnow)
        //   MSHR.hasread?  D.exp = max(D.ver + lease, MSHR.lastrd + lease)
        let mut ver = self.mnow;
        if entry.has_write {
            ver = entry.lastwr.join(self.mnow.succ());
            for (word, value) in &entry.merged_writes {
                data.set_word(*word, *value);
            }
        }
        let lease = if entry.has_write {
            self.predictor.on_write(self.predictor.initial())
        } else {
            self.predictor.initial()
        };
        let lease = if self.chaos_truncates() { 1 } else { lease };
        let mut exp = ver;
        if entry.has_read {
            exp = ver.plus(lease).join(entry.lastrd.plus(lease));
        }
        self.mint(ver);
        self.mint(exp);
        for (dst, id) in entry.readers {
            // Served after every merged write's ack slot.
            let seq = self.next_seq();
            out.to_l1.push(RespMsg {
                dst,
                line,
                id,
                payload: RespPayload::Data {
                    data: data.clone(),
                    ver,
                    exp,
                    seq,
                },
            });
        }
        let meta = L2Meta { ver, exp, lease };
        self.fill_line(line, meta, data, entry.has_write, out);
        self.redispatch_deferred(cycle, line, out);
    }

    fn tick(&mut self, _cycle: Cycle, _out: &mut L2Outbox) {}

    fn set_chaos(&mut self, hook: Box<dyn PerturbPoint>) {
        // Deliberately NOT forwarded to `self.mshrs` (see
        // `L2Bank::set_chaos`).
        self.chaos = Some(hook);
    }

    fn next_event(&self, _now: Cycle) -> Option<Cycle> {
        // Purely reactive: RCC L2s act only on requests and DRAM fills.
        None
    }

    fn needs_rollover(&self) -> bool {
        self.ts_high.raw() >= self.rollover_threshold
    }

    fn rollover_reset(&mut self) {
        assert!(
            self.mshrs.is_empty() && self.deferred.is_empty(),
            "rollover reset requires a quiesced L2"
        );
        for meta in self.tags.iter_mut() {
            meta.state.ver = Timestamp::ZERO;
            meta.state.exp = Timestamp::ZERO;
        }
        self.mnow = Timestamp::ZERO;
        self.ts_high = Timestamp::ZERO;
    }

    fn pending(&self) -> usize {
        self.mshrs.len() + self.deferred_count
    }

    fn logical_time(&self) -> Option<Timestamp> {
        Some(self.mnow)
    }

    fn stats(&self) -> &L2Stats {
        &self.stats
    }
}

impl Deferral for RccL2 {
    /// A line being filled for an atomic (IAV) stalls everything else.
    fn is_blocked(&self, line: LineAddr) -> bool {
        self.mshrs.get(line).is_some_and(L2Entry::is_iav)
    }

    fn deferred(&self) -> &FxHashMap<LineAddr, VecDeque<ReqMsg>> {
        &self.deferred
    }

    fn deferred_mut(&mut self) -> (&mut FxHashMap<LineAddr, VecDeque<ReqMsg>>, &mut usize) {
        (&mut self.deferred, &mut self.deferred_count)
    }
}
