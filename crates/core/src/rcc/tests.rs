#![allow(clippy::field_reassign_with_default)]
//! RCC protocol tests, including a line-by-line replay of the paper's
//! Fig. 3 walkthrough and property-based SC checking on random traces.

use super::l1::{L1State, RccL1, ViewMode};
use super::l2::RccL2;
use crate::msg::{
    Access, AccessKind, AccessOutcome, AtomicOp, Completion, CompletionKind, RejectReason, ReqId,
    RespMsg, RespPayload,
};
use crate::protocol::{L1Cache, L1Outbox, L2Bank, L2Outbox};
use crate::scoreboard::Scoreboard;
use rcc_common::addr::{LineAddr, WordAddr};
use rcc_common::config::{GpuConfig, RccParams};
use rcc_common::ids::{CoreId, PartitionId, WarpId};
use rcc_common::time::{Cycle, Timestamp};
use rcc_mem::LineData;
use std::collections::{HashMap, VecDeque};

/// What a store/atomic will write, so completions can feed the scoreboard.
#[derive(Debug, Clone, Copy)]
enum PendingValue {
    Store(u64),
    Atomic(AtomicOp),
}

/// A zero-latency rig: N L1s wired to one L2 bank and a backing store.
/// DRAM fills can optionally be held back to exercise transient states.
struct Rig {
    l1s: Vec<RccL1>,
    staged: Vec<L1Outbox>,
    l2: RccL2,
    dram: HashMap<LineAddr, LineData>,
    pending_fetches: VecDeque<LineAddr>,
    auto_dram: bool,
    cycle: Cycle,
    sb: Scoreboard,
    /// FIFO of not-yet-completed store/atomic values per (core, warp,
    /// word); acks for a given key return in issue order.
    pending_vals: HashMap<(usize, WarpId, WordAddr), VecDeque<PendingValue>>,
    completions: Vec<(usize, Completion)>,
}

impl Rig {
    fn with_cfg(cfg: &GpuConfig, cores: usize, mode: ViewMode) -> Self {
        Rig {
            l1s: (0..cores)
                .map(|c| RccL1::new(CoreId(c), cfg, cfg.rcc.clone(), mode))
                .collect(),
            staged: (0..cores).map(|_| L1Outbox::new()).collect(),
            l2: RccL2::new(PartitionId(0), cfg, cfg.rcc.clone()),
            dram: HashMap::new(),
            pending_fetches: VecDeque::new(),
            auto_dram: true,
            cycle: Cycle(0),
            sb: Scoreboard::new(),
            pending_vals: HashMap::new(),
            completions: Vec::new(),
        }
    }

    fn new(cores: usize, params: RccParams, mode: ViewMode) -> Self {
        let mut cfg = GpuConfig::small();
        cfg.rcc = params;
        Rig::with_cfg(&cfg, cores, mode)
    }

    fn sc(cores: usize) -> Self {
        Rig::new(cores, RccParams::default(), ViewMode::Sc)
    }

    /// Seeds DRAM with a value and tells the scoreboard about it (a
    /// synthetic write at position zero).
    fn seed_dram(&mut self, line: LineAddr, word_idx: usize, value: u64) {
        self.dram
            .entry(line)
            .or_insert_with(LineData::zeroed)
            .set_word(word_idx, value);
        self.sb.record(
            CoreId(99),
            &Completion {
                warp: WarpId(0),
                addr: line.word(word_idx),
                kind: CompletionKind::StoreDone,
                ts: Timestamp::ZERO,
                seq: 0,
            },
            Some(value),
        );
    }

    fn record_completion(&mut self, core: usize, c: Completion) {
        let key = (core, c.warp, c.addr);
        let mut pop = || {
            self.pending_vals
                .get_mut(&key)
                .and_then(VecDeque::pop_front)
        };
        let store_value = match c.kind {
            CompletionKind::LoadDone { .. } => None,
            CompletionKind::StoreDone => match pop() {
                Some(PendingValue::Store(v)) => Some(v),
                other => panic!("store completion without pending value: {other:?}"),
            },
            CompletionKind::AtomicDone { old } => match pop() {
                Some(PendingValue::Atomic(op)) => Some(op.apply(old)),
                other => panic!("atomic completion without pending op: {other:?}"),
            },
        };
        self.sb.record(CoreId(core), &c, store_value);
        self.completions.push((core, c));
    }

    /// Moves messages until quiescent (instant network).
    fn pump(&mut self) {
        loop {
            let mut moved = false;
            for core in 0..self.l1s.len() {
                let out = std::mem::take(&mut self.staged[core]);
                for req in out.to_l2 {
                    moved = true;
                    let mut l2out = L2Outbox::new();
                    self.l2
                        .handle_req(self.cycle, req, &mut l2out)
                        .expect("rig never fills L2 MSHRs");
                    self.route_l2out(l2out);
                }
                for c in out.completions {
                    moved = true;
                    self.record_completion(core, c);
                }
            }
            if self.auto_dram {
                while let Some(line) = self.pending_fetches.pop_front() {
                    moved = true;
                    self.fill_one(line);
                }
            }
            if !moved {
                break;
            }
        }
    }

    fn route_l2out(&mut self, out: L2Outbox) {
        for line in out.dram_fetch {
            self.pending_fetches.push_back(line);
        }
        for (line, data) in out.dram_writeback {
            self.dram.insert(line, data);
        }
        for resp in out.to_l1 {
            self.deliver_resp(resp);
        }
        assert!(out.magic_inv.is_empty(), "RCC never uses magic inv");
    }

    fn deliver_resp(&mut self, resp: RespMsg) {
        let core = resp.dst.index();
        let mut out = L1Outbox::new();
        self.l1s[core].handle_resp(self.cycle, resp, &mut out);
        self.staged[core].append(&mut out);
    }

    /// Completes one held-back DRAM fill.
    fn fill_one(&mut self, line: LineAddr) {
        let data = Box::new(self.dram.get(&line).cloned().unwrap_or_default());
        let mut l2out = L2Outbox::new();
        self.l2.handle_dram(self.cycle, line, data, &mut l2out);
        self.route_l2out(l2out);
    }

    fn issue(&mut self, core: usize, access: Access) -> AccessOutcome {
        let key = (core, access.warp, access.addr);
        match access.kind {
            AccessKind::Store { value } => {
                self.pending_vals
                    .entry(key)
                    .or_default()
                    .push_back(PendingValue::Store(value));
            }
            AccessKind::Atomic { op } => {
                self.pending_vals
                    .entry(key)
                    .or_default()
                    .push_back(PendingValue::Atomic(op));
            }
            AccessKind::Load => {}
        }
        let mut out = L1Outbox::new();
        let outcome = self.l1s[core].access(self.cycle, access, &mut out);
        self.staged[core].append(&mut out);
        match &outcome {
            AccessOutcome::Done(c) => {
                debug_assert!(matches!(access.kind, AccessKind::Load));
                self.sb.record(CoreId(core), c, None);
                self.completions.push((core, *c));
            }
            AccessOutcome::Reject(_) => {
                if !matches!(access.kind, AccessKind::Load) {
                    self.pending_vals.get_mut(&key).and_then(VecDeque::pop_back);
                }
            }
            AccessOutcome::Pending => {}
        }
        outcome
    }

    /// Issues and fully completes one operation, returning its completion.
    fn op(&mut self, core: usize, warp: usize, addr: WordAddr, kind: AccessKind) -> Completion {
        let before = self.completions.len();
        let access = Access {
            warp: WarpId(warp),
            addr,
            kind,
        };
        match self.issue(core, access) {
            AccessOutcome::Done(c) => c,
            AccessOutcome::Pending => {
                self.pump();
                let (c_core, c) = *self
                    .completions
                    .get(before)
                    .expect("operation did not complete");
                assert_eq!(c_core, core);
                assert_eq!(c.addr, addr);
                c
            }
            AccessOutcome::Reject(r) => panic!("unexpected reject: {r:?}"),
        }
    }

    fn load(&mut self, core: usize, addr: WordAddr) -> Completion {
        self.op(core, 0, addr, AccessKind::Load)
    }

    fn store(&mut self, core: usize, addr: WordAddr, value: u64) -> Completion {
        self.op(core, 0, addr, AccessKind::Store { value })
    }

    fn atomic(&mut self, core: usize, addr: WordAddr, op: AtomicOp) -> Completion {
        self.op(core, 0, addr, AccessKind::Atomic { op })
    }

    fn load_value(&mut self, core: usize, addr: WordAddr) -> u64 {
        match self.load(core, addr).kind {
            CompletionKind::LoadDone { value } => value,
            other => panic!("expected load completion, got {other:?}"),
        }
    }
}

fn word(line: u64, idx: usize) -> WordAddr {
    LineAddr(line).word(idx)
}

fn line_data(word_idx: usize, value: u64) -> LineData {
    let mut d = LineData::zeroed();
    d.set_word(word_idx, value);
    d
}

// ---------------------------------------------------------------------
// The paper's Fig. 3 walkthrough, asserted row by row.
// ---------------------------------------------------------------------

#[test]
fn figure3_walkthrough() {
    let mut params = RccParams::default();
    params.fixed_lease = Some(10); // the example uses a fixed lease of 10
    let mut rig = Rig::new(2, params, ViewMode::Sc);

    let a = LineAddr(0);
    let b = LineAddr(1);
    let wa = a.word(0);
    let wb = b.word(0);

    // Initial conditions (first row of the table): C0.now = 20 with A and
    // B expired (exp = 10); C1.now = 0 with valid copies of both; in L2,
    // A.ver = 10 and B was since written by a third core (ver = 30).
    rig.l1s[0].advance_now(Timestamp(20));
    rig.l1s[0].install_line(a, line_data(0, 1), Timestamp(10));
    rig.l1s[0].install_line(b, line_data(0, 3), Timestamp(10));
    rig.l1s[1].install_line(a, line_data(0, 1), Timestamp(10));
    rig.l1s[1].install_line(b, line_data(0, 3), Timestamp(10));
    rig.l2
        .install_line(a, line_data(0, 1), Timestamp(10), Timestamp(10), 10);
    rig.l2
        .install_line(b, line_data(0, 2), Timestamp(30), Timestamp(10), 10);
    // Tell the scoreboard about the pre-installed writes.
    rig.sb.record(
        CoreId(9),
        &Completion {
            warp: WarpId(0),
            addr: wa,
            kind: CompletionKind::StoreDone,
            ts: Timestamp(10),
            seq: 0,
        },
        Some(1),
    );
    rig.sb.record(
        CoreId(9),
        &Completion {
            warp: WarpId(0),
            addr: wb,
            kind: CompletionKind::StoreDone,
            ts: Timestamp(30),
            seq: 0,
        },
        Some(2),
    );

    assert_eq!(rig.l1s[0].derived_state(a), L1State::VExpired);
    assert_eq!(rig.l1s[1].derived_state(a), L1State::V);

    // Row 1 — C0: ST A. Rule 2 advances A.ver to C0.now (= 20); C1 can
    // still read its old copy of A.
    let c = rig.store(0, wa, 100);
    assert_eq!(c.ts, Timestamp(20));
    assert_eq!(rig.l1s[0].now(), Timestamp(20));
    assert_eq!(
        rig.l2.line_times(a),
        Some((Timestamp(20), Timestamp(10))),
        "A.ver = 20, A.exp unchanged"
    );
    assert_eq!(
        rig.l1s[1].derived_state(a),
        L1State::V,
        "C1's lease survives"
    );

    // Row 2 — C0: LD B. The copy expired, and B changed in L2 (ver = 30 >
    // old lease 10), so a full DATA with a new lease to 40 arrives and C0
    // advances past B.ver (rule 1).
    assert_eq!(rig.load_value(0, wb), 2, "observes the third core's write");
    assert_eq!(rig.l1s[0].now(), Timestamp(30));
    assert_eq!(rig.l1s[0].lease_exp(b), Some(Timestamp(40)));
    assert_eq!(rig.l2.line_times(b), Some((Timestamp(30), Timestamp(40))));

    // Row 3 — C1: ST B. Rule 3 pushes the new version past the last
    // outstanding lease for B (40), so B.ver = C1.now = 41.
    let c = rig.store(1, wb, 200);
    assert_eq!(c.ts, Timestamp(41));
    assert_eq!(rig.l1s[1].now(), Timestamp(41));
    assert_eq!(rig.l2.line_times(b), Some((Timestamp(41), Timestamp(40))));

    // Row 4 — C1: LD A. The lease (10) expired relative to now = 41, and
    // A changed (ver = 20 > 10): C1 is forced to pick up C0's value.
    assert_eq!(rig.load_value(1, wa), 100, "SC ordering between the cores");
    assert_eq!(rig.l1s[1].now(), Timestamp(41));
    assert_eq!(rig.l1s[1].lease_exp(a), Some(Timestamp(51)));
    assert_eq!(rig.l2.line_times(a), Some((Timestamp(20), Timestamp(51))));

    // Row 5 — C0: ST B. Advances past the previous write of B (rule 2);
    // the two stores share version 41 (unobserved stores may share a
    // logical version — footnote 2).
    let c = rig.store(0, wb, 300);
    assert_eq!(c.ts, Timestamp(41), "shares C1's version");
    assert_eq!(rig.l1s[0].now(), Timestamp(41));
    assert_eq!(rig.l2.line_times(b), Some((Timestamp(41), Timestamp(40))));

    // Row 6 — C0: ST A. Rule 3: past A's outstanding lease (51) → 52.
    let c = rig.store(0, wa, 400);
    assert_eq!(c.ts, Timestamp(52));
    assert_eq!(rig.l1s[0].now(), Timestamp(52));
    assert_eq!(rig.l2.line_times(a), Some((Timestamp(52), Timestamp(51))));

    // Row 7 — C1: LD A. C1.now = 41 ≤ its lease (51): the load hits and
    // is logically *before* C0's second store — it must still see 100.
    let c = rig.load(1, wa);
    assert_eq!(c.kind, CompletionKind::LoadDone { value: 100 });
    assert_eq!(c.ts, Timestamp(41));
    assert_eq!(rig.l1s[1].now(), Timestamp(41));

    // The overall behaviour is explained by the sequential interleaving
    // given in the paper — the scoreboard agrees.
    rig.sb.assert_sc();
}

// ---------------------------------------------------------------------
// FSM and rule unit tests.
// ---------------------------------------------------------------------

#[test]
fn cold_miss_fills_then_hits() {
    let mut rig = Rig::sc(1);
    let w = word(4, 2);
    rig.seed_dram(LineAddr(4), 2, 55);
    assert_eq!(rig.load_value(0, w), 55);
    assert_eq!(rig.l1s[0].derived_state(LineAddr(4)), L1State::V);
    // Second load is a pure L1 hit.
    let hits_before = rig.l1s[0].stats().load_hits;
    assert_eq!(rig.load_value(0, w), 55);
    assert_eq!(rig.l1s[0].stats().load_hits, hits_before + 1);
    rig.sb.assert_sc();
}

#[test]
fn store_acks_before_dram_fill() {
    // Section III-D: on an L2 miss the store is acknowledged from the
    // MSHR without waiting for the DRAM response.
    let mut rig = Rig::sc(1);
    rig.auto_dram = false;
    let w = word(7, 0);
    let before = rig.completions.len();
    let outcome = rig.issue(
        0,
        Access {
            warp: WarpId(0),
            addr: w,
            kind: AccessKind::Store { value: 9 },
        },
    );
    assert_eq!(outcome, AccessOutcome::Pending);
    rig.pump();
    assert_eq!(
        rig.completions.len(),
        before + 1,
        "store completed while the fetch is still outstanding"
    );
    assert_eq!(rig.pending_fetches.len(), 1, "fill still pending");
    assert_eq!(rig.l2.pending(), 1);
    // Release the fill; the line must contain the merged store.
    let line = rig.pending_fetches.pop_front().unwrap();
    rig.fill_one(line);
    rig.pump();
    rig.auto_dram = true;
    assert_eq!(rig.load_value(0, w), 9);
    rig.sb.assert_sc();
}

#[test]
fn write_advances_version_past_outstanding_lease() {
    // Rule 3: the new version must exceed the last outstanding lease.
    let mut rig = Rig::sc(2);
    let w = word(3, 1);
    rig.load(0, w); // grants core 0 a lease
    let lease_exp = rig.l1s[0].lease_exp(LineAddr(3)).unwrap();
    let c = rig.store(1, w, 5);
    assert!(
        c.ts > lease_exp,
        "write version {} must exceed lease {}",
        c.ts,
        lease_exp
    );
    rig.sb.assert_sc();
}

#[test]
fn read_advances_now_to_version() {
    // Rule 1: a core never observes a value "from the future".
    let mut rig = Rig::sc(2);
    let w = word(3, 1);
    let c = rig.store(0, w, 5);
    assert_eq!(rig.l1s[1].now(), Timestamp(0));
    rig.load(1, w);
    assert!(rig.l1s[1].now() >= c.ts);
    rig.sb.assert_sc();
}

#[test]
fn expired_load_renews_without_data_transfer() {
    let mut rig = Rig::sc(1);
    let w = word(5, 0);
    rig.seed_dram(LineAddr(5), 0, 42);
    rig.load(0, w);
    let exp = rig.l1s[0].lease_exp(LineAddr(5)).unwrap();
    // Force logical expiry without any write to the line.
    rig.l1s[0].advance_now(exp.succ());
    assert_eq!(rig.l1s[0].derived_state(LineAddr(5)), L1State::VExpired);
    let lease_before = rig.l2.predicted_lease(LineAddr(5)).unwrap();
    assert_eq!(rig.load_value(0, w), 42);
    assert_eq!(rig.l1s[0].stats().expired_loads, 1);
    assert_eq!(rig.l1s[0].stats().renewed_loads, 1, "served via RENEW");
    assert_eq!(rig.l2.stats().renews_granted, 1);
    // Successful renewal doubles the predicted lease (capped at max).
    assert_eq!(
        rig.l2.predicted_lease(LineAddr(5)).unwrap(),
        (lease_before * 2).min(2048)
    );
    rig.sb.assert_sc();
}

#[test]
fn renew_disabled_sends_full_data() {
    let mut params = RccParams::default();
    params.renew_enabled = false;
    let mut rig = Rig::new(1, params, ViewMode::Sc);
    let w = word(5, 0);
    rig.load(0, w);
    let exp = rig.l1s[0].lease_exp(LineAddr(5)).unwrap();
    rig.l1s[0].advance_now(exp.succ());
    rig.load(0, w);
    assert_eq!(rig.l2.stats().renews_granted, 0);
    assert_eq!(rig.l1s[0].stats().renewed_loads, 0);
    rig.sb.assert_sc();
}

#[test]
fn predictor_drops_lease_on_write() {
    let mut rig = Rig::sc(2);
    let w = word(6, 0);
    rig.load(0, w);
    assert_eq!(rig.l2.predicted_lease(LineAddr(6)), Some(2048));
    rig.store(1, w, 1);
    assert_eq!(
        rig.l2.predicted_lease(LineAddr(6)),
        Some(8),
        "written blocks predict the minimum lease"
    );
}

#[test]
fn expired_data_after_write_is_not_renewed() {
    let mut rig = Rig::sc(2);
    let w = word(5, 0);
    rig.load(0, w);
    let exp = rig.l1s[0].lease_exp(LineAddr(5)).unwrap();
    rig.store(1, w, 7); // version now exceeds the old lease
    rig.l1s[0].advance_now(exp.succ());
    assert_eq!(rig.load_value(0, w), 7, "full data, new value");
    assert_eq!(rig.l2.stats().renews_granted, 0);
    assert_eq!(rig.l1s[0].stats().renewed_loads, 0);
    rig.sb.assert_sc();
}

#[test]
fn vi_block_remains_readable_while_store_outstanding() {
    let mut rig = Rig::sc(1);
    let w = word(2, 0);
    rig.seed_dram(LineAddr(2), 0, 11);
    rig.load(0, w);
    // Issue a store but do not pump: the ack is in flight.
    let outcome = rig.issue(
        0,
        Access {
            warp: WarpId(1),
            addr: w,
            kind: AccessKind::Store { value: 12 },
        },
    );
    assert_eq!(outcome, AccessOutcome::Pending);
    assert_eq!(rig.l1s[0].derived_state(LineAddr(2)), L1State::Vi);
    // Another warp can still read the (old) value — key for hiding
    // hundreds of cycles of L2 round trip (Section III-C).
    let c = rig.issue(
        0,
        Access {
            warp: WarpId(2),
            addr: w,
            kind: AccessKind::Load,
        },
    );
    match c {
        AccessOutcome::Done(c) => assert_eq!(c.kind, CompletionKind::LoadDone { value: 11 }),
        other => panic!("expected VI hit, got {other:?}"),
    }
    // After the ack the block transitions to I (write-no-allocate).
    rig.pump();
    assert_eq!(rig.l1s[0].derived_state(LineAddr(2)), L1State::I);
    rig.sb.assert_sc();
}

#[test]
fn store_to_expired_block_is_ii_not_vi() {
    let mut rig = Rig::sc(1);
    let w = word(2, 0);
    rig.load(0, w);
    let exp = rig.l1s[0].lease_exp(LineAddr(2)).unwrap();
    rig.l1s[0].advance_now(exp.succ());
    let outcome = rig.issue(
        0,
        Access {
            warp: WarpId(0),
            addr: w,
            kind: AccessKind::Store { value: 1 },
        },
    );
    assert_eq!(outcome, AccessOutcome::Pending);
    // Expired blocks are treated exactly like I for memory operations.
    assert_eq!(rig.l1s[0].derived_state(LineAddr(2)), L1State::Ii);
    rig.pump();
    rig.sb.assert_sc();
}

#[test]
fn atomic_read_modify_write_round_trip() {
    let mut rig = Rig::sc(2);
    let w = word(9, 3);
    let c = rig.atomic(0, w, AtomicOp::Add(5));
    assert_eq!(c.kind, CompletionKind::AtomicDone { old: 0 });
    let c = rig.atomic(1, w, AtomicOp::Add(3));
    assert_eq!(c.kind, CompletionKind::AtomicDone { old: 5 });
    assert_eq!(rig.load_value(0, w), 8);
    rig.sb.assert_sc();
}

#[test]
fn cas_success_and_failure() {
    let mut rig = Rig::sc(1);
    let w = word(9, 0);
    let c = rig.atomic(0, w, AtomicOp::Cas { expect: 0, new: 7 });
    assert_eq!(c.kind, CompletionKind::AtomicDone { old: 0 });
    let c = rig.atomic(0, w, AtomicOp::Cas { expect: 0, new: 9 });
    assert_eq!(c.kind, CompletionKind::AtomicDone { old: 7 }, "CAS fails");
    assert_eq!(rig.load_value(0, w), 7);
    rig.sb.assert_sc();
}

#[test]
fn non_mutating_atomic_preserves_leases() {
    let mut rig = Rig::sc(2);
    let w = word(9, 0);
    rig.load(0, w);
    let (ver, exp) = rig.l2.line_times(LineAddr(9)).unwrap();
    rig.atomic(1, w, AtomicOp::Read);
    assert_eq!(
        rig.l2.line_times(LineAddr(9)),
        Some((ver, exp)),
        "an atomic read must not invalidate outstanding leases"
    );
    rig.sb.assert_sc();
}

#[test]
fn atomic_miss_goes_iav_and_defers_other_requests() {
    let mut rig = Rig::sc(2);
    rig.auto_dram = false;
    let w = word(8, 0);
    // Core 0 atomic → IAV with a pending fetch.
    let o = rig.issue(
        0,
        Access {
            warp: WarpId(0),
            addr: w,
            kind: AccessKind::Atomic {
                op: AtomicOp::Add(4),
            },
        },
    );
    assert_eq!(o, AccessOutcome::Pending);
    rig.pump();
    // Core 1 GETS → deferred behind the IAV.
    let o = rig.issue(
        1,
        Access {
            warp: WarpId(0),
            addr: w,
            kind: AccessKind::Load,
        },
    );
    assert_eq!(o, AccessOutcome::Pending);
    rig.pump();
    assert_eq!(rig.completions.len(), 0, "everything stalls behind IAV");
    assert!(rig.l2.pending() >= 2);
    // Fill: the atomic completes, then the deferred load observes it.
    let line = rig.pending_fetches.pop_front().unwrap();
    rig.fill_one(line);
    rig.pump();
    assert_eq!(rig.completions.len(), 2);
    let (_, atomic_c) = rig.completions[0];
    assert_eq!(atomic_c.kind, CompletionKind::AtomicDone { old: 0 });
    let (_, load_c) = rig.completions[1];
    assert_eq!(
        load_c.kind,
        CompletionKind::LoadDone { value: 4 },
        "the deferred load is ordered after the atomic"
    );
    rig.sb.assert_sc();
}

#[test]
fn concurrent_misses_merge_in_l2_mshr() {
    let mut rig = Rig::sc(3);
    rig.auto_dram = false;
    let w = word(10, 0);
    for core in 0..2 {
        rig.issue(
            core,
            Access {
                warp: WarpId(0),
                addr: w,
                kind: AccessKind::Load,
            },
        );
    }
    // A write merges into the same IV entry and acks immediately.
    rig.issue(
        2,
        Access {
            warp: WarpId(0),
            addr: w,
            kind: AccessKind::Store { value: 77 },
        },
    );
    rig.pump();
    assert_eq!(
        rig.pending_fetches.len(),
        1,
        "a single DRAM fetch serves all"
    );
    assert_eq!(
        rig.completions.len(),
        1,
        "only the store completed before the fill"
    );
    let line = rig.pending_fetches.pop_front().unwrap();
    rig.fill_one(line);
    rig.pump();
    assert_eq!(rig.completions.len(), 3);
    // Both readers observe the merged write (their now advances to its
    // version, ordering them after it).
    for (_, c) in &rig.completions {
        if let CompletionKind::LoadDone { value } = c.kind {
            assert_eq!(value, 77);
        }
    }
    rig.sb.assert_sc();
}

#[test]
fn l1_mshr_full_rejects() {
    let mut cfg = GpuConfig::small();
    cfg.l1.mshrs = 1;
    let mut rig = Rig::with_cfg(&cfg, 1, ViewMode::Sc);
    rig.auto_dram = false;
    let o = rig.issue(
        0,
        Access {
            warp: WarpId(0),
            addr: word(1, 0),
            kind: AccessKind::Load,
        },
    );
    assert_eq!(o, AccessOutcome::Pending);
    let o = rig.issue(
        0,
        Access {
            warp: WarpId(1),
            addr: word(2, 0),
            kind: AccessKind::Load,
        },
    );
    assert_eq!(o, AccessOutcome::Reject(RejectReason::MshrFull));
    assert_eq!(rig.l1s[0].stats().rejects, 1);
}

#[test]
fn l1_merge_list_full_rejects() {
    let mut cfg = GpuConfig::small();
    cfg.l1.mshr_merge = 2;
    let mut rig = Rig::with_cfg(&cfg, 1, ViewMode::Sc);
    rig.auto_dram = false;
    let w = word(1, 0);
    for warp in 0..2 {
        let o = rig.issue(
            0,
            Access {
                warp: WarpId(warp),
                addr: w,
                kind: AccessKind::Load,
            },
        );
        assert_eq!(o, AccessOutcome::Pending);
    }
    let o = rig.issue(
        0,
        Access {
            warp: WarpId(2),
            addr: w,
            kind: AccessKind::Load,
        },
    );
    assert_eq!(o, AccessOutcome::Reject(RejectReason::MergeFull));
}

#[test]
fn l2_eviction_preserves_logical_order_via_mnow() {
    // Section III-D: a line reloaded after eviction gets ver = exp = mnow,
    // forcing readers/writers past any timestamps the evicted line held.
    let mut cfg = GpuConfig::small();
    cfg.rcc.fixed_lease = Some(1000);
    let mut rig = Rig::with_cfg(&cfg, 1, ViewMode::Sc);
    let sets = cfg.l2.partition.num_sets() as u64 * cfg.l2.num_partitions as u64;
    let ways = cfg.l2.partition.ways as u64;
    // Touch ways+1 lines of L2 set 0 to force an eviction of line 0.
    let first = word(0, 0);
    rig.load(0, first);
    let (_, first_exp) = rig.l2.line_times(LineAddr(0)).unwrap();
    for i in 1..=ways {
        rig.load(0, word(i * sets, 0));
    }
    assert!(rig.l2.line_times(LineAddr(0)).is_none(), "line 0 evicted");
    let mnow_before = rig.l2.mnow();
    assert!(mnow_before >= first_exp, "mnow absorbed the evicted lease");
    // Re-fetch: the refilled line's version must not be earlier than mnow.
    // (Force the L1 copy out of the picture by expiring it.)
    rig.l1s[0].advance_now(mnow_before.succ());
    let c = rig.load(0, first);
    assert!(c.ts >= mnow_before);
    let (ver, _) = rig.l2.line_times(LineAddr(0)).unwrap();
    assert!(ver >= mnow_before, "refetched ver starts at mnow");
    rig.sb.assert_sc();
}

#[test]
fn l2_writeback_of_dirty_lines() {
    let cfg = GpuConfig::small();
    let mut rig = Rig::with_cfg(&cfg, 1, ViewMode::Sc);
    let sets = cfg.l2.partition.num_sets() as u64 * cfg.l2.num_partitions as u64;
    let ways = cfg.l2.partition.ways as u64;
    let w = word(0, 5);
    rig.store(0, w, 123);
    for i in 1..=ways {
        rig.load(0, word(i * sets, 0));
    }
    assert_eq!(rig.l2.stats().writebacks, 1);
    assert_eq!(rig.dram.get(&LineAddr(0)).unwrap().word(5), 123);
    // Reload sees the written-back value.
    rig.l1s[0].advance_now(rig.l2.mnow().succ());
    assert_eq!(rig.load_value(0, w), 123);
    rig.sb.assert_sc();
}

#[test]
fn rollover_flush_resets_clocks_and_preserves_data() {
    let mut params = RccParams::default();
    params.rollover_threshold = 64;
    params.fixed_lease = Some(50);
    let mut rig = Rig::new(2, params, ViewMode::Sc);
    let w = word(1, 0);
    rig.store(0, w, 5);
    rig.load(1, w);
    // Push timestamps over the threshold.
    rig.l1s[0].advance_now(Timestamp(70));
    rig.store(0, w, 6);
    assert!(rig.l2.needs_rollover());
    // Quiesced (all ops completed) → reset L2 and flush L1s.
    assert_eq!(rig.l2.pending(), 0);
    rig.l2.rollover_reset();
    for core in 0..2 {
        rig.deliver_resp(RespMsg {
            dst: CoreId(core),
            line: LineAddr(0),
            id: ReqId(0),
            payload: RespPayload::Flush,
        });
    }
    rig.pump();
    assert!(!rig.l2.needs_rollover());
    for l1 in &rig.l1s {
        assert_eq!(l1.now(), Timestamp(0));
        assert_eq!(l1.pending(), 0);
    }
    // Data survives; the scoreboard is epoch-split across rollovers (the
    // simulator offsets timestamps per epoch), so start a fresh one here.
    rig.sb = Scoreboard::new();
    assert_eq!(rig.load_value(0, w), 6);
    assert_eq!(rig.load_value(1, w), 6);
}

#[test]
fn wo_mode_store_does_not_expire_read_view() {
    // Section III-F: with split views, a store ack advances only the
    // write view, so unrelated cached lines do not expire.
    let mut cfg = GpuConfig::small();
    cfg.rcc.fixed_lease = Some(10);
    let mut wo = Rig::with_cfg(&cfg, 2, ViewMode::Wo);
    let data_w = word(1, 0);
    let other = word(2, 0);
    wo.load(0, other); // lease on an unrelated line
                       // Another core leases data_w, forcing core 0's store version high.
    wo.load(1, data_w);
    wo.store(0, data_w, 9);
    assert!(wo.l1s[0].write_view() > wo.l1s[0].now());
    assert_eq!(
        wo.l1s[0].derived_state(LineAddr(2)),
        L1State::V,
        "read view unchanged → unrelated lease still valid"
    );
    // The same sequence under SC expires the unrelated line.
    let mut sc = Rig::with_cfg(&cfg, 2, ViewMode::Sc);
    sc.load(0, other);
    sc.load(1, data_w);
    sc.store(0, data_w, 9);
    assert_eq!(sc.l1s[0].derived_state(LineAddr(2)), L1State::VExpired);
    // A fence joins the views and the lease expires under WO too.
    wo.l1s[0].fence();
    assert_eq!(wo.l1s[0].derived_state(LineAddr(2)), L1State::VExpired);
}

#[test]
fn livelock_bump_advances_time() {
    let mut params = RccParams::default();
    params.livelock_bump_interval = 10;
    let mut rig = Rig::new(1, params, ViewMode::Sc);
    let mut out = L1Outbox::new();
    for c in 1..=25u64 {
        rig.l1s[0].tick(Cycle(c), &mut out);
    }
    assert_eq!(rig.l1s[0].now(), Timestamp(2), "bumped at cycles 10 and 20");
}

// ---------------------------------------------------------------------
// Randomized SC property.
// ---------------------------------------------------------------------

proptest::proptest! {
    #![proptest_config(proptest::prelude::ProptestConfig::with_cases(64))]

    /// Any interleaving of loads/stores/atomics from multiple cores over a
    /// small set of words, including delayed DRAM fills, yields an
    /// SC-explainable execution. Each warp obeys the paper's naïve-SC
    /// issuance rule: at most one outstanding global memory operation.
    #[test]
    fn random_traces_are_sequentially_consistent(
        seed in 0u64..1000,
        ops in 40usize..160,
        cores in 2usize..4,
    ) {
        let mut rng = rcc_common::Pcg32::seeded(seed);
        let mut rig = Rig::sc(cores);
        rig.auto_dram = false;
        let words: Vec<WordAddr> =
            (0..6).map(|i| word(i % 3, (i as usize) * 2)).collect();
        let mut token = 1u64;
        // One outstanding op per (core, warp): a warp is busy from issue
        // until its completion shows up.
        let nwarps = 4usize;
        let mut busy = vec![false; cores * nwarps];
        let mut seen = 0usize;
        let note_completions = |rig: &Rig, busy: &mut Vec<bool>, seen: &mut usize| {
            for (core, c) in &rig.completions[*seen..] {
                busy[core * nwarps + c.warp.index()] = false;
            }
            *seen = rig.completions.len();
        };
        for _ in 0..ops {
            let core = rng.below(cores as u64) as usize;
            let warp = rng.below(nwarps as u64) as usize;
            if busy[core * nwarps + warp] {
                // Drain until this warp is free again.
                while busy[core * nwarps + warp] {
                    if let Some(line) = rig.pending_fetches.pop_front() {
                        rig.fill_one(line);
                    }
                    rig.pump();
                    note_completions(&rig, &mut busy, &mut seen);
                }
            }
            let w = *rng.pick(&words);
            let kind = match rng.below(10) {
                0..=4 => AccessKind::Load,
                5..=7 => {
                    token += 1;
                    AccessKind::Store { value: token }
                }
                8 => AccessKind::Atomic { op: AtomicOp::Add(1) },
                _ => AccessKind::Atomic {
                    op: AtomicOp::Cas { expect: 0, new: token + 1000 },
                },
            };
            let outcome = rig.issue(core, Access { warp: WarpId(warp), addr: w, kind });
            if matches!(outcome, AccessOutcome::Pending) {
                busy[core * nwarps + warp] = true;
            }
            note_completions(&rig, &mut busy, &mut seen);
            // Occasionally release a DRAM fill or pump the network.
            if rng.chance(0.4) {
                if let Some(line) = rig.pending_fetches.pop_front() {
                    rig.fill_one(line);
                }
            }
            if rng.chance(0.5) {
                rig.pump();
            }
            note_completions(&rig, &mut busy, &mut seen);
        }
        rig.auto_dram = true;
        rig.pump();
        rig.sb.assert_sc();
    }
}
