//! Shared test rig: wires N L1s of any protocol to a single L2 bank with
//! an instant network, a DRAM backing store, and explicit cycle stepping
//! (needed by the physically-timed TC protocols). Completions are fed to
//! a [`Scoreboard`] automatically.

use crate::msg::{
    Access, AccessKind, AccessOutcome, AtomicOp, Completion, CompletionKind, RespMsg,
};
use crate::protocol::{L1Cache, L1Outbox, L2Bank, L2Outbox, Protocol};
use crate::scoreboard::Scoreboard;
use rcc_common::addr::{LineAddr, WordAddr};
use rcc_common::config::GpuConfig;
use rcc_common::ids::{CoreId, PartitionId, WarpId};
use rcc_common::time::{Cycle, Timestamp};
use rcc_mem::LineData;
use std::collections::{HashMap, VecDeque};

#[derive(Debug, Clone, Copy)]
enum PendingValue {
    Store(u64),
    Atomic(AtomicOp),
}

/// Protocol-generic single-bank rig.
pub(crate) struct Rig<P: Protocol> {
    pub l1s: Vec<P::L1>,
    staged: Vec<L1Outbox>,
    pub l2: P::L2,
    pub dram: HashMap<LineAddr, LineData>,
    pub pending_fetches: VecDeque<LineAddr>,
    pub auto_dram: bool,
    pub cycle: Cycle,
    pub sb: Scoreboard,
    pending_vals: HashMap<(usize, WarpId, WordAddr), VecDeque<PendingValue>>,
    pub completions: Vec<(usize, Completion)>,
}

impl<P: Protocol> Rig<P> {
    pub fn new(protocol: &P, cfg: &GpuConfig, cores: usize) -> Self {
        Rig {
            l1s: (0..cores)
                .map(|c| protocol.make_l1(CoreId(c), cfg))
                .collect(),
            staged: (0..cores).map(|_| L1Outbox::new()).collect(),
            l2: protocol.make_l2(PartitionId(0), cfg),
            dram: HashMap::new(),
            pending_fetches: VecDeque::new(),
            auto_dram: true,
            cycle: Cycle(0),
            sb: Scoreboard::new(),
            pending_vals: HashMap::new(),
            completions: Vec::new(),
        }
    }

    /// Seeds DRAM and registers the value as a position-zero write.
    pub fn seed_dram(&mut self, line: LineAddr, word_idx: usize, value: u64) {
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

    /// Moves messages until quiescent; does not advance time.
    pub fn pump(&mut self) {
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

    /// Advances time by `n` cycles, ticking all controllers and pumping.
    pub fn step(&mut self, n: u64) {
        for _ in 0..n {
            self.cycle += 1;
            for core in 0..self.l1s.len() {
                let mut out = L1Outbox::new();
                self.l1s[core].tick(self.cycle, &mut out);
                self.staged[core].append(&mut out);
            }
            let mut l2out = L2Outbox::new();
            self.l2.tick(self.cycle, &mut l2out);
            self.route_l2out(l2out);
            self.pump();
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
        for (core, line, action) in out.magic_inv {
            self.l1s[core.index()].magic(self.cycle, line, action);
        }
    }

    pub fn deliver_resp(&mut self, resp: RespMsg) {
        let core = resp.dst.index();
        let mut out = L1Outbox::new();
        self.l1s[core].handle_resp(self.cycle, resp, &mut out);
        self.staged[core].append(&mut out);
    }

    pub fn fill_one(&mut self, line: LineAddr) {
        let data = Box::new(self.dram.get(&line).cloned().unwrap_or_default());
        let mut l2out = L2Outbox::new();
        self.l2.handle_dram(self.cycle, line, data, &mut l2out);
        self.route_l2out(l2out);
    }

    pub fn issue(&mut self, core: usize, access: Access) -> AccessOutcome {
        let key = (core, access.warp, access.addr);
        match access.kind {
            AccessKind::Store { value } => self
                .pending_vals
                .entry(key)
                .or_default()
                .push_back(PendingValue::Store(value)),
            AccessKind::Atomic { op } => self
                .pending_vals
                .entry(key)
                .or_default()
                .push_back(PendingValue::Atomic(op)),
            AccessKind::Load => {}
        }
        let mut out = L1Outbox::new();
        let outcome = self.l1s[core].access(self.cycle, access, &mut out);
        self.staged[core].append(&mut out);
        match &outcome {
            AccessOutcome::Done(c) => {
                // Completes at issue (hits; ideal stores) — route through
                // the same bookkeeping as asynchronous completions.
                self.record_completion(core, *c);
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

    /// Issues and runs until the operation completes (stepping time).
    ///
    /// # Panics
    ///
    /// Panics if the operation does not complete within 100k cycles.
    pub fn op(&mut self, core: usize, warp: usize, addr: WordAddr, kind: AccessKind) -> Completion {
        let before = self.completions.len();
        let access = Access {
            warp: WarpId(warp),
            addr,
            kind,
        };
        match self.issue(core, access) {
            AccessOutcome::Done(c) => {
                // Flush any side-band messages (e.g. an ideal store's
                // fire-and-forget write-through) before returning.
                self.pump();
                c
            }
            AccessOutcome::Pending => {
                self.pump();
                let mut budget = 100_000u64;
                while self.completions.len() == before {
                    assert!(budget > 0, "operation never completed: {access:?}");
                    budget -= 1;
                    self.step(1);
                }
                let (c_core, c) = self.completions[before];
                assert_eq!(c_core, core);
                assert_eq!(c.addr, addr);
                c
            }
            AccessOutcome::Reject(r) => panic!("unexpected reject: {r:?}"),
        }
    }

    pub fn load(&mut self, core: usize, addr: WordAddr) -> Completion {
        self.op(core, 0, addr, AccessKind::Load)
    }

    pub fn store(&mut self, core: usize, addr: WordAddr, value: u64) -> Completion {
        self.op(core, 0, addr, AccessKind::Store { value })
    }

    pub fn atomic(&mut self, core: usize, addr: WordAddr, op: AtomicOp) -> Completion {
        self.op(core, 0, addr, AccessKind::Atomic { op })
    }

    pub fn load_value(&mut self, core: usize, addr: WordAddr) -> u64 {
        match self.load(core, addr).kind {
            CompletionKind::LoadDone { value } => value,
            other => panic!("expected load completion, got {other:?}"),
        }
    }
}
