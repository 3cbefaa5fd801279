//! Core model tests driven by a scripted "memory system" closure.

use super::*;
use crate::op::{MemOp, WarpProgram};
use rcc_common::addr::{LineAddr, WordAddr};
use rcc_common::ids::WorkgroupId;
use rcc_common::time::Timestamp;
use std::cell::RefCell;
use std::collections::VecDeque;
use std::rc::Rc;

fn w(a: u64) -> WordAddr {
    LineAddr(a).word(0)
}

/// A scripted memory that accepts everything and answers after `delay`
/// cycles; values behave like a real word memory for atomics.
struct FakeMem {
    delay: u64,
    mem: std::collections::HashMap<WordAddr, u64>,
    pending: VecDeque<(u64, Completion)>,
    served: u64,
}

impl FakeMem {
    fn new(delay: u64) -> Rc<RefCell<FakeMem>> {
        Rc::new(RefCell::new(FakeMem {
            delay,
            mem: Default::default(),
            pending: VecDeque::new(),
            served: 0,
        }))
    }

    /// Performs `access` on the word memory and returns its completion,
    /// stamped `ts`.
    fn serve(&mut self, access: Access, ts: u64) -> Completion {
        self.served += 1;
        let old = *self.mem.get(&access.addr).unwrap_or(&0);
        let kind = match access.kind {
            AccessKind::Load => CompletionKind::LoadDone { value: old },
            AccessKind::Store { value } => {
                self.mem.insert(access.addr, value);
                CompletionKind::StoreDone
            }
            AccessKind::Atomic { op } => {
                self.mem.insert(access.addr, op.apply(old));
                CompletionKind::AtomicDone { old }
            }
        };
        Completion {
            warp: access.warp,
            addr: access.addr,
            kind,
            ts: Timestamp(ts),
            seq: self.served,
        }
    }

    /// Queues `completion` for delivery at cycle `at`, behind every
    /// completion already due by then.
    fn post(&mut self, at: u64, completion: Completion) {
        let pos = self.pending.partition_point(|(due, _)| *due <= at);
        self.pending.insert(pos, (at, completion));
    }

    /// Removes and returns the next completion due by cycle `c`.
    fn pop_due(&mut self, c: u64) -> Option<Completion> {
        if self.pending.front().is_some_and(|(at, _)| *at <= c) {
            self.pending.pop_front().map(|(_, completion)| completion)
        } else {
            None
        }
    }
}

fn drive(core: &mut Core, mem: &Rc<RefCell<FakeMem>>, max_cycles: u64) -> u64 {
    drive_logged(core, mem, max_cycles).0
}

/// [`drive`], also returning every tick's `CoreOutput::issued_op` as
/// `(cycle, warp, pc)`.
fn drive_logged(
    core: &mut Core,
    mem: &Rc<RefCell<FakeMem>>,
    max_cycles: u64,
) -> (u64, Vec<(u64, usize, usize)>) {
    let mut log = Vec::new();
    for c in 0..max_cycles {
        let cycle = Cycle(c);
        // Deliver due completions.
        while let Some(completion) = mem.borrow_mut().pop_due(c) {
            core.complete(cycle, &completion);
        }
        if core.done() {
            return (c, log);
        }
        let out = core.tick(cycle, |access| {
            let mut m = mem.borrow_mut();
            let completion = m.serve(access, c);
            let at = c + m.delay;
            m.post(at, completion);
            AccessOutcome::Pending
        });
        if let Some((warp, pc)) = out.issued_op {
            log.push((c, warp, pc));
        }
    }
    panic!("core did not finish in {max_cycles} cycles");
}

fn sc_core(programs: Vec<WarpProgram>) -> Core {
    Core::new(CoreId(0), CoreParams::sequential(8, 4), programs)
}

/// What `core` folds into the state digest.
fn core_digest(core: &Core) -> u64 {
    let mut d = rcc_common::snap::StateDigest::new();
    core.digest_state(&mut d);
    d.finish()
}

#[test]
fn the_state_digest_attests_ops_past_the_pc_but_not_the_allocation() {
    // One warp whose last op, a store of `value`, is still ahead of the
    // pc at cycle 5: the second load waits there behind the first.
    let at_cycle_5 = |value: u64| {
        let ops = vec![
            MemOp::Load(w(0)),
            MemOp::Compute(3),
            MemOp::Load(w(2)),
            MemOp::Store(w(1), value),
        ];
        let mut core = sc_core(vec![WarpProgram::new(WorkgroupId(0), ops)]);
        let mem = FakeMem::new(10);
        for c in 0..5 {
            core.tick(Cycle(c), |access| {
                let completion = mem.borrow_mut().serve(access, c);
                mem.borrow_mut().post(c + 10, completion);
                AccessOutcome::Pending
            });
        }
        assert_eq!(core.warps[0].pc, 2, "the store is still ahead of the pc");
        core
    };
    let (a, b, other) = (at_cycle_5(9), at_cycle_5(9), at_cycle_5(8));
    assert!(!Arc::ptr_eq(&a.warps[0].program, &b.warps[0].program));
    assert_eq!(
        core_digest(&a),
        core_digest(&b),
        "equal programs, equal digests"
    );
    assert_ne!(
        core_digest(&a),
        core_digest(&other),
        "the unrun store is attested"
    );
}

#[test]
fn a_program_is_hashed_only_when_a_digest_is_taken() {
    let p = WarpProgram::new(
        WorkgroupId(0),
        vec![MemOp::Load(w(0)), MemOp::Store(w(1), 9)],
    );
    let mem = FakeMem::new(10);
    let mut core = sc_core(vec![p.clone(), p]);
    drive(&mut core, &mem, 10_000);
    let hashed = |core: &Core| {
        core.warps
            .iter()
            .filter(|w| w.program_digest.get().is_some())
            .count()
    };
    assert_eq!(hashed(&core), 0, "a run without a digest hashes no program");
    let first = core_digest(&core);
    assert_eq!(hashed(&core), core.warps.len());
    assert_eq!(core_digest(&core), first, "the kept hash is the hash");
}

#[test]
fn empty_core_is_done_immediately() {
    let core = sc_core(vec![]);
    assert!(core.done());
}

#[test]
fn straight_line_program_retires() {
    let p = WarpProgram::new(
        WorkgroupId(0),
        vec![
            MemOp::Load(w(0)),
            MemOp::Compute(5),
            MemOp::Store(w(1), 9),
            MemOp::Load(w(1)),
        ],
    );
    let mem = FakeMem::new(10);
    let mut core = sc_core(vec![p]);
    drive(&mut core, &mem, 10_000);
    assert_eq!(core.stats().mem_ops, 3);
    assert_eq!(core.stats().issued, 4);
    assert_eq!(core.stats().load_latency.count(), 2);
    assert_eq!(core.stats().store_latency.count(), 1);
}

#[test]
fn sc_blocks_second_mem_op_and_attributes_stall() {
    // Two back-to-back memory ops: the second must wait out the first's
    // latency, attributed to the prior store.
    let p = WarpProgram::new(
        WorkgroupId(0),
        vec![MemOp::Store(w(0), 1), MemOp::Load(w(1))],
    );
    let mem = FakeMem::new(50);
    let mut core = sc_core(vec![p]);
    drive(&mut core, &mem, 10_000);
    let s = core.stats();
    assert!(s.sc_stall_cycles >= 45, "stalled ~the store latency");
    assert_eq!(s.sc_stall_cycles_prev_store, s.sc_stall_cycles);
    assert_eq!(s.stalled_mem_ops, 1, "only the load ever stalled");
    assert!(s.stall_resolve.mean() >= 45.0);
}

#[test]
fn parallel_warps_hide_latency() {
    // 8 warps × the same two-op program: wall clock must be far below
    // 8 × serial time, because warps interleave (the TLP argument of
    // Section II-B).
    let make = |_| {
        WarpProgram::new(
            WorkgroupId(0),
            vec![MemOp::Load(w(0)), MemOp::Load(w(1)), MemOp::Load(w(2))],
        )
    };
    let mem = FakeMem::new(100);
    let mut core = sc_core((0..8).map(make).collect());
    let cycles_par = drive(&mut core, &mem, 100_000);

    let mem1 = FakeMem::new(100);
    let mut core1 = sc_core(vec![make(0)]);
    let cycles_one = drive(&mut core1, &mem1, 100_000);
    assert!(
        cycles_par < cycles_one * 3,
        "8 warps ({cycles_par}) should take much less than 8× one warp ({cycles_one})"
    );
}

#[test]
fn weak_ordering_overlaps_accesses() {
    let p = || {
        WarpProgram::new(
            WorkgroupId(0),
            vec![
                MemOp::Store(w(0), 1),
                MemOp::Store(w(1), 2),
                MemOp::Store(w(2), 3),
                MemOp::Store(w(3), 4),
            ],
        )
    };
    let mem_sc = FakeMem::new(80);
    let mut sc = sc_core(vec![p()]);
    let t_sc = drive(&mut sc, &mem_sc, 100_000);

    let mem_wo = FakeMem::new(80);
    let mut wo = Core::new(
        CoreId(0),
        CoreParams::weakly_ordered(8, 4, FencePolicy::Drain),
        vec![p()],
    );
    let t_wo = drive(&mut wo, &mem_wo, 100_000);
    assert!(
        t_wo * 2 < t_sc,
        "overlapped stores ({t_wo}) ≪ serialized stores ({t_sc})"
    );
    assert_eq!(wo.stats().sc_stall_cycles, 0);
}

#[test]
fn fence_drains_under_weak_ordering_and_is_free_under_sc() {
    let p = || {
        WarpProgram::new(
            WorkgroupId(0),
            vec![MemOp::Store(w(0), 1), MemOp::Fence, MemOp::Store(w(1), 2)],
        )
    };
    let mem = FakeMem::new(60);
    let mut wo = Core::new(
        CoreId(0),
        CoreParams::weakly_ordered(8, 4, FencePolicy::Drain),
        vec![p()],
    );
    drive(&mut wo, &mem, 100_000);
    assert!(
        wo.stats().fence_stall_cycles >= 55,
        "fence drained the store"
    );

    let mem = FakeMem::new(60);
    let mut sc = sc_core(vec![p()]);
    drive(&mut sc, &mem, 100_000);
    assert_eq!(sc.stats().fence_stall_cycles, 0, "SC fences are no-ops");
}

#[test]
fn gwct_fence_waits_for_write_completion_time() {
    // The store's completion carries a GWCT far in the future; a
    // DrainGwct fence must wait it out even after the ack arrived.
    let p = WarpProgram::new(
        WorkgroupId(0),
        vec![MemOp::Store(w(0), 1), MemOp::Fence, MemOp::Load(w(1))],
    );
    let mut core = Core::new(
        CoreId(0),
        CoreParams::weakly_ordered(8, 4, FencePolicy::DrainGwct),
        vec![p],
    );
    // Hand-drive: issue the store at cycle 0, ack at cycle 5 with
    // GWCT = 500.
    let issued = std::cell::Cell::new(None);
    core.tick(Cycle(0), |a| {
        issued.set(Some(a));
        AccessOutcome::Pending
    });
    let a = issued.get().expect("store issued");
    core.complete(
        Cycle(5),
        &Completion {
            warp: a.warp,
            addr: a.addr,
            kind: CompletionKind::StoreDone,
            ts: Timestamp(500),
            seq: 1,
        },
    );
    // Advance: the fence must hold until cycle > 500.
    let mut load_issued_at = None;
    for c in 6..600 {
        core.tick(Cycle(c), |a2| {
            load_issued_at.get_or_insert(c);
            let _ = a2;
            AccessOutcome::Pending
        });
    }
    assert!(
        load_issued_at.expect("load issued eventually") > 500,
        "fence must wait for the GWCT"
    );
}

#[test]
fn lock_serializes_critical_sections() {
    // Two warps contend on a lock around a shared counter implemented as
    // load+store (racy without the lock).
    let p = |_| {
        WarpProgram::new(
            WorkgroupId(0),
            vec![
                MemOp::Lock(w(9)),
                MemOp::Atomic(w(1), rcc_core::msg::AtomicOp::Add(1)),
                MemOp::Unlock(w(9)),
            ],
        )
    };
    let mem = FakeMem::new(20);
    let mut core = sc_core((0..4).map(p).collect());
    drive(&mut core, &mem, 200_000);
    assert_eq!(*mem.borrow().mem.get(&w(1)).unwrap(), 4);
    assert_eq!(*mem.borrow().mem.get(&w(9)).unwrap(), 0, "lock released");
}

#[test]
fn barrier_releases_all_workgroups() {
    // 2 workgroups of 4 warps; lead warps run the global barrier, the
    // rest wait locally, then everyone stores a flag.
    let mut programs = Vec::new();
    for i in 0..8 {
        let lead = i % 4 == 0;
        let mut ops = vec![MemOp::Compute(1 + i as u32)];
        if lead {
            ops.push(MemOp::Barrier {
                word: w(20),
                members: 2,
            });
        } else {
            ops.push(MemOp::LocalWait { epoch: 1 });
        }
        ops.push(MemOp::Store(w(30 + i as u64), 1));
        programs.push(WarpProgram::new(WorkgroupId(i / 4), ops));
    }
    let mem = FakeMem::new(15);
    let mut core = sc_core(programs);
    drive(&mut core, &mem, 200_000);
    for i in 0..8 {
        assert_eq!(*mem.borrow().mem.get(&w(30 + i)).unwrap(), 1);
    }
    assert_eq!(
        *mem.borrow().mem.get(&w(20)).unwrap(),
        2,
        "both leads arrived"
    );
}

#[test]
fn structural_rejects_are_retried() {
    // Reject the first 5 attempts; the op must still complete.
    let p = WarpProgram::new(WorkgroupId(0), vec![MemOp::Load(w(0))]);
    let mut core = sc_core(vec![p]);
    let mut rejects = 5;
    let mut done = false;
    for c in 0..100 {
        if core.done() {
            done = true;
            break;
        }
        let mut completion = None;
        core.tick(Cycle(c), |a| {
            if rejects > 0 {
                rejects -= 1;
                AccessOutcome::Reject(rcc_core::msg::RejectReason::MshrFull)
            } else {
                let comp = Completion {
                    warp: a.warp,
                    addr: a.addr,
                    kind: CompletionKind::LoadDone { value: 0 },
                    ts: Timestamp(c),
                    seq: 0,
                };
                completion = Some(comp);
                AccessOutcome::Done(comp)
            }
        });
        let _ = completion;
    }
    assert!(done);
    assert_eq!(core.stats().structural_stall_cycles, 5);
}

#[test]
fn weak_ordering_respects_outstanding_limit() {
    // 12 back-to-back stores, limit 8: the warp must never exceed 8 in
    // flight.
    let ops: Vec<MemOp> = (0..12).map(|i| MemOp::Store(w(i), i)).collect();
    let mut core = Core::new(
        CoreId(0),
        CoreParams::weakly_ordered(8, 4, FencePolicy::Drain),
        vec![WarpProgram::new(WorkgroupId(0), ops)],
    );
    let mut in_flight = 0usize;
    let mut peak = 0usize;
    let mut pending: Vec<Completion> = Vec::new();
    for c in 0..2000 {
        // Deliver one completion every 4 cycles.
        if c % 4 == 0 {
            if let Some(comp) = pending.pop() {
                core.complete(Cycle(c), &comp);
                in_flight -= 1;
            }
        }
        if core.done() {
            break;
        }
        core.tick(Cycle(c), |a| {
            in_flight += 1;
            pending.push(Completion {
                warp: a.warp,
                addr: a.addr,
                kind: CompletionKind::StoreDone,
                ts: Timestamp(c),
                seq: 0,
            });
            AccessOutcome::Pending
        });
        peak = peak.max(in_flight);
    }
    assert!(core.done());
    assert!(peak <= 8, "outstanding limit violated: {peak}");
    assert!(peak >= 4, "weak ordering should overlap stores: {peak}");
}

#[test]
fn stall_attribution_distinguishes_atomic_from_store() {
    let p = WarpProgram::new(
        WorkgroupId(0),
        vec![
            MemOp::Atomic(w(0), rcc_core::msg::AtomicOp::Add(1)),
            MemOp::Load(w(1)),
        ],
    );
    let mem = FakeMem::new(40);
    let mut core = sc_core(vec![p]);
    drive(&mut core, &mem, 10_000);
    let s = core.stats();
    assert!(s.sc_stall_cycles_prev_atomic > 0);
    assert_eq!(s.sc_stall_cycles_prev_store, 0);
    assert_eq!(s.sc_stall_cycles_prev_load, 0);
}

#[test]
fn multi_member_barrier_polls_until_release() {
    // Two lead warps in different workgroups arrive at a 2-member global
    // barrier; the slow one forces the fast one to poll.
    let fast = WarpProgram::new(
        WorkgroupId(0),
        vec![MemOp::Barrier {
            word: w(5),
            members: 2,
        }],
    );
    let slow = WarpProgram::new(
        WorkgroupId(1),
        vec![
            MemOp::Compute(800),
            MemOp::Barrier {
                word: w(5),
                members: 2,
            },
        ],
    );
    let _ = fast;
    let mem = FakeMem::new(10);
    // Put the slow warp in warp slot 4 (second workgroup) of the same core.
    let programs = vec![
        WarpProgram::new(
            WorkgroupId(0),
            vec![MemOp::Barrier {
                word: w(5),
                members: 2,
            }],
        ),
        WarpProgram::new(WorkgroupId(0), vec![]),
        WarpProgram::default(),
        WarpProgram::default(),
        slow,
    ];
    let mut core = Core::new(CoreId(0), CoreParams::sequential(8, 4), programs);
    drive(&mut core, &mem, 100_000);
    assert!(
        core.stats().barrier_polls > 0,
        "the early arriver must poll"
    );
    assert_eq!(*mem.borrow().mem.get(&w(5)).unwrap(), 2);
}

#[test]
fn local_wait_blocks_until_lead_passes_barrier() {
    let lead = WarpProgram::new(
        WorkgroupId(0),
        vec![
            MemOp::Compute(200),
            MemOp::Barrier {
                word: w(6),
                members: 1,
            },
            MemOp::Store(w(7), 1),
        ],
    );
    let follower = WarpProgram::new(
        WorkgroupId(0),
        vec![MemOp::LocalWait { epoch: 1 }, MemOp::Store(w(8), 2)],
    );
    let mem = FakeMem::new(10);
    let mut core = sc_core(vec![lead, follower]);
    let cycles = drive(&mut core, &mem, 100_000);
    assert!(
        cycles >= 200,
        "follower cannot finish before the lead's work"
    );
    assert_eq!(*mem.borrow().mem.get(&w(8)).unwrap(), 2);
}

#[test]
fn fences_free_under_sc_have_zero_latency_cost() {
    let with_fences = WarpProgram::new(
        WorkgroupId(0),
        vec![
            MemOp::Store(w(0), 1),
            MemOp::Fence,
            MemOp::Fence,
            MemOp::Fence,
            MemOp::Load(w(1)),
        ],
    );
    let mem = FakeMem::new(30);
    let mut core = sc_core(vec![with_fences]);
    drive(&mut core, &mem, 10_000);
    assert_eq!(core.stats().fence_stall_cycles, 0);
    assert_eq!(core.stats().issued, 5, "fences still issue as instructions");
}

#[test]
fn gto_scheduler_prefers_the_last_issuer() {
    // Two warps of pure compute: GTO drains one warp before touching the
    // other; round-robin interleaves.
    let prog = || WarpProgram::new(WorkgroupId(0), (0..6).map(|_| MemOp::Compute(1)).collect());
    let issue_order = |sched| {
        let params = CoreParams {
            scheduler: sched,
            ..CoreParams::sequential(8, 4)
        };
        let mut core = Core::new(CoreId(0), params, vec![prog(), prog()]);
        let mem = FakeMem::new(1);
        let (_, log) = drive_logged(&mut core, &mem, 1000);
        log.into_iter().map(|(_, warp, _)| warp).collect::<Vec<_>>()
    };
    assert_eq!(
        issue_order(SchedPolicy::GreedyThenOldest),
        [0, 0, 0, 0, 0, 0, 1, 1, 1, 1, 1, 1]
    );
    assert_eq!(
        issue_order(SchedPolicy::LooseRoundRobin),
        [0, 1, 0, 1, 0, 1, 0, 1, 0, 1, 0, 1]
    );
}

/// Every issue `(cycle, warp, pc)` of a mixed compute / memory / fence
/// workload on a weakly ordered core, pinned per policy: ordering
/// stalls, fence drains, compute timers and the scheduler's visit order
/// all shape the sequence.
#[test]
fn mixed_programs_issue_in_a_pinned_order() {
    let prog = |k: u64| {
        WarpProgram::new(
            WorkgroupId(0),
            vec![
                MemOp::Load(w(k)),
                MemOp::Compute(2 + k as u32),
                MemOp::Fence,
                MemOp::Store(w(10 + k), k),
                MemOp::Atomic(w(20), AtomicOp::Add(1)),
                MemOp::Compute(1),
                MemOp::Load(w(10 + (k + 1) % 4)),
                MemOp::Fence,
                MemOp::Load(w(20)),
            ],
        )
    };
    let issue_log = |sched| {
        let params = CoreParams {
            scheduler: sched,
            ..CoreParams::weakly_ordered(8, 4, FencePolicy::Drain)
        };
        let mut core = Core::new(CoreId(0), params, (0..4).map(prog).collect());
        let mem = FakeMem::new(7);
        drive_logged(&mut core, &mem, 10_000).1
    };
    assert_eq!(issue_log(SchedPolicy::LooseRoundRobin), RR_MIXED);
    assert_eq!(issue_log(SchedPolicy::GreedyThenOldest), GTO_MIXED);
}

const RR_MIXED: [(u64, usize, usize); 36] = [
    (0, 0, 0),
    (1, 1, 0),
    (2, 2, 0),
    (3, 3, 0),
    (4, 0, 1),
    (5, 1, 1),
    (6, 2, 1),
    (7, 3, 1),
    (8, 0, 2),
    (9, 1, 2),
    (10, 2, 2),
    (11, 0, 3),
    (12, 1, 3),
    (13, 2, 3),
    (14, 3, 2),
    (15, 3, 3),
    (18, 0, 4),
    (19, 1, 4),
    (20, 2, 4),
    (21, 0, 5),
    (22, 1, 5),
    (23, 2, 5),
    (24, 3, 4),
    (25, 0, 6),
    (26, 1, 6),
    (27, 2, 6),
    (28, 3, 5),
    (29, 0, 7),
    (30, 1, 7),
    (31, 2, 7),
    (32, 3, 6),
    (33, 0, 8),
    (34, 1, 8),
    (35, 2, 8),
    (36, 3, 7),
    (39, 3, 8),
];
const GTO_MIXED: [(u64, usize, usize); 36] = [
    (0, 0, 0),
    (1, 0, 1),
    (2, 1, 0),
    (3, 1, 1),
    (4, 0, 2),
    (5, 2, 0),
    (6, 2, 1),
    (7, 0, 3),
    (8, 1, 2),
    (9, 1, 3),
    (10, 2, 2),
    (11, 3, 0),
    (12, 3, 1),
    (13, 2, 3),
    (14, 0, 4),
    (15, 0, 5),
    (16, 0, 6),
    (17, 0, 7),
    (18, 1, 4),
    (19, 1, 5),
    (20, 1, 6),
    (21, 1, 7),
    (22, 2, 4),
    (23, 2, 5),
    (24, 2, 6),
    (25, 2, 7),
    (26, 0, 8),
    (27, 1, 8),
    (28, 3, 2),
    (29, 3, 3),
    (31, 2, 8),
    (36, 3, 4),
    (37, 3, 5),
    (38, 3, 6),
    (39, 3, 7),
    (45, 3, 8),
];

#[test]
fn gto_and_rr_complete_memory_programs_identically() {
    let prog = |seed: u64| {
        WarpProgram::new(
            WorkgroupId(0),
            vec![
                MemOp::Load(w(seed)),
                MemOp::Store(w(seed + 1), seed),
                MemOp::Load(w(seed + 1)),
            ],
        )
    };
    for sched in [SchedPolicy::LooseRoundRobin, SchedPolicy::GreedyThenOldest] {
        let params = CoreParams {
            scheduler: sched,
            ..CoreParams::sequential(8, 4)
        };
        let mut core = Core::new(CoreId(0), params, (0..4).map(prog).collect());
        let mem = FakeMem::new(25);
        drive(&mut core, &mem, 100_000);
        assert_eq!(core.stats().mem_ops, 12, "{sched:?}");
        for s in 0..4u64 {
            assert_eq!(*mem.borrow().mem.get(&w(s + 1)).unwrap(), s);
        }
    }
}

mod properties {
    use super::*;
    use proptest::prelude::*;
    use std::collections::HashMap as Map;

    fn random_op(kind: u8, addr: u64, val: u64) -> MemOp {
        match kind % 5 {
            0 => MemOp::Load(w(addr)),
            1 => MemOp::Store(w(addr), val),
            2 => MemOp::Atomic(w(addr), AtomicOp::Add(1)),
            3 => MemOp::Fence,
            _ => MemOp::Compute(1 + (val % 20) as u32),
        }
    }

    /// Drives `core` with a memory that *observes* every issue and checks
    /// the issue-time invariants of the ordering model, with completions
    /// delayed by `delay` cycles.
    fn drive_checked(core: &mut Core, delay: u64, max_outstanding: usize, weak: bool) {
        // warp -> set of outstanding addresses.
        let outstanding: Rc<RefCell<Map<WarpId, Vec<WordAddr>>>> = Rc::default();
        let mem = FakeMem::new(delay);
        for c in 0..200_000u64 {
            let cycle = Cycle(c);
            while let Some(completion) = mem.borrow_mut().pop_due(c) {
                let mut outs = outstanding.borrow_mut();
                let v = outs
                    .get_mut(&completion.warp)
                    .expect("completion without issue");
                let i = v.iter().position(|a| *a == completion.addr).expect("addr");
                v.remove(i);
                core.complete(cycle, &completion);
            }
            if core.done() {
                return;
            }
            let outs2 = Rc::clone(&outstanding);
            core.tick(cycle, |access| {
                {
                    let mut outs = outs2.borrow_mut();
                    let v = outs.entry(access.warp).or_default();
                    assert!(
                        v.len() < max_outstanding,
                        "warp {:?} exceeded the outstanding limit",
                        access.warp
                    );
                    if weak {
                        assert!(
                            !v.contains(&access.addr),
                            "same-address overlap from warp {:?} at {}",
                            access.warp,
                            access.addr
                        );
                    }
                    v.push(access.addr);
                }
                let mut m = mem.borrow_mut();
                let completion = m.serve(access, c);
                let at = c + m.delay;
                m.post(at, completion);
                AccessOutcome::Pending
            });
        }
        panic!("core did not finish");
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// Naïve SC issuance: any program mix retires, and no warp ever
        /// has more than one global access in flight.
        #[test]
        fn sc_core_never_overlaps_accesses(
            ops in proptest::collection::vec((any::<u8>(), 0u64..6, 0u64..100), 1..40),
            warps in 1usize..5,
            delay in 1u64..60,
        ) {
            let programs: Vec<WarpProgram> = (0..warps)
                .map(|i| {
                    WarpProgram::new(
                        WorkgroupId(0),
                        ops.iter()
                            .skip(i)
                            .map(|&(k, a, v)| random_op(k, a, v))
                            .collect(),
                    )
                })
                .collect();
            let mut core = Core::new(CoreId(0), CoreParams::sequential(warps, warps), programs);
            drive_checked(&mut core, delay, 1, false);
        }

        /// Weak ordering: any program mix retires, the 8-deep outstanding
        /// window is respected, and same-warp same-address accesses never
        /// overlap (required for per-location coherence).
        #[test]
        fn weak_core_respects_window_and_same_address_order(
            ops in proptest::collection::vec((any::<u8>(), 0u64..4, 0u64..100), 1..40),
            warps in 1usize..5,
            delay in 1u64..60,
            policy in prop_oneof![
                Just(FencePolicy::Free),
                Just(FencePolicy::Drain),
                Just(FencePolicy::DrainGwct),
            ],
        ) {
            let programs: Vec<WarpProgram> = (0..warps)
                .map(|i| {
                    WarpProgram::new(
                        WorkgroupId(0),
                        ops.iter()
                            .skip(i)
                            .map(|&(k, a, v)| random_op(k, a, v))
                            .collect(),
                    )
                })
                .collect();
            let mut core = Core::new(
                CoreId(0),
                CoreParams::weakly_ordered(warps, warps, policy),
                programs,
            );
            drive_checked(&mut core, delay, 8, true);
        }
    }
}

/// Fast-forwarding across a classified warp's timer breaks the contract
/// the stall clock relies on; debug builds catch it.
#[test]
#[cfg(debug_assertions)]
#[should_panic(expected = "skips a warp's timer")]
fn fast_forward_across_a_busy_timer_panics() {
    let p = WarpProgram::new(WorkgroupId(0), vec![MemOp::Compute(10), MemOp::Load(w(0))]);
    let mut core = sc_core(vec![p]);
    let accept = |_| AccessOutcome::Pending;
    core.tick(Cycle(1), accept); // the compute op: busy through cycle 10
    core.tick(Cycle(2), accept); // classified idle until cycle 11
    assert_eq!(core.next_event(Cycle(2)), Some(Cycle(11)));
    core.fast_forward(Cycle(2), 20);
}

/// The class masks are invisible: a core ticked every cycle and a twin
/// ticked only at its own `next_event` (or when a completion arrives),
/// with `fast_forward` over the gaps, stay in the same state, and every
/// wake hint equals the full per-warp walk it replaces.
mod lockstep {
    use super::*;
    use rcc_common::rng::Pcg32;
    use rcc_core::msg::RejectReason;

    /// SplitMix64 finalizer: the memory's latency, reject and
    /// synchronous-completion draws depend only on the access and its
    /// cycle, so the two cores see the same memory.
    fn mix(mut x: u64) -> u64 {
        x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        x ^ (x >> 31)
    }

    /// Presents `access` at cycle `c`: rejected one time in eight,
    /// completed on the spot one time in six, else completed after 1–80
    /// cycles. Write completions carry a GWCT up to 63 cycles ahead.
    fn present(mem: &mut FakeMem, seed: u64, c: u64, access: Access) -> AccessOutcome {
        let h = mix(seed ^ mix(c ^ mix(access.addr.0 ^ (access.warp.index() as u64) << 48)));
        if h.is_multiple_of(8) {
            return AccessOutcome::Reject(RejectReason::MshrFull);
        }
        let completion = mem.serve(access, c + (h >> 8) % 64);
        if (h >> 16).is_multiple_of(6) {
            return AccessOutcome::Done(completion);
        }
        mem.post(c + 1 + (h >> 24) % 80, completion);
        AccessOutcome::Pending
    }

    /// One random op: loads, stores and atomics over a few words (so
    /// weak ordering meets same-address conflicts), fences, compute,
    /// replay gates, and lock-protected sections.
    fn random_ops(rng: &mut Pcg32, ops: &mut Vec<MemOp>) {
        let data = |rng: &mut Pcg32| w(rng.below(6));
        match rng.below(8) {
            0 | 1 => ops.push(MemOp::Load(data(rng))),
            2 => ops.push(MemOp::Store(data(rng), rng.below(100))),
            3 => ops.push(MemOp::Atomic(data(rng), AtomicOp::Add(1))),
            4 => ops.push(MemOp::Fence),
            5 => ops.push(MemOp::Compute(1 + rng.below(30) as u32)),
            6 => ops.push(MemOp::WaitUntil(rng.below(3_000))),
            _ => {
                let lock = w(100 + rng.below(2));
                ops.push(MemOp::Lock(lock));
                ops.push(MemOp::Load(data(rng)));
                ops.push(MemOp::Store(data(rng), rng.below(100)));
                ops.push(MemOp::Unlock(lock));
            }
        }
    }

    /// Random programs for `n` warps in workgroups of `wpw`: stretches of
    /// random ops separated by up to three inter-workgroup `Barrier`s on
    /// every lead warp, matched by a `LocalWait` on the others.
    fn random_programs(rng: &mut Pcg32, n: usize, wpw: usize) -> Vec<WarpProgram> {
        let wgs = n.div_ceil(wpw) as u64;
        let phases = rng.below(4);
        (0..n)
            .map(|i| {
                let mut ops = Vec::new();
                for phase in 0..=phases {
                    for _ in 0..rng.below(8) {
                        random_ops(rng, &mut ops);
                    }
                    if phase == phases {
                        break;
                    }
                    if i % wpw == 0 {
                        ops.push(MemOp::Barrier {
                            word: w(200 + phase),
                            members: wgs,
                        });
                    } else {
                        ops.push(MemOp::LocalWait { epoch: phase + 1 });
                    }
                }
                WarpProgram::new(WorkgroupId(i / wpw), ops)
            })
            .collect()
    }

    /// Both wake hints equal the full walk over every warp.
    fn assert_hints_match_walk(core: &Core, now: u64, what: &str) {
        let walk_next_event = core.walk_wake(Cycle(now), |warp, timer_pending| {
            core.acts_at_floor(warp, now, timer_pending)
        });
        let walk_stall_horizon = core.walk_wake(Cycle(now), |_, timer_pending| timer_pending);
        assert_eq!(
            core.next_event(Cycle(now)),
            walk_next_event,
            "next_event after {what} at {now}"
        );
        assert_eq!(
            core.stall_horizon(Cycle(now)),
            walk_stall_horizon,
            "stall_horizon after {what} at {now}"
        );
    }

    fn assert_same(every: &Core, twin: &Core, c: u64) {
        assert_eq!(every.stats(), twin.stats(), "stats at cycle {c}");
        assert_eq!(
            format!("{every:?}"),
            format!("{twin:?}"),
            "state at cycle {c}"
        );
    }

    /// Runs one random core and its twin; returns the cycles the twin
    /// fast-forwarded over.
    fn run(seed: u64) -> u64 {
        let mut rng = Pcg32::seeded(seed);
        let n = 1 + rng.below(48) as usize;
        let wpw = 1 + rng.below(8) as usize;
        let mut params = match rng.below(3) {
            0 => CoreParams::sequential(n, wpw),
            1 => CoreParams::weakly_ordered(n, wpw, FencePolicy::Drain),
            _ => CoreParams::weakly_ordered(n, wpw, FencePolicy::DrainGwct),
        };
        if rng.chance(0.5) {
            params.scheduler = SchedPolicy::GreedyThenOldest;
        }
        let programs = random_programs(&mut rng, n, wpw);
        let mut every = Core::new(CoreId(0), params.clone(), programs.clone());
        let mut twin = Core::new(CoreId(0), params, programs);
        let every_mem = FakeMem::new(0);
        let twin_mem = FakeMem::new(0);
        // The twin's next tick, and the last cycle its counters cover.
        let mut wake = Some(1);
        let mut synced = 0;
        let mut last = 0;
        let mut skipped = 0;
        for c in 1..200_000u64 {
            let mut arrived = false;
            while let Some(completion) = every_mem.borrow_mut().pop_due(c) {
                every.complete(Cycle(c), &completion);
                assert_hints_match_walk(&every, c, "a completion");
                let twin_completion = twin_mem.borrow_mut().pop_due(c).expect("same memory");
                if !arrived && c - 1 > synced {
                    twin.fast_forward(Cycle(synced), c - 1 - synced);
                    skipped += c - 1 - synced;
                    synced = c - 1;
                }
                twin.complete(Cycle(c), &twin_completion);
                assert_hints_match_walk(&twin, c, "a completion");
                arrived = true;
            }
            if arrived {
                wake = Some(c);
                assert_same(&every, &twin, c);
            }
            if every.done() {
                break;
            }
            every.tick(Cycle(c), |a| {
                present(&mut every_mem.borrow_mut(), seed, c, a)
            });
            assert_hints_match_walk(&every, c, "a tick");
            last = c;
            assert!(wake.is_none_or(|t| t >= c), "the twin overslept");
            if wake == Some(c) && !twin.done() {
                if c - 1 > synced {
                    twin.fast_forward(Cycle(synced), c - 1 - synced);
                    skipped += c - 1 - synced;
                }
                twin.tick(Cycle(c), |a| {
                    present(&mut twin_mem.borrow_mut(), seed, c, a)
                });
                synced = c;
                assert_hints_match_walk(&twin, c, "a tick");
                wake = twin.next_event(Cycle(c)).map(Cycle::raw);
            }
        }
        assert!(
            every.done(),
            "seed {seed}: the reference core never retired"
        );
        if last > synced {
            twin.fast_forward(Cycle(synced), last - synced);
        }
        assert!(twin.done());
        assert_same(&every, &twin, last);
        skipped
    }

    #[test]
    fn a_twin_ticked_at_its_wake_hints_matches_a_core_ticked_every_cycle() {
        let skipped: u64 = (0..60).map(run).sum();
        assert!(skipped > 10_000, "the twin skipped only {skipped} cycles");
    }
}
