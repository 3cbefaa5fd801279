//! MESI baseline tests: invalidation round trips, recall on eviction,
//! fetch/invalidate races, and SC checking on random traces.

use super::MesiProtocol;
use crate::msg::{Access, AccessKind, AccessOutcome, AtomicOp, CompletionKind};
use crate::protocol::{L1Cache, L2Bank, Protocol};
use crate::testrig::Rig;
use rcc_common::addr::{LineAddr, WordAddr};
use rcc_common::config::GpuConfig;
use rcc_common::ids::WarpId;

fn rig(cores: usize) -> Rig<MesiProtocol> {
    let cfg = GpuConfig::small();
    Rig::new(&MesiProtocol::new(&cfg), &cfg, cores)
}

fn word(line: u64, idx: usize) -> WordAddr {
    LineAddr(line).word(idx)
}

#[test]
fn load_caches_and_registers_sharer() {
    let mut r = rig(2);
    let w = word(3, 0);
    r.seed_dram(LineAddr(3), 0, 7);
    assert_eq!(r.load_value(0, w), 7);
    assert_eq!(r.load_value(1, w), 7);
    assert_eq!(r.l2.sharer_count(LineAddr(3)), Some(2));
    assert!(r.l1s[0].is_resident(LineAddr(3)));
    // L1 hits don't touch the directory again.
    let gets = r.l2.stats().gets;
    r.load(0, w);
    assert_eq!(r.l2.stats().gets, gets);
    r.sb.assert_sc();
}

#[test]
fn store_invalidates_all_sharers_before_ack() {
    let mut r = rig(3);
    let w = word(3, 0);
    r.load(0, w);
    r.load(1, w);
    r.store(2, w, 9);
    assert_eq!(r.l2.stats().invs_sent, 2);
    assert_eq!(r.l2.stats().stalled_stores, 1);
    assert_eq!(r.l1s[0].stats().invs_received, 1);
    assert!(!r.l1s[0].is_resident(LineAddr(3)), "copy invalidated");
    assert!(!r.l1s[1].is_resident(LineAddr(3)));
    assert_eq!(r.l2.sharer_count(LineAddr(3)), Some(0));
    // Everyone now observes the new value.
    assert_eq!(r.load_value(0, w), 9);
    assert_eq!(r.load_value(1, w), 9);
    r.sb.assert_sc();
}

#[test]
fn store_with_no_sharers_needs_no_invalidations() {
    let mut r = rig(2);
    let w = word(4, 0);
    r.store(0, w, 5);
    assert_eq!(r.l2.stats().invs_sent, 0);
    assert_eq!(r.l2.stats().stalled_stores, 0);
    r.sb.assert_sc();
}

#[test]
fn own_copy_dropped_at_store_issue() {
    // Write-through-invalidate: after a warp stores, other warps on the
    // same core must not read the stale pre-store value from their L1.
    let mut r = rig(1);
    let w = word(5, 0);
    r.load(0, w);
    assert!(r.l1s[0].is_resident(LineAddr(5)));
    r.store(0, w, 8);
    assert!(!r.l1s[0].is_resident(LineAddr(5)));
    assert_eq!(r.load_value(0, w), 8);
    r.sb.assert_sc();
}

#[test]
fn atomics_serialize_at_directory() {
    let mut r = rig(2);
    let w = word(6, 1);
    r.load(0, w); // sharer that must be invalidated by the atomic
    let c = r.atomic(1, w, AtomicOp::Add(2));
    assert_eq!(c.kind, CompletionKind::AtomicDone { old: 0 });
    assert_eq!(r.l2.stats().invs_sent, 1);
    let c = r.atomic(0, w, AtomicOp::Add(3));
    assert_eq!(c.kind, CompletionKind::AtomicDone { old: 2 });
    assert_eq!(r.load_value(1, w), 5);
    r.sb.assert_sc();
}

#[test]
fn eviction_recalls_sharers() {
    let cfg = GpuConfig::small();
    let mut r = rig(1);
    let sets = cfg.l2.partition.num_sets() as u64 * cfg.l2.num_partitions as u64;
    let ways = cfg.l2.partition.ways as u64;
    let w = word(0, 0);
    r.load(0, w);
    let invs_before = r.l1s[0].stats().invs_received;
    for i in 1..=ways {
        r.load(0, word(i * sets, 0));
    }
    // Line 0 was evicted from L2; its sharer must have been recalled.
    assert!(
        r.l1s[0].stats().invs_received > invs_before,
        "recall invalidation reached the L1"
    );
    assert!(!r.l1s[0].is_resident(LineAddr(0)));
    // The line refetches cleanly afterwards.
    assert_eq!(r.load_value(0, w), 0);
    r.sb.assert_sc();
}

#[test]
fn requests_defer_behind_pending_invalidations() {
    let mut r = rig(3);
    r.auto_dram = true;
    let w = word(7, 0);
    r.load(0, w); // sharer
                  // Store from core 1: invs in flight (the testrig delivers them and
                  // their acks within one pump, so drive manually via issue).
    let o = r.issue(
        1,
        Access {
            warp: WarpId(0),
            addr: w,
            kind: AccessKind::Store { value: 3 },
        },
    );
    assert_eq!(o, AccessOutcome::Pending);
    r.pump();
    // By the time the pump settles, acks have been collected and the
    // store applied; a subsequent load sees the new value.
    assert_eq!(r.load_value(2, w), 3);
    r.sb.assert_sc();
}

#[test]
fn concurrent_misses_replay_in_order_at_fill() {
    let mut r = rig(3);
    r.auto_dram = false;
    let w = word(8, 0);
    // load, store, load queued while the line is fetched.
    r.issue(
        0,
        Access {
            warp: WarpId(0),
            addr: w,
            kind: AccessKind::Load,
        },
    );
    r.pump();
    r.issue(
        1,
        Access {
            warp: WarpId(0),
            addr: w,
            kind: AccessKind::Store { value: 4 },
        },
    );
    r.pump();
    r.issue(
        2,
        Access {
            warp: WarpId(0),
            addr: w,
            kind: AccessKind::Load,
        },
    );
    r.pump();
    assert_eq!(r.pending_fetches.len(), 1);
    assert!(r.completions.is_empty());
    let line = r.pending_fetches.pop_front().unwrap();
    r.fill_one(line);
    r.pump();
    assert_eq!(r.completions.len(), 3);
    // Arrival order: core 0 sees 0 (before the store), core 2 sees 4.
    let v0 = match r.completions.iter().find(|(c, _)| *c == 0).unwrap().1.kind {
        CompletionKind::LoadDone { value } => value,
        _ => unreachable!(),
    };
    let v2 = match r.completions.iter().find(|(c, _)| *c == 2).unwrap().1.kind {
        CompletionKind::LoadDone { value } => value,
        _ => unreachable!(),
    };
    assert_eq!(v0, 0);
    assert_eq!(v2, 4);
    r.sb.assert_sc();
}

proptest::proptest! {
    #![proptest_config(proptest::prelude::ProptestConfig::with_cases(32))]

    /// MESI executions are sequentially consistent under the naïve-SC
    /// issuance rule.
    #[test]
    fn mesi_random_traces_are_sequentially_consistent(
        seed in 0u64..500,
        ops in 30usize..100,
        cores in 2usize..4,
    ) {
        let mut r = rig(cores);
        let mut rng = rcc_common::Pcg32::seeded(seed);
        let words: Vec<WordAddr> =
            (0..6).map(|i| word(i % 3, (i as usize) * 2)).collect();
        let mut token = 1u64;
        for i in 0..ops {
            let core = rng.below(cores as u64) as usize;
            let w = *rng.pick(&words);
            let kind = match rng.below(8) {
                0..=3 => AccessKind::Load,
                4..=6 => {
                    token += 1;
                    AccessKind::Store { value: token }
                }
                _ => AccessKind::Atomic { op: AtomicOp::Add(1) },
            };
            r.op(core, 0, w, kind);
            if i % 9 == 0 {
                r.step(rng.below(5) + 1);
            }
        }
        r.sb.assert_sc();
    }
}

#[test]
fn recall_parks_the_displacing_fill() {
    // Fill an L2 set with shared lines, then miss into it: the fill must
    // wait for the victim's recall acks before completing.
    let cfg = GpuConfig::small();
    let mut r = rig(1);
    r.auto_dram = false;
    let stride = cfg.l2.num_partitions as u64;
    let sets = cfg.l2.partition.num_sets() as u64 * stride;
    // Make every way of set 0 a *shared* line (loaded, so sharer bits set).
    for i in 0..cfg.l2.partition.ways as u64 {
        let w = word(i * sets, 0);
        let o = r.issue(
            0,
            Access {
                warp: WarpId((i % 8) as usize),
                addr: w,
                kind: AccessKind::Load,
            },
        );
        assert_eq!(o, AccessOutcome::Pending);
        r.pump();
        let line = r.pending_fetches.pop_front().unwrap();
        r.fill_one(line);
        r.pump();
    }
    let loads_done = r.completions.len();
    // Now miss into the same set: the fill needs a recall round trip.
    let target = word(cfg.l2.partition.ways as u64 * sets, 0);
    r.issue(
        0,
        Access {
            warp: WarpId(7),
            addr: target,
            kind: AccessKind::Load,
        },
    );
    r.pump();
    let line = r.pending_fetches.pop_front().unwrap();
    r.fill_one(line);
    // The rig pumps inv + ack within the same call, so the fill lands —
    // but the recall must have gone out.
    r.pump();
    assert!(
        r.l1s[0].stats().invs_received > 0,
        "recall invalidation was sent to the sharer"
    );
    assert_eq!(r.completions.len(), loads_done + 1, "the load completed");
    r.sb.assert_sc();
}

#[test]
fn spurious_inv_after_silent_l1_eviction_is_acked() {
    // The L1 silently evicts; the directory's stale sharer bit causes a
    // spurious invalidation which must be acked without drama.
    let cfg = GpuConfig::small();
    let mut r = rig(2);
    let sets = cfg.l1.num_sets() as u64;
    let w = word(3, 0);
    r.load(0, w); // sharer bit set at the directory
                  // Evict line 3 from core 0's L1 by filling its set.
    for i in 1..=cfg.l1.ways as u64 {
        r.load(0, word(3 + i * sets, 0));
    }
    assert!(!r.l1s[0].is_resident(LineAddr(3)), "silently evicted");
    // A store still invalidates "core 0" per the directory; the ack must
    // arrive and the store complete.
    r.store(1, w, 5);
    assert_eq!(r.load_value(0, w), 5);
    r.sb.assert_sc();
}

/// A store deferred behind the recall of its line: the recall evicts the
/// line, so the re-dispatched store misses while the only MSHR is held
/// by another line's fetch. It must wait for that fill to free the
/// entry, not be lost or crash the bank.
fn deferred_store_waits_for_an_mshr<P: Protocol>(make: impl Fn(&GpuConfig) -> P) {
    let mut cfg = GpuConfig::small();
    cfg.l2.partition.ways = 1;
    cfg.l2.partition.mshrs = 1;
    let mut r = Rig::new(&make(&cfg), &cfg, 4);
    r.auto_dram = false;
    let set = (cfg.l2.partition.num_sets() * cfg.l2.num_partitions) as u64;
    let (a, b, c) = (word(0, 0), word(set, 0), word(2 * set, 0));
    let access = |addr, kind| Access {
        warp: WarpId(0),
        addr,
        kind,
    };
    let fill_next = |r: &mut Rig<P>| {
        let line = r.pending_fetches.pop_front().expect("a fetch is due");
        r.fill_one(line);
    };
    // 1. Core 2 shares A; B's fill (one way) recalls A. Core 2's ack
    //    stays staged until the next pump.
    r.issue(2, access(a, AccessKind::Load));
    r.pump();
    fill_next(&mut r);
    r.pump();
    r.issue(3, access(b, AccessKind::Load));
    r.pump();
    fill_next(&mut r);
    // 2. A store to A defers behind the recall, 3. a miss on C takes the
    // only MSHR, 4. the ack arrives (the rig pumps cores in index order).
    r.issue(0, access(a, AccessKind::Store { value: 7 }));
    r.issue(1, access(c, AccessKind::Load));
    r.pump();
    assert_eq!(r.pending_fetches, [c.line()], "C holds the only MSHR");
    assert!(r.completions.iter().all(|(core, _)| *core != 0));
    while !r.pending_fetches.is_empty() {
        fill_next(&mut r);
        r.pump();
    }
    let done = |core| r.completions.iter().position(|(c, _)| *c == core);
    let (load_c, store_a) = (done(1).expect("C's load"), done(0).expect("the store"));
    assert!(load_c < store_a, "the store waited for C's fill");
    assert_eq!(r.l2.pending(), 0, "nothing left waiting");
    assert_eq!(r.load_value(2, a), 7);
    r.sb.assert_sc();
}

#[test]
fn a_deferred_store_whose_line_was_recalled_waits_for_an_mshr() {
    deferred_store_waits_for_an_mshr(MesiProtocol::new);
}

mod wb {
    use super::super::wb::MesiWbProtocol;
    use crate::msg::{Access, AccessKind, AccessOutcome, AtomicOp, CompletionKind};
    use crate::protocol::L2Bank;
    use crate::testrig::Rig;
    use rcc_common::addr::{LineAddr, WordAddr};
    use rcc_common::config::GpuConfig;
    use rcc_common::ids::WarpId;

    fn rig(cores: usize) -> Rig<MesiWbProtocol> {
        let cfg = GpuConfig::small();
        Rig::new(&MesiWbProtocol::new(&cfg), &cfg, cores)
    }

    fn word(line: u64, idx: usize) -> WordAddr {
        LineAddr(line).word(idx)
    }

    #[test]
    fn a_deferred_getx_whose_line_was_recalled_waits_for_an_mshr() {
        super::deferred_store_waits_for_an_mshr(MesiWbProtocol::new);
    }

    #[test]
    fn first_store_fetches_ownership_then_stores_are_free() {
        let mut r = rig(1);
        let w = word(3, 0);
        // First store: GETX round trip.
        let o = r.issue(
            0,
            Access {
                warp: WarpId(0),
                addr: w,
                kind: AccessKind::Store { value: 1 },
            },
        );
        assert_eq!(o, AccessOutcome::Pending);
        r.pump();
        assert!(r.l1s[0].is_modified(LineAddr(3)));
        // Subsequent stores complete at issue with no traffic.
        let flits_before = r.l2.stats().gets + r.l2.stats().writes;
        for v in 2..6 {
            let o = r.issue(
                0,
                Access {
                    warp: WarpId(0),
                    addr: w,
                    kind: AccessKind::Store { value: v },
                },
            );
            assert!(
                matches!(o, AccessOutcome::Done(_)),
                "M-state store is local"
            );
        }
        assert_eq!(r.l2.stats().gets + r.l2.stats().writes, flits_before);
        assert_eq!(r.load_value(0, w), 5);
        r.sb.assert_sc();
    }

    #[test]
    fn remote_read_recalls_dirty_data() {
        let mut r = rig(2);
        let w = word(4, 0);
        r.store(0, w, 9); // core 0 becomes owner
        assert!(r.l1s[0].is_modified(LineAddr(4)));
        // Core 1's read must see 9 via a recall.
        assert_eq!(r.load_value(1, w), 9);
        assert!(!r.l1s[0].is_modified(LineAddr(4)), "ownership surrendered");
        assert!(r.l2.stats().invs_sent >= 1, "a recall went out");
        r.sb.assert_sc();
    }

    #[test]
    fn ownership_migrates_between_writers() {
        let mut r = rig(2);
        let w = word(5, 0);
        r.store(0, w, 1);
        r.store(1, w, 2); // recalls from core 0, grants to core 1
        assert!(r.l1s[1].is_modified(LineAddr(5)));
        assert!(!r.l1s[0].is_modified(LineAddr(5)));
        assert_eq!(r.load_value(0, w), 2);
        r.sb.assert_sc();
    }

    #[test]
    fn getx_invalidates_sharers_first() {
        let mut r = rig(3);
        let w = word(6, 0);
        r.load(0, w);
        r.load(1, w);
        r.store(2, w, 7);
        assert!(r.l1s[2].is_modified(LineAddr(6)));
        assert!(!r.l1s[0].is_resident(LineAddr(6)));
        assert_eq!(r.load_value(0, w), 7);
        r.sb.assert_sc();
    }

    #[test]
    fn atomic_recalls_owner_and_serializes() {
        let mut r = rig(2);
        let w = word(7, 0);
        r.store(0, w, 10); // owner with dirty 10
        let c = r.atomic(1, w, AtomicOp::Add(5));
        assert_eq!(c.kind, CompletionKind::AtomicDone { old: 10 });
        assert_eq!(r.load_value(0, w), 15);
        r.sb.assert_sc();
    }

    #[test]
    fn dirty_eviction_writes_back() {
        let cfg = GpuConfig::small();
        let mut r = rig(1);
        let sets = cfg.l1.num_sets() as u64;
        let w = word(2, 3);
        r.store(0, w, 42); // M + dirty in L1
                           // Evict it from the L1 by loading into the same set.
        for i in 1..=cfg.l1.ways as u64 {
            r.load(0, word(2 + i * sets, 0));
        }
        r.pump();
        assert!(!r.l1s[0].is_modified(LineAddr(2)));
        // The L2 received the writeback; a reload sees the value.
        assert_eq!(r.load_value(0, w), 42);
        r.sb.assert_sc();
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(24))]

        /// MESI-WB executions are sequentially consistent under the
        /// naïve-SC issuance rule.
        #[test]
        fn wb_random_traces_are_sequentially_consistent(
            seed in 0u64..300,
            ops in 30usize..90,
            cores in 2usize..4,
        ) {
            let mut r = rig(cores);
            let mut rng = rcc_common::Pcg32::seeded(seed);
            let words: Vec<WordAddr> =
                (0..6).map(|i| word(i % 3, (i as usize) * 2)).collect();
            let mut token = 1u64;
            for i in 0..ops {
                let core = rng.below(cores as u64) as usize;
                let w = *rng.pick(&words);
                let kind = match rng.below(8) {
                    0..=3 => AccessKind::Load,
                    4..=6 => {
                        token += 1;
                        AccessKind::Store { value: token }
                    }
                    _ => AccessKind::Atomic { op: AtomicOp::Add(1) },
                };
                r.op(core, 0, w, kind);
                if i % 9 == 0 {
                    r.step(rng.below(5) + 1);
                }
            }
            r.sb.assert_sc();
        }
    }

    mod l2_replay_order {
        use super::super::super::wb::{MesiWbL2, MesiWbProtocol};
        use crate::msg::{AtomicOp, ReqId, ReqMsg, ReqPayload, RespMsg, RespPayload};
        use crate::protocol::{L2Bank, L2Outbox, Protocol};
        use rcc_common::addr::LineAddr;
        use rcc_common::config::GpuConfig;
        use rcc_common::ids::{CoreId, PartitionId};
        use rcc_common::time::{Cycle, Timestamp};

        fn bank() -> MesiWbL2 {
            let cfg = GpuConfig::small();
            MesiWbProtocol::new(&cfg).make_l2(PartitionId(0), &cfg)
        }

        fn getx(src: usize, line: u64) -> ReqMsg {
            ReqMsg {
                src: CoreId(src),
                line: LineAddr(line),
                id: ReqId(0),
                payload: ReqPayload::GetX { now: Timestamp(0) },
            }
        }

        fn atomic(src: usize, line: u64, id: u64) -> ReqMsg {
            ReqMsg {
                src: CoreId(src),
                line: LineAddr(line),
                id: ReqId(id),
                payload: ReqPayload::Atomic {
                    now: Timestamp(0),
                    word: 0,
                    op: AtomicOp::Add(1),
                },
            }
        }

        fn atomic_resp_ids(out: &L2Outbox) -> Vec<u64> {
            out.to_l1
                .iter()
                .filter(|m| matches!(m.payload, RespPayload::AtomicResp { .. }))
                .map(|m| m.id.0)
                .collect()
        }

        /// Regression for the fill-replay inversion: an atomic queued in
        /// the target line's MSHR (older) must be acknowledged before an
        /// atomic deferred while the fill was stalled on a victim recall
        /// (newer), even though both replay from the same completion.
        #[test]
        fn mshr_queued_ops_replay_before_stall_deferred_ops() {
            let cfg = GpuConfig::small();
            let mut b = bank();
            // Partition 0 of 2, 16 sets: lines 32, 64, .., 256 share
            // set 0 with target line 0. Make every way a Modified owner
            // so a fill of line 0 must recall a victim.
            let sets = (cfg.l2.partition.num_sets() * cfg.l2.num_partitions) as u64;
            let ways = cfg.l2.partition.ways as u64;
            let victims: Vec<u64> = (1..=ways).map(|i| i * sets).collect();
            for (i, &v) in victims.iter().enumerate() {
                let mut out = L2Outbox::new();
                b.handle_req(Cycle(0), getx(i % 4, v), &mut out).unwrap();
                assert_eq!(out.dram_fetch, vec![LineAddr(v)]);
                let mut out = L2Outbox::new();
                b.handle_dram(Cycle(0), LineAddr(v), Box::default(), &mut out);
                assert!(
                    out.to_l1
                        .iter()
                        .any(|m| matches!(m.payload, RespPayload::DataEx { .. })),
                    "owner {i} granted exclusivity for line {v}"
                );
            }

            // Older atomic: misses, waits in the target's MSHR entry.
            let mut out = L2Outbox::new();
            b.handle_req(Cycle(1), atomic(0, 0, 53), &mut out).unwrap();
            assert_eq!(out.dram_fetch, vec![LineAddr(0)]);

            // The fill arrives but every way is a tracked owner: the L2
            // must recall a victim and park the fill.
            let mut out = L2Outbox::new();
            b.handle_dram(Cycle(2), LineAddr(0), Box::default(), &mut out);
            let recall: Vec<&RespMsg> = out
                .to_l1
                .iter()
                .filter(|m| matches!(m.payload, RespPayload::Recall))
                .collect();
            assert_eq!(recall.len(), 1, "exactly one victim recalled");
            let recalled_line = recall[0].line;
            let owner = recall[0].dst;
            assert!(atomic_resp_ids(&out).is_empty(), "53 must still wait");

            // Newer atomic: arrives while the fill is stalled → deferred.
            let mut out = L2Outbox::new();
            b.handle_req(Cycle(3), atomic(0, 0, 54), &mut out).unwrap();
            assert!(atomic_resp_ids(&out).is_empty(), "54 must defer");
            assert!(out.dram_fetch.is_empty(), "no duplicate fetch");

            // The owner's writeback completes the recall; the fill
            // proceeds and BOTH atomics are served — oldest first.
            let mut out = L2Outbox::new();
            b.handle_req(
                Cycle(4),
                ReqMsg {
                    src: owner,
                    line: recalled_line,
                    id: ReqId(0),
                    payload: ReqPayload::WbData {
                        data: Box::default(),
                        last_seq: 0,
                    },
                },
                &mut out,
            )
            .unwrap();
            assert_eq!(
                atomic_resp_ids(&out),
                vec![53, 54],
                "arrival order must survive the stalled-fill replay"
            );
            assert_eq!(b.pending(), 0, "no stuck transactions");
        }

        fn gets(src: usize, line: u64) -> ReqMsg {
            ReqMsg {
                src: CoreId(src),
                line: LineAddr(line),
                id: ReqId(0),
                payload: ReqPayload::Gets {
                    now: Timestamp(0),
                    renew_exp: None,
                },
            }
        }

        fn digest(b: &MesiWbL2) -> u64 {
            let mut d = rcc_common::snap::StateDigest::new();
            b.digest_state(&mut d);
            d.finish()
        }

        /// A fill parked behind an eviction recall (a Shared victim whose
        /// sharers must ack their invalidations) sleeps: `next_event` is
        /// `None` until the InvAck arrives, ticking meanwhile changes
        /// nothing, and the ack completes the fill.
        #[test]
        fn fill_parked_behind_a_recall_sleeps_until_the_ack() {
            let cfg = GpuConfig::small();
            let mut b = bank();
            // Every way of set 0 held Shared by core 1.
            let sets = (cfg.l2.partition.num_sets() * cfg.l2.num_partitions) as u64;
            let ways = cfg.l2.partition.ways as u64;
            for v in (1..=ways).map(|i| i * sets) {
                let mut out = L2Outbox::new();
                b.handle_req(Cycle(0), gets(1, v), &mut out).unwrap();
                b.handle_dram(Cycle(0), LineAddr(v), Box::default(), &mut out);
            }
            let mut out = L2Outbox::new();
            b.handle_req(Cycle(1), gets(0, 0), &mut out).unwrap();
            assert_eq!(out.dram_fetch, vec![LineAddr(0)]);

            // The fill must invalidate a victim's sharer first.
            let mut out = L2Outbox::new();
            b.handle_dram(Cycle(2), LineAddr(0), Box::default(), &mut out);
            let invs: Vec<&RespMsg> = out
                .to_l1
                .iter()
                .filter(|m| matches!(m.payload, RespPayload::Inv))
                .collect();
            assert_eq!(invs.len(), 1, "one sharer of one victim");
            let (victim, sharer) = (invs[0].line, invs[0].dst);
            assert_eq!(sharer, CoreId(1));
            assert!(b.pending() > 0, "the fill is parked");

            let parked = digest(&b);
            for c in 3..20 {
                assert_eq!(b.next_event(Cycle(c)), None, "asleep at {c}");
                let mut out = L2Outbox::new();
                b.tick(Cycle(c), &mut out);
                assert!(out.is_empty());
                assert_eq!(digest(&b), parked, "tick at {c} changed state");
            }

            let mut out = L2Outbox::new();
            b.handle_req(
                Cycle(20),
                ReqMsg {
                    src: sharer,
                    line: victim,
                    id: ReqId(0),
                    payload: ReqPayload::InvAck,
                },
                &mut out,
            )
            .unwrap();
            assert!(
                out.to_l1.iter().any(|m| m.dst == CoreId(0)
                    && m.line == LineAddr(0)
                    && matches!(m.payload, RespPayload::Data { .. })),
                "the ack completes the fill and serves the queued GETS"
            );
            assert_eq!(b.next_event(Cycle(20)), None);
            assert_eq!(b.pending(), 0, "no stuck transactions");
        }
    }
}
