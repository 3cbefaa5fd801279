//! TC-Strong / TC-Weak behaviour tests: lease stalls, GWCT semantics, SC
//! support for TCS, and the write-atomicity violation that makes TCW
//! unable to support SC (Table I).

use super::{StoreDiscipline, TcProtocol};
use crate::msg::{Access, AccessKind, AccessOutcome, AtomicOp, CompletionKind};
use crate::protocol::{L1Cache, L2Bank, Protocol};
use crate::testrig::Rig;
use rcc_common::addr::{LineAddr, WordAddr};
use rcc_common::config::GpuConfig;
use rcc_common::ids::WarpId;

fn cfg_with_lease(lease: u64) -> GpuConfig {
    let mut cfg = GpuConfig::small();
    cfg.tc.lease_cycles = lease;
    cfg
}

fn strong(cores: usize, lease: u64) -> (Rig<TcProtocol>, GpuConfig) {
    let cfg = cfg_with_lease(lease);
    let p = TcProtocol::strong(&cfg);
    (Rig::new(&p, &cfg, cores), cfg)
}

fn weak(cores: usize, lease: u64) -> (Rig<TcProtocol>, GpuConfig) {
    let cfg = cfg_with_lease(lease);
    let p = TcProtocol::weak(&cfg);
    (Rig::new(&p, &cfg, cores), cfg)
}

fn word(line: u64, idx: usize) -> WordAddr {
    LineAddr(line).word(idx)
}

#[test]
fn discipline_selection() {
    let cfg = GpuConfig::small();
    assert_eq!(
        TcProtocol::strong(&cfg).discipline(),
        StoreDiscipline::StallUntilExpiry
    );
    assert_eq!(
        TcProtocol::weak(&cfg).discipline(),
        StoreDiscipline::EagerWithGwct
    );
    assert_eq!(
        TcProtocol::strong(&cfg).kind(),
        crate::ProtocolKind::TcStrong
    );
    assert_eq!(TcProtocol::weak(&cfg).kind(), crate::ProtocolKind::TcWeak);
}

#[test]
fn load_hits_until_physical_expiry() {
    let (mut rig, _) = strong(1, 50);
    let w = word(3, 0);
    rig.seed_dram(LineAddr(3), 0, 7);
    assert_eq!(rig.load_value(0, w), 7);
    let exp = rig.l1s[0].lease_exp(LineAddr(3)).unwrap();
    // Still valid before expiry…
    rig.step(10);
    let hits_before = rig.l1s[0].stats().load_hits;
    assert_eq!(rig.load_value(0, w), 7);
    assert_eq!(rig.l1s[0].stats().load_hits, hits_before + 1);
    // …self-invalidates after.
    rig.step(exp.raw() - rig.cycle.raw() + 1);
    assert_eq!(rig.load_value(0, w), 7);
    assert_eq!(rig.l1s[0].stats().expired_loads, 1);
    assert_eq!(rig.l1s[0].stats().self_invalidations, 1);
    rig.sb.assert_sc();
}

#[test]
fn tcs_store_stalls_until_lease_expires() {
    let (mut rig, _) = strong(2, 100);
    let w = word(2, 0);
    rig.load(0, w); // core 0 leases the line
    let exp = rig.l2.line_exp(LineAddr(2)).unwrap();
    // Core 1 stores: in TC-Strong the L2 parks it until the lease expires.
    let start = rig.cycle;
    let c = rig.store(1, w, 9);
    assert!(
        c.ts >= exp,
        "store applied at {} but the lease ran to {exp}",
        c.ts
    );
    assert!(rig.cycle.raw() >= exp.raw(), "real time had to pass");
    assert_eq!(rig.l2.stats().stalled_stores, 1);
    assert!(rig.l2.stats().store_stall_cycles >= exp.raw() - start.raw());
    rig.sb.assert_sc();
}

#[test]
fn tcs_store_without_sharers_is_fast() {
    let (mut rig, _) = strong(1, 100);
    let w = word(2, 0);
    let before = rig.cycle;
    rig.store(0, w, 9);
    // Only the (instant) fetch round trip; no lease to wait out.
    assert_eq!(rig.l2.stats().stalled_stores, 0);
    assert!(rig.cycle.raw() - before.raw() <= 2);
    rig.sb.assert_sc();
}

#[test]
fn tcw_store_acks_immediately_with_gwct() {
    let (mut rig, _) = weak(2, 100);
    let w = word(2, 0);
    rig.load(0, w); // core 0 leases the line
    let exp = rig.l2.line_exp(LineAddr(2)).unwrap();
    let start = rig.cycle;
    let c = rig.store(1, w, 9);
    assert!(
        rig.cycle.raw() - start.raw() <= 2,
        "TCW must not wait for the lease"
    );
    assert_eq!(
        c.ts, exp,
        "the ack carries the GWCT (last stale copy expiry)"
    );
    assert_eq!(rig.l2.stats().stalled_stores, 0);
}

#[test]
fn tcw_violates_write_atomicity() {
    // Core 0 holds a lease; core 1 writes (eagerly applied); core 2 then
    // loads from the L2 and sees the new value *before* the write's GWCT,
    // while core 0 can still read the old value — no single memory order
    // explains both, which is why TCW cannot support SC (Table I).
    let (mut rig, _) = weak(3, 200);
    let w = word(2, 0);
    rig.load(0, w);
    rig.store(1, w, 9);
    let hit = rig.load(0, w); // stale hit from core 0's lease
    assert_eq!(hit.kind, CompletionKind::LoadDone { value: 0 });
    let fresh = rig.load_value(2, w); // L2 miss for core 2 → current value
    assert_eq!(fresh, 9);
    let violations = rig.sb.check();
    assert!(
        !violations.is_empty(),
        "the scoreboard must flag the early-visible write"
    );
}

#[test]
fn tcs_atomics_wait_for_leases_and_serialize() {
    let (mut rig, _) = strong(2, 60);
    let w = word(4, 1);
    rig.load(0, w);
    let c = rig.atomic(1, w, AtomicOp::Add(5));
    assert_eq!(c.kind, CompletionKind::AtomicDone { old: 0 });
    let c = rig.atomic(0, w, AtomicOp::Add(3));
    assert_eq!(c.kind, CompletionKind::AtomicDone { old: 5 });
    assert_eq!(rig.load_value(1, w), 8);
    rig.sb.assert_sc();
}

#[test]
fn refetched_line_inherits_evicted_lease_bound() {
    // The physical-time analogue of RCC's mnow: after an eviction, a
    // refetched line is treated as leased until max_evicted_exp, so a
    // TCS store to it still waits for the stale copies.
    let (mut rig, cfg) = strong(1, 500);
    let sets = cfg.l2.partition.num_sets() as u64 * cfg.l2.num_partitions as u64;
    let ways = cfg.l2.partition.ways as u64;
    let w = word(0, 0);
    rig.load(0, w);
    let exp = rig.l2.line_exp(LineAddr(0)).unwrap();
    for i in 1..=ways {
        rig.load(0, word(i * sets, 0));
    }
    assert!(rig.l2.line_exp(LineAddr(0)).is_none(), "line evicted");
    // Store to the evicted line: refetch inherits the bound and parks.
    let c = rig.store(0, w, 3);
    assert!(c.ts >= exp, "write held until the evicted lease ran out");
    rig.sb.assert_sc();
}

#[test]
fn reads_merge_while_fetching() {
    let (mut rig, _) = strong(3, 100);
    rig.auto_dram = false;
    let w = word(5, 0);
    rig.seed_dram(LineAddr(5), 0, 4);
    for core in 0..3 {
        let o = rig.issue(
            core,
            Access {
                warp: WarpId(0),
                addr: w,
                kind: AccessKind::Load,
            },
        );
        assert_eq!(o, AccessOutcome::Pending);
        rig.pump();
    }
    assert_eq!(rig.pending_fetches.len(), 1, "one fetch serves all readers");
    let line = rig.pending_fetches.pop_front().unwrap();
    rig.fill_one(line);
    rig.pump();
    assert_eq!(rig.completions.len(), 3);
    for (_, c) in &rig.completions {
        assert_eq!(c.kind, CompletionKind::LoadDone { value: 4 });
    }
    rig.sb.assert_sc();
}

#[test]
fn write_to_missing_line_waits_for_fill() {
    let (mut rig, _) = strong(1, 100);
    rig.auto_dram = false;
    let w = word(6, 2);
    let o = rig.issue(
        0,
        Access {
            warp: WarpId(0),
            addr: w,
            kind: AccessKind::Store { value: 11 },
        },
    );
    assert_eq!(o, AccessOutcome::Pending);
    rig.pump();
    assert!(rig.completions.is_empty(), "no ack before the fill in TC");
    let line = rig.pending_fetches.pop_front().unwrap();
    rig.fill_one(line);
    rig.pump();
    assert_eq!(rig.completions.len(), 1);
    rig.auto_dram = true;
    assert_eq!(rig.load_value(0, w), 11);
    rig.sb.assert_sc();
}

#[test]
fn a_stalled_fill_wakes_the_bank_the_cycle_after_a_release_frees_its_way() {
    let mut cfg = cfg_with_lease(100);
    // One set of one way: every line competes for the same slot.
    cfg.l2.partition.ways = 1;
    cfg.l2.partition.size_bytes = cfg.l2.partition.line_bytes;
    let mut rig = Rig::new(&TcProtocol::strong(&cfg), &cfg, 2);
    let access = |warp, addr, kind| Access {
        warp: WarpId(warp),
        addr,
        kind,
    };
    rig.load(0, word(2, 0)); // core 0 leases line 2, in the only way
    rig.issue(1, access(0, word(2, 0), AccessKind::Store { value: 9 }));
    rig.pump(); // the store parks until the lease runs out
    let release = rig.l2.next_event(rig.cycle).expect("a parked store");
    rig.issue(1, access(1, word(3, 0), AccessKind::Load));
    rig.pump();
    assert!(
        rig.l2.line_exp(LineAddr(3)).is_none(),
        "line 3's fill stalls"
    );
    // No way can free before the release, so the bank sleeps until then
    // instead of retrying the fill every cycle.
    assert_eq!(rig.l2.next_event(rig.cycle), Some(release));
    rig.step(release.raw() - rig.cycle.raw());
    assert!(
        rig.l2.line_exp(LineAddr(3)).is_none(),
        "retried before the release"
    );
    assert_eq!(rig.l2.next_event(rig.cycle), Some(rig.cycle + 1));
    rig.step(1);
    assert!(rig.l2.line_exp(LineAddr(3)).is_some(), "the fill lands");
    rig.step(10);
    rig.sb.assert_sc();
}

#[test]
fn deferred_requests_preserve_order_behind_parked_store() {
    let (mut rig, _) = strong(3, 80);
    let w = word(7, 0);
    rig.load(0, w); // lease
    let base = rig.completions.len();
    // Park a store, then issue a load behind it — the load must defer and
    // observe the store's value (FIFO per line).
    let o = rig.issue(
        1,
        Access {
            warp: WarpId(0),
            addr: w,
            kind: AccessKind::Store { value: 5 },
        },
    );
    assert_eq!(o, AccessOutcome::Pending);
    rig.pump();
    let o = rig.issue(
        2,
        Access {
            warp: WarpId(0),
            addr: w,
            kind: AccessKind::Load,
        },
    );
    assert_eq!(o, AccessOutcome::Pending);
    rig.pump();
    assert_eq!(rig.completions.len(), base, "both wait for the lease");
    // Run time forward past the lease: store applies, then the load sees it.
    let exp = rig.l2.line_exp(LineAddr(7)).unwrap();
    rig.step(exp.raw() - rig.cycle.raw() + 2);
    assert_eq!(rig.completions.len(), base + 2);
    let (_, load_c) = rig.completions[base + 1];
    assert_eq!(load_c.kind, CompletionKind::LoadDone { value: 5 });
    rig.sb.assert_sc();
}

proptest::proptest! {
    #![proptest_config(proptest::prelude::ProptestConfig::with_cases(32))]

    /// TC-Strong executions are sequentially consistent under the naïve-SC
    /// issuance rule (one outstanding op per warp).
    #[test]
    fn tcs_random_traces_are_sequentially_consistent(
        seed in 0u64..500,
        ops in 30usize..100,
        cores in 2usize..4,
    ) {
        let (mut rig, _) = strong(cores, 40);
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
            // Sequential completion per op (single warp per core): the
            // rig steps time until each op finishes.
            rig.op(core, 0, w, kind);
            if i % 7 == 0 {
                rig.step(rng.below(30) + 1);
            }
        }
        rig.sb.assert_sc();
    }
}

#[test]
fn lifetime_predictor_grows_on_reads() {
    let (mut rig, cfg) = strong(1, 100);
    let w = word(11, 0);
    rig.load(0, w);
    let exp1 = rig.l2.line_exp(LineAddr(11)).unwrap();
    // Expire and re-read: the second lease must be longer than the first.
    rig.step(exp1.raw() - rig.cycle.raw() + 1);
    let t0 = rig.cycle.raw();
    rig.load(0, w);
    let exp2 = rig.l2.line_exp(LineAddr(11)).unwrap();
    assert!(
        exp2.raw() - t0 > cfg.tc.lease_cycles,
        "lease grew: {} vs initial {}",
        exp2.raw() - t0,
        cfg.tc.lease_cycles
    );
}

#[test]
fn lifetime_predictor_tcs_cuts_hard_on_write_conflict() {
    let (mut rig, cfg) = strong(2, 400);
    let w = word(12, 0);
    rig.load(0, w); // lease out
    rig.store(1, w, 1); // conflicts → waits, and ÷8 for the future
                        // The next lease must be much shorter than the default.
    let t0 = rig.cycle.raw();
    rig.load(0, w);
    let exp = rig.l2.line_exp(LineAddr(12)).unwrap();
    assert!(
        exp.raw() - t0 <= cfg.tc.lease_cycles / 4,
        "post-conflict lease {} should be well under {}",
        exp.raw() - t0,
        cfg.tc.lease_cycles
    );
}

#[test]
fn lifetime_predictor_tcw_trims_gently() {
    let (mut rig_s, cfg) = strong(2, 400);
    let (mut rig_w, _) = weak(2, 400);
    let w = word(12, 0);
    for rig in [&mut rig_s, &mut rig_w] {
        rig.load(0, w);
        rig.store(1, w, 1);
    }
    let t_s = rig_s.cycle.raw();
    rig_s.load(0, w);
    let lease_s = rig_s.l2.line_exp(LineAddr(12)).unwrap().raw() - t_s;
    let t_w = rig_w.cycle.raw();
    rig_w.load(0, w);
    let lease_w = rig_w
        .l2
        .line_exp(LineAddr(12))
        .unwrap()
        .raw()
        .saturating_sub(t_w);
    assert!(
        lease_w > lease_s,
        "TCW ({lease_w}) keeps longer leases than TCS ({lease_s}) after a conflict"
    );
    let _ = cfg;
}
