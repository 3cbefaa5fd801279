//! Conformance tests for the TC controllers against the protocol rules
//! of Singh et al. (HPCA 2013) as summarized in the paper's Section II
//! and Table I: leases are granted in physical time, TC-Strong stores
//! wait out every lease before applying, TC-Weak stores apply eagerly
//! and return the GWCT.

use super::{StoreDiscipline, TcL1, TcL2, TcProtocol};
use crate::msg::{Access, AccessKind, AccessOutcome, ReqId, ReqMsg, ReqPayload, RespPayload};
use crate::protocol::{L1Cache, L1Outbox, L2Bank, L2Outbox, Protocol};
use rcc_common::addr::LineAddr;
use rcc_common::config::GpuConfig;
use rcc_common::ids::{CoreId, PartitionId, WarpId};
use rcc_common::time::{Cycle, Timestamp};

fn cfg() -> GpuConfig {
    GpuConfig::small() // tc.lease_cycles = 200
}

fn l1() -> TcL1 {
    TcProtocol::strong(&cfg()).make_l1(CoreId(0), &cfg())
}

fn l2(discipline: StoreDiscipline) -> TcL2 {
    match discipline {
        StoreDiscipline::StallUntilExpiry => {
            TcProtocol::strong(&cfg()).make_l2(PartitionId(0), &cfg())
        }
        StoreDiscipline::EagerWithGwct => TcProtocol::weak(&cfg()).make_l2(PartitionId(0), &cfg()),
    }
}

fn line() -> LineAddr {
    LineAddr(6)
}

fn gets(now: u64) -> ReqMsg {
    ReqMsg {
        src: CoreId(0),
        line: line(),
        id: ReqId(0),
        payload: ReqPayload::Gets {
            now: Timestamp(now),
            renew_exp: None,
        },
    }
}

fn write(now: u64, id: u64) -> ReqMsg {
    ReqMsg {
        src: CoreId(1),
        line: line(),
        id: ReqId(id),
        payload: ReqPayload::Write {
            now: Timestamp(now),
            word: 0,
            value: 9,
        },
    }
}

/// Fills the line into the L2 via a miss + DRAM response.
fn make_resident(bank: &mut TcL2, cycle: u64) -> L2Outbox {
    let mut out = L2Outbox::new();
    bank.handle_req(Cycle(cycle), gets(cycle), &mut out)
        .unwrap();
    assert_eq!(out.dram_fetch.len(), 1);
    let mut fill = L2Outbox::new();
    bank.handle_dram(Cycle(cycle), line(), Box::default(), &mut fill);
    fill
}

#[test]
fn leases_are_physical_and_grow_from_service_time() {
    let mut bank = l2(StoreDiscipline::StallUntilExpiry);
    make_resident(&mut bank, 0);
    let mut out = L2Outbox::new();
    bank.handle_req(Cycle(1000), gets(1000), &mut out).unwrap();
    match &out.to_l1[0].payload {
        RespPayload::Data { ver, exp, .. } => {
            assert_eq!(*ver, Timestamp(1000), "ver is the service cycle");
            assert!(
                exp.raw() >= 1000 + cfg().tc.lease_cycles,
                "lease runs forward from the service cycle"
            );
        }
        other => panic!("expected DATA, got {other:?}"),
    }
}

#[test]
fn tcs_store_parks_until_every_lease_expires() {
    let mut bank = l2(StoreDiscipline::StallUntilExpiry);
    make_resident(&mut bank, 0);
    let mut out = L2Outbox::new();
    bank.handle_req(Cycle(10), gets(10), &mut out).unwrap();
    let exp = bank.line_exp(line()).unwrap();
    // A store arriving well inside the lease produces no ack…
    let mut out = L2Outbox::new();
    bank.handle_req(Cycle(20), write(20, 5), &mut out).unwrap();
    assert!(out.to_l1.is_empty(), "TCS store must wait");
    assert_eq!(bank.stats().stalled_stores, 1);
    // …until the lease has run out.
    let mut out = L2Outbox::new();
    bank.tick(Cycle(exp.raw() - 1), &mut out);
    assert!(out.to_l1.is_empty(), "still leased");
    let mut out = L2Outbox::new();
    bank.tick(Cycle(exp.raw()), &mut out);
    assert_eq!(out.to_l1.len(), 1, "released at expiry");
    match &out.to_l1[0].payload {
        RespPayload::StoreAck { ver, .. } => assert!(ver.raw() >= exp.raw()),
        other => panic!("expected StoreAck, got {other:?}"),
    }
}

#[test]
fn tcw_store_acks_with_gwct_immediately() {
    let mut bank = l2(StoreDiscipline::EagerWithGwct);
    make_resident(&mut bank, 0);
    let mut out = L2Outbox::new();
    bank.handle_req(Cycle(10), gets(10), &mut out).unwrap();
    let exp = bank.line_exp(line()).unwrap();
    let mut out = L2Outbox::new();
    bank.handle_req(Cycle(20), write(20, 5), &mut out).unwrap();
    assert_eq!(out.to_l1.len(), 1, "TCW never waits");
    match &out.to_l1[0].payload {
        RespPayload::StoreAck { ver, .. } => {
            assert_eq!(*ver, exp, "the ack carries the GWCT — the lease expiry");
        }
        other => panic!("expected StoreAck, got {other:?}"),
    }
    assert_eq!(bank.stats().stalled_stores, 0);
}

#[test]
fn l1_self_invalidates_at_expiry_without_traffic() {
    let mut c = l1();
    let mut bank = l2(StoreDiscipline::StallUntilExpiry);
    // Load through the L1 so it caches with a lease.
    let mut out = L1Outbox::new();
    let o = c.access(
        Cycle(0),
        Access {
            warp: WarpId(0),
            addr: line().word(0),
            kind: AccessKind::Load,
        },
        &mut out,
    );
    assert_eq!(o, AccessOutcome::Pending);
    let mut l2out = L2Outbox::new();
    for req in out.to_l2 {
        bank.handle_req(Cycle(0), req, &mut l2out).unwrap();
    }
    let mut fill = L2Outbox::new();
    bank.handle_dram(Cycle(0), line(), Box::default(), &mut fill);
    let mut out = L1Outbox::new();
    for resp in fill.to_l1 {
        c.handle_resp(Cycle(0), resp, &mut out);
    }
    let exp = c.lease_exp(line()).unwrap();
    // Within the lease: hit. Past it: self-invalidation, no messages.
    let mut out = L1Outbox::new();
    let o = c.access(
        Cycle(exp.raw() - 1),
        Access {
            warp: WarpId(1),
            addr: line().word(0),
            kind: AccessKind::Load,
        },
        &mut out,
    );
    assert!(matches!(o, AccessOutcome::Done(_)), "still leased");
    let mut out = L1Outbox::new();
    let o = c.access(
        Cycle(exp.raw()),
        Access {
            warp: WarpId(2),
            addr: line().word(0),
            kind: AccessKind::Load,
        },
        &mut out,
    );
    assert_eq!(o, AccessOutcome::Pending, "expired → refetch");
    assert_eq!(c.stats().self_invalidations, 1);
    assert_eq!(
        out.to_l2.len(),
        1,
        "exactly one GETS, no invalidation traffic"
    );
}

#[test]
fn refetched_lines_inherit_the_evicted_lease_bound() {
    // The physical-time analogue of RCC's mnow (module docs of crate::tc).
    let machine = cfg();
    let stride = machine.l2.num_partitions as u64;
    let sets = machine.l2.partition.num_sets() as u64 * stride;
    let mut bank = l2(StoreDiscipline::StallUntilExpiry);
    make_resident(&mut bank, 0);
    let mut out = L2Outbox::new();
    bank.handle_req(Cycle(5), gets(5), &mut out).unwrap();
    let exp = bank.line_exp(line()).unwrap();
    // Displace it.
    for i in 1..=machine.l2.partition.ways as u64 {
        let other = LineAddr(line().0 + i * sets);
        let mut out = L2Outbox::new();
        bank.handle_req(
            Cycle(6),
            ReqMsg {
                src: CoreId(0),
                line: other,
                id: ReqId(0),
                payload: ReqPayload::Gets {
                    now: Timestamp(6),
                    renew_exp: None,
                },
            },
            &mut out,
        )
        .unwrap();
        bank.handle_dram(Cycle(6), other, Box::default(), &mut L2Outbox::new());
    }
    assert!(bank.line_exp(line()).is_none(), "evicted");
    // Refetch: inherited exp ≥ the evicted lease.
    let fill = make_resident(&mut bank, 7);
    let _ = fill;
    assert!(bank.line_exp(line()).unwrap() >= exp);
}
