//! Conformance tests for the MESI directory against the
//! invalidate-collect-apply discipline the paper's baseline requires.

use super::{MesiL2, MesiProtocol};
use crate::msg::{ReqId, ReqMsg, ReqPayload, RespMsg, RespPayload};
use crate::protocol::{L2Bank, L2Outbox, Protocol};
use rcc_common::addr::LineAddr;
use rcc_common::config::GpuConfig;
use rcc_common::ids::{CoreId, PartitionId};
use rcc_common::time::{Cycle, Timestamp};

fn cfg() -> GpuConfig {
    GpuConfig::small()
}

fn bank() -> MesiL2 {
    MesiProtocol::new(&cfg()).make_l2(PartitionId(0), &cfg())
}

fn line() -> LineAddr {
    LineAddr(9)
}

fn gets(src: usize) -> ReqMsg {
    ReqMsg {
        src: CoreId(src),
        line: line(),
        id: ReqId(0),
        payload: ReqPayload::Gets {
            now: Timestamp(0),
            renew_exp: None,
        },
    }
}

fn write(src: usize, id: u64, value: u64) -> ReqMsg {
    ReqMsg {
        src: CoreId(src),
        line: line(),
        id: ReqId(id),
        payload: ReqPayload::Write {
            now: Timestamp(0),
            word: 0,
            value,
        },
    }
}

fn inv_ack(src: usize) -> ReqMsg {
    ReqMsg {
        src: CoreId(src),
        line: line(),
        id: ReqId(0),
        payload: ReqPayload::InvAck,
    }
}

fn make_resident(b: &mut MesiL2, readers: &[usize]) {
    let mut out = L2Outbox::new();
    b.handle_req(Cycle(0), gets(readers[0]), &mut out).unwrap();
    b.handle_dram(Cycle(0), line(), Box::default(), &mut L2Outbox::new());
    for r in &readers[1..] {
        b.handle_req(Cycle(0), gets(*r), &mut L2Outbox::new())
            .unwrap();
    }
}

fn invs_in(out: &L2Outbox) -> Vec<usize> {
    out.to_l1
        .iter()
        .filter(|m| matches!(m.payload, RespPayload::Inv))
        .map(|m| m.dst.index())
        .collect()
}

#[test]
fn store_sends_inv_to_every_sharer_and_withholds_the_ack() {
    let mut b = bank();
    make_resident(&mut b, &[0, 1, 2]);
    assert_eq!(b.sharer_count(line()), Some(3));
    let mut out = L2Outbox::new();
    b.handle_req(Cycle(10), write(3, 7, 42), &mut out).unwrap();
    let mut invs = invs_in(&out);
    invs.sort_unstable();
    assert_eq!(invs, vec![0, 1, 2]);
    assert!(
        !out.to_l1
            .iter()
            .any(|m| matches!(m.payload, RespPayload::StoreAck { .. })),
        "no ack before the invalidations are collected"
    );
    // Two acks: still waiting. Third: apply + ack.
    for (i, src) in [0usize, 1].iter().enumerate() {
        let mut out = L2Outbox::new();
        b.handle_req(Cycle(20 + i as u64), inv_ack(*src), &mut out)
            .unwrap();
        assert!(out.to_l1.is_empty(), "ack {i} must not release the store");
    }
    let mut out = L2Outbox::new();
    b.handle_req(Cycle(30), inv_ack(2), &mut out).unwrap();
    match &out.to_l1[0].payload {
        RespPayload::StoreAck { ver, .. } => {
            assert_eq!(*ver, Timestamp(30), "ordered at the collect-complete cycle")
        }
        other => panic!("expected StoreAck, got {other:?}"),
    }
    assert_eq!(b.stats().invs_sent, 3);
    assert!(b.stats().store_stall_cycles >= 20);
}

#[test]
fn requests_defer_while_invalidations_are_outstanding() {
    let mut b = bank();
    make_resident(&mut b, &[0]);
    let mut out = L2Outbox::new();
    b.handle_req(Cycle(0), write(1, 7, 42), &mut out).unwrap();
    assert_eq!(invs_in(&out).len(), 1);
    // A GETS for the same line must not be served mid-transaction.
    let mut out = L2Outbox::new();
    b.handle_req(Cycle(1), gets(2), &mut out).unwrap();
    assert!(out.to_l1.is_empty(), "deferred behind the pending write");
    // Completing the inv releases the write, then serves the reader
    // with the new value.
    let mut out = L2Outbox::new();
    b.handle_req(Cycle(2), inv_ack(0), &mut out).unwrap();
    let kinds: Vec<&RespMsg> = out.to_l1.iter().collect();
    assert!(matches!(kinds[0].payload, RespPayload::StoreAck { .. }));
    match &kinds[1].payload {
        RespPayload::Data { data, .. } => {
            assert_eq!(data.word(0), 42, "the deferred reader sees the write")
        }
        other => panic!("expected DATA, got {other:?}"),
    }
}

#[test]
fn store_with_only_stale_sharers_still_collects_acks() {
    // Sharer bits can be stale after silent L1 evictions — the directory
    // must still collect the (spurious) acks before applying.
    let mut b = bank();
    make_resident(&mut b, &[0]);
    let mut out = L2Outbox::new();
    b.handle_req(Cycle(0), write(0, 7, 1), &mut out).unwrap();
    // Writer was the only (self) sharer: the inv goes to core 0 itself.
    assert_eq!(invs_in(&out), vec![0]);
    let mut out = L2Outbox::new();
    b.handle_req(Cycle(1), inv_ack(0), &mut out).unwrap();
    assert!(matches!(out.to_l1[0].payload, RespPayload::StoreAck { .. }));
}

#[test]
fn atomic_follows_the_same_invalidate_discipline() {
    let mut b = bank();
    make_resident(&mut b, &[0, 1]);
    let mut out = L2Outbox::new();
    b.handle_req(
        Cycle(0),
        ReqMsg {
            src: CoreId(2),
            line: line(),
            id: ReqId(9),
            payload: ReqPayload::Atomic {
                now: Timestamp(0),
                word: 0,
                op: crate::msg::AtomicOp::Add(5),
            },
        },
        &mut out,
    )
    .unwrap();
    assert_eq!(invs_in(&out).len(), 2);
    b.handle_req(Cycle(1), inv_ack(0), &mut L2Outbox::new())
        .unwrap();
    let mut out = L2Outbox::new();
    b.handle_req(Cycle(2), inv_ack(1), &mut out).unwrap();
    assert!(matches!(
        out.to_l1[0].payload,
        RespPayload::AtomicResp { value: 0, .. }
    ));
}
