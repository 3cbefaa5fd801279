//! Conformance tests against Fig. 5 of the paper: every cell of the L1
//! and L2 transition tables is exercised and its actions/next-state are
//! asserted.
//!
//! The tests drive the controllers into each (state, event) combination
//! with a minimal message sequence and then check:
//! * the derived state after the event (`RccL1::derived_state`),
//! * the messages generated (GETS/WRITE/ATOMIC with the right clocks;
//!   DATA/RENEW/ACK with the right `ver`/`exp`),
//! * the timestamp updates prescribed by the cell.

use super::l1::{L1State, RccL1, ViewMode};
use super::l2::RccL2;
use crate::msg::{
    Access, AccessKind, AccessOutcome, AtomicOp, ReqId, ReqMsg, ReqPayload, RespMsg, RespPayload,
};
use crate::protocol::{L1Cache, L1Outbox, L2Bank, L2Outbox};
use rcc_common::addr::LineAddr;
use rcc_common::config::{GpuConfig, RccParams};
use rcc_common::ids::{CoreId, PartitionId, WarpId};
use rcc_common::time::{Cycle, Timestamp};
use rcc_mem::LineData;

const LEASE: u64 = 10;

fn params() -> RccParams {
    RccParams {
        fixed_lease: Some(LEASE),
        ..RccParams::default()
    }
}

fn l1() -> RccL1 {
    RccL1::new(CoreId(0), &GpuConfig::small(), params(), ViewMode::Sc)
}

fn l2() -> RccL2 {
    RccL2::new(PartitionId(0), &GpuConfig::small(), params())
}

fn line() -> LineAddr {
    LineAddr(4)
}

fn load(l1: &mut RccL1, out: &mut L1Outbox) -> AccessOutcome {
    l1.access(
        Cycle(0),
        Access {
            warp: WarpId(0),
            addr: line().word(0),
            kind: AccessKind::Load,
        },
        out,
    )
}

fn store(l1: &mut RccL1, warp: usize, out: &mut L1Outbox) -> AccessOutcome {
    l1.access(
        Cycle(0),
        Access {
            warp: WarpId(warp),
            addr: line().word(0),
            kind: AccessKind::Store { value: 1 },
        },
        out,
    )
}

fn data_resp(ver: u64, exp: u64) -> RespMsg {
    RespMsg {
        dst: CoreId(0),
        line: line(),
        id: ReqId(0),
        payload: RespPayload::Data {
            data: Box::default(),
            ver: Timestamp(ver),
            exp: Timestamp(exp),
            seq: 1,
        },
    }
}

fn ack_resp(id: ReqId, ver: u64) -> RespMsg {
    RespMsg {
        dst: CoreId(0),
        line: line(),
        id,
        payload: RespPayload::StoreAck {
            ver: Timestamp(ver),
            seq: 1,
        },
    }
}

fn sent_write_id(out: &L1Outbox) -> ReqId {
    out.to_l2
        .iter()
        .find_map(|m| match m.payload {
            ReqPayload::Write { .. } => Some(m.id),
            _ => None,
        })
        .expect("a WRITE was sent")
}

#[cfg(test)]
mod l1_table {
    use super::*;

    /// I + load → GETS{now, exp=None}, → IV.
    #[test]
    fn i_load_sends_gets_to_iv() {
        let mut c = l1();
        let mut out = L1Outbox::new();
        assert_eq!(c.derived_state(line()), L1State::I);
        assert_eq!(load(&mut c, &mut out), AccessOutcome::Pending);
        assert_eq!(c.derived_state(line()), L1State::Iv);
        match &out.to_l2[0].payload {
            ReqPayload::Gets { now, renew_exp } => {
                assert_eq!(*now, Timestamp(0));
                assert_eq!(*renew_exp, None, "cold miss carries no renew hint");
            }
            other => panic!("expected GETS, got {other:?}"),
        }
    }

    /// I + store → WRITE{now}, → II.
    #[test]
    fn i_store_sends_write_to_ii() {
        let mut c = l1();
        let mut out = L1Outbox::new();
        assert_eq!(store(&mut c, 0, &mut out), AccessOutcome::Pending);
        assert_eq!(c.derived_state(line()), L1State::Ii);
        assert!(matches!(
            out.to_l2[0].payload,
            ReqPayload::Write {
                now: Timestamp(0),
                ..
            }
        ));
    }

    /// I + atomic → ATOMIC{now}, → II.
    #[test]
    fn i_atomic_sends_atomic_to_ii() {
        let mut c = l1();
        let mut out = L1Outbox::new();
        let o = c.access(
            Cycle(0),
            Access {
                warp: WarpId(0),
                addr: line().word(0),
                kind: AccessKind::Atomic {
                    op: AtomicOp::Add(1),
                },
            },
            &mut out,
        );
        assert_eq!(o, AccessOutcome::Pending);
        assert_eq!(c.derived_state(line()), L1State::Ii);
        assert!(matches!(out.to_l2[0].payload, ReqPayload::Atomic { .. }));
    }

    /// V + load → cache hit (no messages).
    #[test]
    fn v_load_hits() {
        let mut c = l1();
        c.install_line(line(), LineData::zeroed(), Timestamp(9));
        let mut out = L1Outbox::new();
        assert!(matches!(load(&mut c, &mut out), AccessOutcome::Done(_)));
        assert!(out.to_l2.is_empty());
        assert_eq!(c.derived_state(line()), L1State::V);
    }

    /// V + store → WRITE, → VI (still readable).
    #[test]
    fn v_store_goes_vi() {
        let mut c = l1();
        c.install_line(line(), LineData::zeroed(), Timestamp(9));
        let mut out = L1Outbox::new();
        store(&mut c, 0, &mut out);
        assert_eq!(c.derived_state(line()), L1State::Vi);
    }

    /// V + expiry → treated as I for memory operations.
    #[test]
    fn v_expiry_treated_as_i() {
        let mut c = l1();
        c.install_line(line(), LineData::zeroed(), Timestamp(5));
        c.advance_now(Timestamp(6));
        assert_eq!(c.derived_state(line()), L1State::VExpired);
        let mut out = L1Outbox::new();
        assert_eq!(load(&mut c, &mut out), AccessOutcome::Pending);
        // Expired-but-resident data produces a renewable GETS.
        assert!(matches!(
            out.to_l2[0].payload,
            ReqPayload::Gets {
                renew_exp: Some(Timestamp(5)),
                ..
            }
        ));
    }

    /// IV + load → merged into the MSHR, no second GETS.
    #[test]
    fn iv_load_merges() {
        let mut c = l1();
        let mut out = L1Outbox::new();
        load(&mut c, &mut out);
        let msgs_before = out.to_l2.len();
        let o = c.access(
            Cycle(0),
            Access {
                warp: WarpId(1),
                addr: line().word(1),
                kind: AccessKind::Load,
            },
            &mut out,
        );
        assert_eq!(o, AccessOutcome::Pending);
        assert_eq!(out.to_l2.len(), msgs_before, "no extra GETS");
        assert_eq!(c.derived_state(line()), L1State::Iv);
    }

    /// IV + store → WRITE, → II.
    #[test]
    fn iv_store_goes_ii() {
        let mut c = l1();
        let mut out = L1Outbox::new();
        load(&mut c, &mut out);
        store(&mut c, 1, &mut out);
        assert_eq!(c.derived_state(line()), L1State::Ii);
    }

    /// IV + DATA → L1.now = max(L1.now, M.ver); D.exp = M.exp; → V.
    #[test]
    fn iv_data_fills_v_and_joins_clock() {
        let mut c = l1();
        let mut out = L1Outbox::new();
        load(&mut c, &mut out);
        let mut out = L1Outbox::new();
        c.handle_resp(Cycle(0), data_resp(7, 17), &mut out);
        assert_eq!(c.derived_state(line()), L1State::V);
        assert_eq!(c.now(), Timestamp(7), "rule 1");
        assert_eq!(c.lease_exp(line()), Some(Timestamp(17)));
        assert_eq!(out.completions.len(), 1);
    }

    /// IV + RENEW → D.exp = M.exp; → V (data already resident).
    #[test]
    fn iv_renew_revalidates() {
        let mut c = l1();
        c.install_line(line(), LineData::zeroed(), Timestamp(3));
        c.advance_now(Timestamp(4));
        let mut out = L1Outbox::new();
        load(&mut c, &mut out); // expired → GETS with renew hint
        let mut out = L1Outbox::new();
        c.handle_resp(
            Cycle(0),
            RespMsg {
                dst: CoreId(0),
                line: line(),
                id: ReqId(0),
                payload: RespPayload::Renew { exp: Timestamp(14) },
            },
            &mut out,
        );
        assert_eq!(c.derived_state(line()), L1State::V);
        assert_eq!(c.lease_exp(line()), Some(Timestamp(14)));
        assert_eq!(c.now(), Timestamp(4), "renew does not advance now");
        assert_eq!(out.completions.len(), 1);
        assert_eq!(c.stats().renewed_loads, 1);
    }

    /// II + DATA (read resp) with writes still pending → VI.
    #[test]
    fn ii_data_with_pending_writes_goes_vi() {
        let mut c = l1();
        let mut out = L1Outbox::new();
        store(&mut c, 0, &mut out); // II
        load(&mut c, &mut out); // GETS sent while in II
        let mut out = L1Outbox::new();
        c.handle_resp(Cycle(0), data_resp(2, 12), &mut out);
        assert_eq!(
            c.derived_state(line()),
            L1State::Vi,
            "MSHR not empty → VI per Fig. 5"
        );
    }

    /// II + ACK with MSHR empty → I (write-no-allocate).
    #[test]
    fn ii_ack_releases_to_i() {
        let mut c = l1();
        let mut out = L1Outbox::new();
        store(&mut c, 0, &mut out);
        let id = sent_write_id(&out);
        let mut out = L1Outbox::new();
        c.handle_resp(Cycle(0), ack_resp(id, 11), &mut out);
        assert_eq!(c.derived_state(line()), L1State::I);
        assert_eq!(c.now(), Timestamp(11), "L1.now = max(L1.now, M.ver)");
        assert_eq!(out.completions.len(), 1);
    }

    /// II + ACK with more writes pending → stays II.
    #[test]
    fn ii_ack_with_more_writes_stays_ii() {
        let mut c = l1();
        let mut out = L1Outbox::new();
        store(&mut c, 0, &mut out);
        store(&mut c, 1, &mut out);
        let id = sent_write_id(&out);
        let mut out = L1Outbox::new();
        c.handle_resp(Cycle(0), ack_resp(id, 11), &mut out);
        assert_eq!(c.derived_state(line()), L1State::Ii);
    }

    /// VI + load → cache hit from the still-valid copy.
    #[test]
    fn vi_load_hits() {
        let mut c = l1();
        c.install_line(line(), LineData::zeroed(), Timestamp(9));
        let mut out = L1Outbox::new();
        store(&mut c, 0, &mut out);
        assert_eq!(c.derived_state(line()), L1State::Vi);
        assert!(matches!(load(&mut c, &mut out), AccessOutcome::Done(_)));
    }

    /// VI + final ACK → I (Fig. 4: VI → I on ST reply).
    #[test]
    fn vi_final_ack_invalidates() {
        let mut c = l1();
        c.install_line(line(), LineData::zeroed(), Timestamp(9));
        let mut out = L1Outbox::new();
        store(&mut c, 0, &mut out);
        let id = sent_write_id(&out);
        let mut out = L1Outbox::new();
        c.handle_resp(Cycle(0), ack_resp(id, 10), &mut out);
        assert_eq!(c.derived_state(line()), L1State::I);
    }

    /// Eviction of a V line is silent (no coherence messages).
    #[test]
    fn v_eviction_is_silent() {
        let cfg = GpuConfig::small(); // L1: 8 sets × 4 ways
        let sets = cfg.l1.num_sets() as u64;
        let mut c = l1();
        let mut out = L1Outbox::new();
        for i in 0..=cfg.l1.ways as u64 {
            c.install_line(LineAddr(4 + i * sets), LineData::zeroed(), Timestamp(9));
        }
        assert!(out.to_l2.is_empty(), "self-invalidation needs no traffic");
        let _ = &mut out;
    }
}

#[cfg(test)]
mod l2_table {
    use super::*;

    fn gets(now: u64, renew: Option<u64>) -> ReqMsg {
        ReqMsg {
            src: CoreId(0),
            line: line(),
            id: ReqId(0),
            payload: ReqPayload::Gets {
                now: Timestamp(now),
                renew_exp: renew.map(Timestamp),
            },
        }
    }

    fn write(now: u64, id: u64) -> ReqMsg {
        ReqMsg {
            src: CoreId(0),
            line: line(),
            id: ReqId(id),
            payload: ReqPayload::Write {
                now: Timestamp(now),
                word: 0,
                value: 5,
            },
        }
    }

    fn atomic(now: u64, id: u64) -> ReqMsg {
        ReqMsg {
            src: CoreId(0),
            line: line(),
            id: ReqId(id),
            payload: ReqPayload::Atomic {
                now: Timestamp(now),
                word: 0,
                op: AtomicOp::Add(1),
            },
        }
    }

    /// GETS in I → DRAM FETCH, lastrd = M.now, → IV.
    #[test]
    fn gets_in_i_fetches() {
        let mut b = l2();
        let mut out = L2Outbox::new();
        b.handle_req(Cycle(0), gets(3, None), &mut out).unwrap();
        assert_eq!(out.dram_fetch, vec![line()]);
        assert!(out.to_l1.is_empty(), "readers wait for the fill");
        assert_eq!(b.pending(), 1);
    }

    /// GETS in V → D.exp = max(D.exp, D.ver+lease, M.now+lease); DATA.
    #[test]
    fn gets_in_v_extends_lease() {
        let mut b = l2();
        b.install_line(
            line(),
            LineData::zeroed(),
            Timestamp(6),
            Timestamp(8),
            LEASE,
        );
        let mut out = L2Outbox::new();
        b.handle_req(Cycle(0), gets(20, None), &mut out).unwrap();
        let (ver, exp) = b.line_times(line()).unwrap();
        assert_eq!(ver, Timestamp(6));
        assert_eq!(exp, Timestamp(30), "max(8, 6+10, 20+10)");
        assert!(matches!(
            out.to_l1[0].payload,
            RespPayload::Data {
                ver: Timestamp(6),
                exp: Timestamp(30),
                ..
            }
        ));
    }

    /// GETS in V with M.exp > D.ver → RENEW (no data).
    #[test]
    fn gets_renewable_sends_renew() {
        let mut b = l2();
        b.install_line(
            line(),
            LineData::zeroed(),
            Timestamp(6),
            Timestamp(8),
            LEASE,
        );
        let mut out = L2Outbox::new();
        b.handle_req(Cycle(0), gets(20, Some(8)), &mut out).unwrap();
        assert!(matches!(
            out.to_l1[0].payload,
            RespPayload::Renew { exp: Timestamp(30) }
        ));
        assert_eq!(b.stats().renews_granted, 1);
    }

    /// GETS in V with M.exp ≤ D.ver → full DATA (data changed).
    #[test]
    fn gets_stale_hint_sends_data() {
        let mut b = l2();
        b.install_line(
            line(),
            LineData::zeroed(),
            Timestamp(6),
            Timestamp(8),
            LEASE,
        );
        let mut out = L2Outbox::new();
        b.handle_req(Cycle(0), gets(20, Some(5)), &mut out).unwrap();
        assert!(matches!(out.to_l1[0].payload, RespPayload::Data { .. }));
        assert_eq!(b.stats().renews_granted, 0);
    }

    /// WRITE in V → D.ver = max(M.now, D.ver, D.exp+1); ACK{ver}.
    #[test]
    fn write_in_v_rule_2_and_3() {
        let mut b = l2();
        b.install_line(
            line(),
            LineData::zeroed(),
            Timestamp(6),
            Timestamp(8),
            LEASE,
        );
        let mut out = L2Outbox::new();
        b.handle_req(Cycle(0), write(3, 9), &mut out).unwrap();
        let (ver, _) = b.line_times(line()).unwrap();
        assert_eq!(ver, Timestamp(9), "max(3, 6, 8+1)");
        assert!(matches!(
            out.to_l1[0].payload,
            RespPayload::StoreAck {
                ver: Timestamp(9),
                ..
            }
        ));
    }

    /// WRITE in I → DRAM FETCH + immediate ACK{max(lastwr, mnow+1)}.
    #[test]
    fn write_in_i_acks_before_fill() {
        let mut b = l2();
        let mut out = L2Outbox::new();
        b.handle_req(Cycle(0), write(3, 9), &mut out).unwrap();
        assert_eq!(out.dram_fetch, vec![line()]);
        assert!(matches!(
            out.to_l1[0].payload,
            RespPayload::StoreAck {
                ver: Timestamp(3),
                ..
            }
        ));
    }

    /// WRITE in IV → merged into the MSHR + immediate ACK.
    #[test]
    fn write_in_iv_merges_and_acks() {
        let mut b = l2();
        let mut out = L2Outbox::new();
        b.handle_req(Cycle(0), gets(0, None), &mut out).unwrap();
        let mut out = L2Outbox::new();
        b.handle_req(Cycle(0), write(4, 9), &mut out).unwrap();
        assert!(out.dram_fetch.is_empty(), "no second fetch");
        assert!(matches!(out.to_l1[0].payload, RespPayload::StoreAck { .. }));
        // The fill must apply the merged write and serve the reader.
        let mut out = L2Outbox::new();
        b.handle_dram(Cycle(0), line(), Box::default(), &mut out);
        match &out.to_l1[0].payload {
            RespPayload::Data { data, ver, .. } => {
                assert_eq!(data.word(0), 5, "merged write visible to the reader");
                assert!(*ver >= Timestamp(4));
            }
            other => panic!("expected DATA, got {other:?}"),
        }
    }

    /// ATOMIC in I → IAV; further requests stall until the fill.
    #[test]
    fn atomic_in_i_goes_iav_and_stalls_others() {
        let mut b = l2();
        let mut out = L2Outbox::new();
        b.handle_req(Cycle(0), atomic(2, 9), &mut out).unwrap();
        assert_eq!(out.dram_fetch, vec![line()]);
        assert!(out.to_l1.is_empty(), "atomic needs the data first");
        // A GETS during IAV is deferred, not served.
        let mut out = L2Outbox::new();
        b.handle_req(Cycle(0), gets(0, None), &mut out).unwrap();
        assert!(out.to_l1.is_empty() && out.dram_fetch.is_empty());
        // The fill answers the atomic first, then the deferred GETS.
        let mut out = L2Outbox::new();
        b.handle_dram(Cycle(0), line(), Box::default(), &mut out);
        assert!(matches!(
            out.to_l1[0].payload,
            RespPayload::AtomicResp { .. }
        ));
        assert!(matches!(out.to_l1[1].payload, RespPayload::Data { .. }));
    }

    /// ATOMIC in V → D.ver advances past the lease; AtomicResp.
    #[test]
    fn atomic_in_v_serializes() {
        let mut b = l2();
        b.install_line(
            line(),
            LineData::zeroed(),
            Timestamp(6),
            Timestamp(8),
            LEASE,
        );
        let mut out = L2Outbox::new();
        b.handle_req(Cycle(0), atomic(2, 9), &mut out).unwrap();
        let (ver, _) = b.line_times(line()).unwrap();
        assert_eq!(ver, Timestamp(9), "max(2, 6, 8+1)");
        assert!(matches!(
            out.to_l1[0].payload,
            RespPayload::AtomicResp {
                value: 0,
                ver: Timestamp(9),
                ..
            }
        ));
    }

    /// Eviction: mnow = max(mnow, D.exp, D.ver); dirty lines write back.
    #[test]
    fn evict_absorbs_timestamps_into_mnow() {
        let cfg = GpuConfig::small();
        let stride = cfg.l2.num_partitions as u64;
        let sets = cfg.l2.partition.num_sets() as u64 * stride;
        let mut b = l2();
        b.install_line(
            line(),
            LineData::zeroed(),
            Timestamp(6),
            Timestamp(40),
            LEASE,
        );
        // Dirty it, then displace it with conflicting fills.
        let mut out = L2Outbox::new();
        b.handle_req(Cycle(0), write(3, 9), &mut out).unwrap();
        for i in 1..=cfg.l2.partition.ways as u64 {
            b.install_line(
                LineAddr(line().0 + i * sets),
                LineData::zeroed(),
                Timestamp(0),
                Timestamp(0),
                LEASE,
            );
        }
        assert!(b.line_times(line()).is_none(), "evicted");
        assert!(
            b.mnow() >= Timestamp(41),
            "mnow ≥ the write version (exp+1)"
        );
    }
}
