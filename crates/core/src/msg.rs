//! Coherence messages and core↔L1 interface types.
//!
//! A warp-level memory access is *line-granular in traffic* (a fully
//! coalesced warp touches a whole 128-byte line, so data-carrying messages
//! are billed 34 flits) but *word-granular in value tracking* (the
//! consistency scoreboard follows one representative 4-byte word per
//! access), which is exactly the granularity at which the paper's `bfs`
//! false-sharing discussion operates.

use rcc_common::addr::{LineAddr, WordAddr, LINE_BYTES};
use rcc_common::ids::{CoreId, PartitionId, WarpId};
use rcc_common::stats::MsgClass;
use rcc_common::time::Timestamp;
use rcc_mem::LineData;
use std::fmt;

/// Unique identifier for an outstanding L1 request, echoed in store acks
/// and atomic replies so completions match their originating accesses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct ReqId(pub u64);

/// Atomic read-modify-write operations supported by the L2.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AtomicOp {
    /// Fetch-and-add.
    Add(u64),
    /// Exchange (swap).
    Exch(u64),
    /// Compare-and-swap: store `new` iff the current value equals `expect`.
    Cas {
        /// Expected current value.
        expect: u64,
        /// Value stored on success.
        new: u64,
    },
    /// Atomic read (used by spin loops that must observe the latest value;
    /// always serviced at the L2, never from a stale L1 copy).
    Read,
}

impl AtomicOp {
    /// The new memory value after applying this operation to `old`.
    pub fn apply(self, old: u64) -> u64 {
        match self {
            AtomicOp::Add(v) => old.wrapping_add(v),
            AtomicOp::Exch(v) => v,
            AtomicOp::Cas { expect, new } => {
                if old == expect {
                    new
                } else {
                    old
                }
            }
            AtomicOp::Read => old,
        }
    }

    /// Whether applying to `old` modifies memory.
    pub fn mutates(self, old: u64) -> bool {
        self.apply(old) != old
    }
}

/// One warp-level memory access presented to the L1.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Access {
    /// Issuing warp.
    pub warp: WarpId,
    /// The tracked word.
    pub addr: WordAddr,
    /// Operation.
    pub kind: AccessKind,
}

/// The operation performed by an [`Access`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccessKind {
    /// Read one word.
    Load,
    /// Write one word (write-through).
    Store {
        /// Value written.
        value: u64,
    },
    /// Atomic read-modify-write, performed at the L2.
    Atomic {
        /// The operation.
        op: AtomicOp,
    },
}

impl AccessKind {
    /// Whether this access is a store or atomic (acquires write "permission").
    pub fn is_write_like(self) -> bool {
        !matches!(self, AccessKind::Load)
    }

    /// Variant name, matching the identifiers in this file (used by the
    /// transition-coverage bridge between `rcc-verify` and `rcc-lint`).
    pub fn variant_name(&self) -> &'static str {
        match self {
            AccessKind::Load => "Load",
            AccessKind::Store { .. } => "Store",
            AccessKind::Atomic { .. } => "Atomic",
        }
    }
}

/// Outcome of presenting an [`Access`] to the L1.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AccessOutcome {
    /// Completed immediately (e.g. an L1 load hit).
    Done(Completion),
    /// Accepted; a [`Completion`] will be delivered later.
    Pending,
    /// Structural hazard — the issuing warp must retry next cycle.
    Reject(RejectReason),
}

/// Why an access could not be accepted this cycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RejectReason {
    /// L1 MSHRs exhausted.
    MshrFull,
    /// Merge list of the line's MSHR entry is full.
    MergeFull,
    /// The line is in a transient state that cannot accept this operation.
    TransientState,
    /// Chaos injection: the access was bounced for one cycle to model a
    /// variable hit latency (never produced without a chaos profile).
    ChaosStall,
}

/// Completion notice delivered to the core when a memory access finishes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Completion {
    /// Warp whose access completed.
    pub warp: WarpId,
    /// Word accessed.
    pub addr: WordAddr,
    /// What completed and the observed/returned data.
    pub kind: CompletionKind,
    /// The access's position in the protocol's global memory order:
    /// logical time for RCC, physical L2-service time for TC/MESI. For
    /// TC-Weak stores this is the *global write completion time* (GWCT)
    /// that fences must wait on.
    pub ts: Timestamp,
    /// Tiebreaker among same-`ts` writes: L2 service sequence number
    /// within the owning partition (0 for loads that hit in the L1).
    pub seq: u64,
}

/// Kind-specific completion payload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CompletionKind {
    /// Load observed `value`.
    LoadDone {
        /// Observed value.
        value: u64,
    },
    /// Store became (logically) globally visible.
    StoreDone,
    /// Atomic performed; `old` is the pre-operation value.
    AtomicDone {
        /// Value read by the read-modify-write.
        old: u64,
    },
}

/// A request travelling from an L1 to an L2 partition.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReqMsg {
    /// Originating core.
    pub src: CoreId,
    /// Target line.
    pub line: LineAddr,
    /// Request id echoed by write acks and atomic replies.
    pub id: ReqId,
    /// Payload.
    pub payload: ReqPayload,
}

/// Request payloads (Fig. 5 left column plus baseline-protocol messages).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ReqPayload {
    /// Read request. `renew_exp` carries the expiration of an expired lease
    /// the L1 still holds data for, enabling the RENEW optimization
    /// (Section III-E); `None` for cold misses.
    Gets {
        /// Requesting core's logical/physical `now`.
        now: Timestamp,
        /// Expired lease's `exp`, if the L1 retains the data.
        renew_exp: Option<Timestamp>,
    },
    /// Write-through store of one word.
    Write {
        /// Writing core's `now` (RCC rule 2/3 input).
        now: Timestamp,
        /// Word index within the line.
        word: usize,
        /// Value stored.
        value: u64,
    },
    /// Atomic read-modify-write of one word.
    Atomic {
        /// Core's `now`.
        now: Timestamp,
        /// Word index within the line.
        word: usize,
        /// Operation.
        op: AtomicOp,
    },
    /// Invalidation acknowledgement (MESI only).
    InvAck,
    /// Rollover flush acknowledgement (RCC only, Section III-D).
    FlushAck,
    /// Request exclusive (writable) ownership of a line (MESI-WB only).
    GetX {
        /// Requesting core's clock (unused by the directory; kept for
        /// symmetry with GETS).
        now: Timestamp,
    },
    /// A dirty line written back to the L2 — voluntarily on eviction or
    /// in answer to a [`RespPayload::Recall`] (MESI-WB only).
    WbData {
        /// The dirty line contents, boxed so the request stays small.
        data: Box<LineData>,
        /// The owner's last write slot for this line; the directory
        /// absorbs it into its service counter so post-recall services
        /// order after every local store.
        last_seq: u64,
    },
}

impl ReqPayload {
    /// Traffic class for accounting and virtual-channel assignment.
    pub fn class(&self) -> MsgClass {
        match self {
            ReqPayload::Gets { .. } => MsgClass::LoadReq,
            ReqPayload::Write { .. } => MsgClass::StoreReq,
            ReqPayload::Atomic { .. } => MsgClass::AtomicReq,
            ReqPayload::InvAck => MsgClass::InvAck,
            ReqPayload::FlushAck => MsgClass::Flush,
            ReqPayload::GetX { .. } => MsgClass::LoadReq,
            ReqPayload::WbData { .. } => MsgClass::Writeback,
        }
    }

    /// Variant name, matching the identifiers in this file (used by the
    /// transition-coverage bridge between `rcc-verify` and `rcc-lint`).
    pub fn variant_name(&self) -> &'static str {
        match self {
            ReqPayload::Gets { .. } => "Gets",
            ReqPayload::Write { .. } => "Write",
            ReqPayload::Atomic { .. } => "Atomic",
            ReqPayload::InvAck => "InvAck",
            ReqPayload::FlushAck => "FlushAck",
            ReqPayload::GetX { .. } => "GetX",
            ReqPayload::WbData { .. } => "WbData",
        }
    }
}

/// A response travelling from an L2 partition to an L1.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RespMsg {
    /// Destination core.
    pub dst: CoreId,
    /// Subject line.
    pub line: LineAddr,
    /// Echo of the request id (writes/atomics), `ReqId(0)` otherwise.
    pub id: ReqId,
    /// Payload.
    pub payload: RespPayload,
}

/// Response payloads (Fig. 5 right column plus baseline-protocol messages).
///
/// The line of `Data` and `DataEx` is boxed: the NoC bills it 34 flits,
/// but the simulator moves only a pointer at each hop.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RespPayload {
    /// Full line of data with its version and lease expiration.
    Data {
        /// Line contents.
        data: Box<LineData>,
        /// Last-write logical time (RCC) / bank service time (TC, MESI).
        ver: Timestamp,
        /// Lease expiration granted to this reader.
        exp: Timestamp,
        /// Bank service sequence number — sub-cycle ordering for the
        /// physically-timed protocols (0 for RCC, whose logical `ver`
        /// already orders same-time events).
        seq: u64,
    },
    /// Lease renewal: new expiration, no data (RCC, Section III-E).
    Renew {
        /// New lease expiration.
        exp: Timestamp,
    },
    /// Store acknowledgement: the write's position in global order.
    StoreAck {
        /// Write version (RCC) / completion or GWCT time (TC) — see
        /// [`Completion::ts`].
        ver: Timestamp,
        /// Partition-local write sequence number.
        seq: u64,
    },
    /// Atomic reply: pre-operation value plus write position.
    AtomicResp {
        /// Value read.
        value: u64,
        /// Version assigned to the atomic's write.
        ver: Timestamp,
        /// Partition-local write sequence number.
        seq: u64,
    },
    /// Invalidate the L1 copy (MESI; also SC-IDEAL's zero-cost magic
    /// invalidation, which bypasses the network).
    Inv,
    /// Rollover flush request (RCC only).
    Flush,
    /// Exclusive data grant: the line plus write ownership (MESI-WB).
    DataEx {
        /// Line contents.
        data: Box<LineData>,
        /// Directory service slot (sub-cycle ordering).
        seq: u64,
    },
    /// Surrender a modified line: reply with [`ReqPayload::WbData`] and
    /// drop to Invalid (MESI-WB).
    Recall,
    /// Acknowledges a voluntary writeback (MESI-WB).
    WbAck,
}

impl RespPayload {
    /// Traffic class for accounting and virtual-channel assignment.
    pub fn class(&self) -> MsgClass {
        match self {
            RespPayload::Data { .. } => MsgClass::LoadData,
            RespPayload::Renew { .. } => MsgClass::Renew,
            RespPayload::StoreAck { .. } => MsgClass::StoreAck,
            RespPayload::AtomicResp { .. } => MsgClass::AtomicResp,
            RespPayload::Inv => MsgClass::Inv,
            RespPayload::Flush => MsgClass::Flush,
            RespPayload::DataEx { .. } => MsgClass::LoadData,
            RespPayload::Recall => MsgClass::Inv,
            RespPayload::WbAck => MsgClass::StoreAck,
        }
    }

    /// Variant name, matching the identifiers in this file (used by the
    /// transition-coverage bridge between `rcc-verify` and `rcc-lint`).
    pub fn variant_name(&self) -> &'static str {
        match self {
            RespPayload::Data { .. } => "Data",
            RespPayload::Renew { .. } => "Renew",
            RespPayload::StoreAck { .. } => "StoreAck",
            RespPayload::AtomicResp { .. } => "AtomicResp",
            RespPayload::Inv => "Inv",
            RespPayload::Flush => "Flush",
            RespPayload::DataEx { .. } => "DataEx",
            RespPayload::Recall => "Recall",
            RespPayload::WbAck => "WbAck",
        }
    }
}

/// Number of flits a message of class `class` occupies, given the NoC flit
/// size in bytes and a fixed `control_bytes` header.
///
/// Data-carrying classes serialize a full cache line behind the header; a
/// coalesced warp store also writes a full line's worth of bytes through,
/// so `StoreReq` is data-sized (this matches the TC paper's accounting).
pub fn flits_for(class: MsgClass, flit_bytes: usize, control_bytes: usize) -> u64 {
    let header = control_bytes.div_ceil(flit_bytes) as u64;
    if class.carries_line() {
        header + (LINE_BYTES as usize).div_ceil(flit_bytes) as u64
    } else if matches!(class, MsgClass::AtomicReq | MsgClass::AtomicResp) {
        header + 1
    } else {
        header
    }
}

/// Identifies a protocol agent endpoint, for message routing.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Node {
    /// A core / its L1.
    Core(CoreId),
    /// An L2 partition.
    L2(PartitionId),
}

impl fmt::Display for Node {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Node::Core(c) => write!(f, "{c}"),
            Node::L2(p) => write!(f, "{p}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn atomic_ops_apply() {
        assert_eq!(AtomicOp::Add(3).apply(4), 7);
        assert_eq!(AtomicOp::Exch(9).apply(4), 9);
        assert_eq!(AtomicOp::Cas { expect: 4, new: 8 }.apply(4), 8);
        assert_eq!(AtomicOp::Cas { expect: 5, new: 8 }.apply(4), 4);
        assert_eq!(AtomicOp::Read.apply(4), 4);
    }

    #[test]
    fn atomic_mutates() {
        assert!(AtomicOp::Add(1).mutates(0));
        assert!(!AtomicOp::Add(0).mutates(5));
        assert!(!AtomicOp::Read.mutates(5));
        assert!(!AtomicOp::Cas { expect: 1, new: 2 }.mutates(0));
    }

    #[test]
    fn payload_classes() {
        let gets = ReqPayload::Gets {
            now: Timestamp(0),
            renew_exp: None,
        };
        assert_eq!(gets.class(), MsgClass::LoadReq);
        assert_eq!(
            ReqPayload::Write {
                now: Timestamp(0),
                word: 0,
                value: 0
            }
            .class(),
            MsgClass::StoreReq
        );
        assert_eq!(RespPayload::Inv.class(), MsgClass::Inv);
        assert_eq!(
            RespPayload::Renew { exp: Timestamp(1) }.class(),
            MsgClass::Renew
        );
    }

    #[test]
    fn flit_sizes_match_table_iii_geometry() {
        // 4-byte flits, 8-byte control header.
        assert_eq!(flits_for(MsgClass::LoadReq, 4, 8), 2);
        assert_eq!(flits_for(MsgClass::LoadData, 4, 8), 2 + 32);
        assert_eq!(flits_for(MsgClass::StoreReq, 4, 8), 2 + 32);
        assert_eq!(flits_for(MsgClass::StoreAck, 4, 8), 2);
        assert_eq!(flits_for(MsgClass::AtomicReq, 4, 8), 3);
        assert_eq!(flits_for(MsgClass::Inv, 4, 8), 2);
    }

    #[test]
    fn messages_carry_their_line_by_reference() {
        // A message moves by value through the outbox, the NoC lane, the
        // delivery buffer and the L2 delay pipe; an inline 256-byte line
        // made those moves most of the engine's copying.
        let (req, resp) = (size_of::<ReqMsg>(), size_of::<RespMsg>());
        assert!(req <= 64, "ReqMsg is {req} bytes; box any line it carries");
        assert!(
            resp <= 64,
            "RespMsg is {resp} bytes; box any line it carries"
        );
    }

    #[test]
    fn boxed_line_payloads_keep_their_debug_text() {
        // `state_digest` hashes this text, so boxing must not change it.
        let mut line = LineData::zeroed();
        line.set_word(3, 7);
        line.set_word(31, 0xbeef);
        let data = RespPayload::Data {
            data: line.boxed(),
            ver: Timestamp(5),
            exp: Timestamp(9),
            seq: 2,
        };
        assert_eq!(
            format!("{data:?}"),
            "Data { data: {3: 7, 31: 48879}, ver: Timestamp(5), exp: Timestamp(9), seq: 2 }"
        );
        let wb = ReqPayload::WbData {
            data: line.boxed(),
            last_seq: 4,
        };
        assert_eq!(
            format!("{wb:?}"),
            "WbData { data: {3: 7, 31: 48879}, last_seq: 4 }"
        );
        let ex = RespPayload::DataEx {
            data: line.boxed(),
            seq: 6,
        };
        assert_eq!(
            format!("{ex:?}"),
            "DataEx { data: {3: 7, 31: 48879}, seq: 6 }"
        );
    }

    #[test]
    fn write_like_taxonomy() {
        assert!(!AccessKind::Load.is_write_like());
        assert!(AccessKind::Store { value: 0 }.is_write_like());
        assert!(AccessKind::Atomic { op: AtomicOp::Read }.is_write_like());
    }
}
