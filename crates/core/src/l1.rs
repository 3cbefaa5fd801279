//! The L1 skeleton: the MSHR admission, store-to-ack and access
//! bookkeeping every L1 controller shares.
//!
//! The controllers differ in when a resident line may be read and at
//! what position a hit sits, and in how the L1 reacts to each L2
//! message: RCC's read/write views, RENEW and rollover flush, TC's lease
//! refetch, MESI's invalidations, MESI-WB's ownership and writebacks,
//! SC-IDEAL's instant stores. They do not differ in how a miss or a store
//! takes an MSHR, how a store waits for its ack, or how an access is
//! counted. Those live here once, as functions over each controller's
//! own fields (the fields, and so the `Debug` text `state_digest`
//! hashes, stay the controller's), as the L2 side does in `bank.rs`.

use crate::msg::{
    Access, AccessKind, AccessOutcome, Completion, CompletionKind, RejectReason, ReqId, ReqMsg,
    ReqPayload,
};
use crate::protocol::{L1Outbox, L1Stats};
use rcc_common::addr::{LineAddr, WordAddr};
use rcc_common::config::GpuConfig;
use rcc_common::ids::{CoreId, WarpId};
use rcc_common::time::Timestamp;
use rcc_mem::{MshrFile, MshrRejection, TagArray};
use std::collections::VecDeque;

/// The tag array and MSHR file of one L1, sized from `cfg.l1`.
pub(crate) fn arrays<S, E>(cfg: &GpuConfig) -> (TagArray<S>, MshrFile<E>) {
    (
        TagArray::new(cfg.l1.num_sets(), cfg.l1.ways),
        MshrFile::new(cfg.l1.mshrs, cfg.l1.mshr_merge),
    )
}

/// Counts an access by its outcome, and hands the outcome back. An
/// accepted access counts by kind, and a load that completes at once is
/// a hit. A rejected access counts only as a reject: it retries, and is
/// counted by kind once it is accepted.
pub(crate) fn count(
    stats: &mut L1Stats,
    kind: AccessKind,
    outcome: AccessOutcome,
) -> AccessOutcome {
    match kind {
        _ if matches!(outcome, AccessOutcome::Reject(_)) => stats.rejects += 1,
        AccessKind::Load => {
            stats.loads += 1;
            if matches!(outcome, AccessOutcome::Done(_)) {
                stats.load_hits += 1;
            }
        }
        AccessKind::Store { .. } => stats.stores += 1,
        AccessKind::Atomic { .. } => stats.atomics += 1,
    }
    outcome
}

/// Takes an MSHR slot for a request to `line`: merges it into the line's
/// entry, or allocates a fresh one. `add` records the request in the
/// entry either way. A refused request leaves the file as it was (the
/// `replay_rejected_access` contract) and says why it was refused.
pub(crate) fn admit<E: Default>(
    mshrs: &mut MshrFile<E>,
    line: LineAddr,
    add: impl FnOnce(&mut E),
) -> Result<(), RejectReason> {
    let taken = if mshrs.contains(line) {
        mshrs.merge(line, add)
    } else {
        let mut entry = E::default();
        add(&mut entry);
        mshrs.allocate(line, entry)
    };
    taken.map_err(|e| match e {
        MshrRejection::Full => RejectReason::MshrFull,
        MshrRejection::MergeListFull => RejectReason::MergeFull,
    })
}

/// Serves a load from its resident line, positioned at (`ts`, the `seq`
/// of the line's metadata).
///
/// # Panics
///
/// Panics if the line is not resident: the caller has checked it is.
pub(crate) fn hit<S>(
    tags: &mut TagArray<S>,
    access: &Access,
    ts: Timestamp,
    seq: impl FnOnce(&S) -> u64,
) -> Completion {
    let line = tags
        .access(access.addr.line())
        .expect("hit path requires resident line");
    Completion {
        warp: access.warp,
        addr: access.addr,
        kind: CompletionKind::LoadDone {
            value: line.data.word_at(access.addr),
        },
        ts,
        seq: seq(&line.state),
    }
}

/// Sends a GETS for `line` stamped `now`, unless one is already out
/// (`*outstanding`, the entry's flag).
pub(crate) fn send_gets(
    outstanding: &mut bool,
    src: CoreId,
    line: LineAddr,
    now: Timestamp,
    renew_exp: Option<Timestamp>,
    out: &mut L1Outbox,
) {
    if *outstanding {
        return;
    }
    *outstanding = true;
    out.to_l2.push(ReqMsg {
        src,
        line,
        id: ReqId(0),
        payload: ReqPayload::Gets { now, renew_exp },
    });
}

/// A store or atomic awaiting its ack from the L2.
#[derive(Debug, Clone, Copy)]
pub(crate) struct PendingWrite {
    pub(crate) id: ReqId,
    pub(crate) warp: WarpId,
    pub(crate) addr: WordAddr,
    pub(crate) atomic: bool,
}

/// Admits a store or atomic to its line's MSHR entry under the next
/// request id, which `record` files in the entry. The id is minted only
/// once the entry takes the write: a refused access leaves nothing
/// behind but counters.
pub(crate) fn admit_write<E: Default>(
    next_req: &mut u64,
    mshrs: &mut MshrFile<E>,
    access: &Access,
    record: impl FnOnce(&mut E, PendingWrite),
) -> Result<ReqId, RejectReason> {
    let w = PendingWrite {
        id: ReqId(*next_req),
        warp: access.warp,
        addr: access.addr,
        atomic: matches!(access.kind, AccessKind::Atomic { .. }),
    };
    admit(mshrs, access.addr.line(), |e| record(e, w))?;
    *next_req += 1;
    Ok(w.id)
}

/// Admits a store or atomic ([`admit_write`]) and sends it to the L2 as
/// a WRITE or ATOMIC stamped `now`, to be completed by its ack.
pub(crate) fn send_write<E: Default>(
    src: CoreId,
    next_req: &mut u64,
    mshrs: &mut MshrFile<E>,
    access: Access,
    now: Timestamp,
    record: impl FnOnce(&mut E, PendingWrite),
    out: &mut L1Outbox,
) -> AccessOutcome {
    let id = match admit_write(next_req, mshrs, &access, record) {
        Ok(id) => id,
        Err(reason) => return AccessOutcome::Reject(reason),
    };
    let word = access.addr.line_word_index();
    let payload = match access.kind {
        AccessKind::Store { value } => ReqPayload::Write { now, word, value },
        AccessKind::Atomic { op } => ReqPayload::Atomic { now, word, op },
        AccessKind::Load => unreachable!("send_write is for writes"),
    };
    out.to_l2.push(ReqMsg {
        src,
        line: access.addr.line(),
        id,
        payload,
    });
    AccessOutcome::Pending
}

/// Completes the pending write `id` that the L2 acknowledged at
/// (`ts`, `seq`): a store with `StoreDone`, an atomic with `AtomicDone`.
///
/// # Panics
///
/// Panics if no write `id` is pending: the L2 acknowledges only writes
/// it was sent.
pub(crate) fn ack(
    writes: &mut VecDeque<PendingWrite>,
    id: ReqId,
    kind: CompletionKind,
    ts: Timestamp,
    seq: u64,
) -> Completion {
    let pos = writes
        .iter()
        .position(|w| w.id == id)
        .unwrap_or_else(|| panic!("no pending write {id:?}"));
    let w = writes.remove(pos).expect("position valid");
    debug_assert_eq!(
        w.atomic,
        matches!(kind, CompletionKind::AtomicDone { .. }),
        "ack kind does not match write {id:?}"
    );
    Completion {
        warp: w.warp,
        addr: w.addr,
        kind,
        ts,
        seq,
    }
}
