//! Property coverage for the `RCCJ` journal codec, mirroring the
//! `RCCT` trace codec suite (`crates/trace/tests/codec.rs`):
//!
//! - encode→replay identity on random record sequences,
//! - a truncated tail (what `kill -9` mid-append leaves) always
//!   recovers the longest complete prefix — never an error, never an
//!   invented record,
//! - interior corruption (a bit flip in any already-durable frame)
//!   always fails closed with a typed [`JournalError::Corrupt`],
//! - no corruption of any kind ever yields a silent wrong decode: the
//!   replayed records are a prefix of what was written, or the replay
//!   is a typed error.

use proptest::prelude::*;
use rcc_serve::journal::{
    encode_frame, replay_bytes, Journal, JournalError, Record, MAGIC, VERSION,
};
use rcc_serve::store::{JobError, ResultSummary};
use std::sync::atomic::AtomicBool;
use std::sync::Arc;

const KINDS: &[&str] = &[
    "deadlock",
    "cycles-exceeded",
    "protocol-invariant",
    "sc-violation",
    "checkpoint",
    "panic",
    "hang",
    "internal",
];

/// Printable-ASCII strings (the shim has no regex strategies).
fn arb_string(max: usize) -> impl Strategy<Value = String> {
    prop::collection::vec(32u8..127, 0..max)
        .prop_map(|v| v.into_iter().map(|b| b as char).collect())
}

fn arb_error() -> impl Strategy<Value = JobError> {
    (
        0usize..KINDS.len(),
        arb_string(40),
        prop_oneof![Just(None), arb_string(30).prop_map(Some)],
    )
        .prop_map(|(k, detail, hang_dump)| JobError {
            kind: KINDS[k],
            detail,
            hang_dump,
        })
}

fn arb_summary() -> impl Strategy<Value = ResultSummary> {
    (
        (arb_string(10), arb_string(12)),
        any::<u64>(),
        any::<u64>(),
        any::<u64>(),
        0u64..100,
        any::<u64>(),
    )
        .prop_map(
            |((protocol, workload), cycles, issued, mem_ops, sc_violations, metrics_digest)| {
                ResultSummary {
                    protocol,
                    workload,
                    cycles,
                    issued,
                    mem_ops,
                    sc_violations,
                    metrics_digest,
                }
            },
        )
}

fn arb_record() -> impl Strategy<Value = Record> {
    prop_oneof![
        (
            0u64..500,
            0u8..4,
            arb_string(60),
            prop_oneof![Just(None), arb_string(20).prop_map(Some)]
        )
            .prop_map(|(id, priority, spec_json, dedup_key)| Record::Submitted {
                id,
                priority,
                spec_json,
                dedup_key
            }),
        (0u64..500, 0u32..8).prop_map(|(id, attempt)| Record::Started { id, attempt }),
        (
            0u64..500,
            0u64..100,
            0u64..100,
            prop::collection::vec(any::<u8>(), 0..200)
        )
            .prop_map(|(id, slices, preemptions, checkpoint)| Record::Preempted {
                id,
                slices,
                preemptions,
                checkpoint
            }),
        (0u64..500, 0u64..100, 0u64..100, any::<u64>(), any::<u64>()).prop_map(
            |(id, slices, preemptions, cycle, state_digest)| Record::Parked {
                id,
                slices,
                preemptions,
                cycle,
                state_digest
            }
        ),
        (0u64..500, 1u32..8).prop_map(|(id, attempts)| Record::Retried { id, attempts }),
        (0u64..500, 0u64..100, 0u64..100, arb_summary()).prop_map(
            |(id, slices, preemptions, summary)| Record::Finished {
                id,
                slices,
                preemptions,
                summary
            }
        ),
        (0u64..500, 0u64..100, 0u64..100, arb_error()).prop_map(
            |(id, slices, preemptions, error)| Record::Failed {
                id,
                slices,
                preemptions,
                error
            }
        ),
        (0u64..500, 1u32..8, arb_error()).prop_map(|(id, attempts, error)| {
            Record::Quarantined {
                id,
                attempts,
                error,
            }
        }),
        Just(Record::Drained),
    ]
}

fn journal_bytes(records: &[Record]) -> Vec<u8> {
    let mut bytes = Vec::new();
    bytes.extend_from_slice(&MAGIC);
    bytes.extend_from_slice(&VERSION.to_le_bytes());
    for r in records {
        bytes.extend_from_slice(&encode_frame(&r.encode()));
    }
    bytes
}

/// Frame start offsets, including the end-of-file sentinel.
fn frame_offsets(records: &[Record]) -> Vec<usize> {
    let mut offs = vec![8usize];
    for r in records {
        let last = *offs.last().unwrap();
        offs.push(last + 12 + r.encode().len());
    }
    offs
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn replay_is_encode_inverse(recs in prop::collection::vec(arb_record(), 0..20)) {
        let bytes = journal_bytes(&recs);
        let replay = replay_bytes(&bytes).unwrap();
        prop_assert_eq!(&replay.records, &recs);
        prop_assert!(!replay.torn_tail);
        prop_assert_eq!(replay.good_len, bytes.len() as u64);
    }

    #[test]
    fn truncated_tail_recovers_the_prefix(
        recs in prop::collection::vec(arb_record(), 1..20),
        cut_back in 1usize..64,
    ) {
        let bytes = journal_bytes(&recs);
        let keep = (bytes.len() - cut_back.min(bytes.len() - 8)).max(8);
        let replay = replay_bytes(&bytes[..keep]).expect("a torn tail is never an error");
        // Whatever survives is an exact prefix of what was written.
        prop_assert!(replay.records.len() <= recs.len());
        prop_assert_eq!(&replay.records[..], &recs[..replay.records.len()]);
        prop_assert!(replay.good_len <= keep as u64);
        // And the boundary is tight: good_len is a real frame boundary.
        let offs = frame_offsets(&recs);
        prop_assert!(offs.contains(&(replay.good_len as usize)));
    }

    #[test]
    fn interior_flip_fails_closed(
        recs in prop::collection::vec(arb_record(), 2..12),
        frame_pick: usize,
        byte_pick: usize,
        bit in 0u8..8,
    ) {
        let bytes = journal_bytes(&recs);
        let offs = frame_offsets(&recs);
        // Flip inside any frame except the last: that is interior
        // damage (disk rot), not a legitimate crash artifact.
        let f = frame_pick % (recs.len() - 1);
        let (start, end) = (offs[f], offs[f + 1]);
        let idx = start + byte_pick % (end - start);
        let mut bad = bytes.clone();
        bad[idx] ^= 1 << bit;
        match replay_bytes(&bad) {
            Err(JournalError::Corrupt { .. }) => {}
            Err(other) => prop_assert!(false, "wrong error kind: {other}"),
            // A flip in a length field can widen the frame past EOF,
            // which replay can only see as a torn tail — but then it
            // must NOT have invented or altered any record.
            Ok(replay) => {
                prop_assert!(replay.torn_tail, "flip at {idx} silently accepted");
                prop_assert!(replay.records.len() <= f);
                prop_assert_eq!(&replay.records[..], &recs[..replay.records.len()]);
            }
        }
    }

    #[test]
    fn any_flip_never_silently_diverges(
        recs in prop::collection::vec(arb_record(), 1..12),
        pos: usize,
        bit in 0u8..8,
    ) {
        let bytes = journal_bytes(&recs);
        let idx = pos % bytes.len();
        let mut bad = bytes.clone();
        bad[idx] ^= 1 << bit;
        if let Ok(replay) = replay_bytes(&bad) {
            // Tolerated only as a shorter-but-exact prefix (tail loss).
            prop_assert!(replay.records.len() < recs.len() || replay.records == recs);
            prop_assert_eq!(&replay.records[..], &recs[..replay.records.len()]);
        }
    }
}

#[test]
fn header_damage_fails_closed() {
    for bytes in [
        &b"RCCX\x01\x00\x00\x00"[..],
        &b"RCCJ\x02\x00\x00\x00"[..],
        &b"RC"[..],
        &[0u8; 8][..],
    ] {
        assert!(
            matches!(replay_bytes(bytes), Err(JournalError::Corrupt { .. })),
            "{bytes:02x?} must fail closed"
        );
    }
    // Empty is a fresh journal, not corruption.
    assert!(replay_bytes(b"").unwrap().records.is_empty());
}

#[test]
fn crash_mid_append_then_reopen_resumes_cleanly() {
    let dir = std::env::temp_dir().join(format!("rccj-prop-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("crash.rccj");
    let _ = std::fs::remove_file(&path);
    let killed = Arc::new(AtomicBool::new(false));
    let (mut j, _) = Journal::open(&path, true, None, Arc::clone(&killed)).unwrap();
    let first = Record::Started { id: 1, attempt: 0 };
    j.append(&first).unwrap();
    drop(j);
    // Emulate a torn append: a partial frame lands after the record.
    let mut bytes = std::fs::read(&path).unwrap();
    bytes.extend_from_slice(&encode_frame(&Record::Drained.encode())[..5]);
    std::fs::write(&path, &bytes).unwrap();
    // Reopen: the torn tail is truncated away and appending resumes on
    // the record boundary.
    let (mut j, replay) = Journal::open(&path, true, None, Arc::clone(&killed)).unwrap();
    assert!(replay.torn_tail);
    assert_eq!(replay.records, vec![first.clone()]);
    let second = Record::Started { id: 2, attempt: 1 };
    j.append(&second).unwrap();
    drop(j);
    let (_, replay) = Journal::open(&path, true, None, killed).unwrap();
    assert!(!replay.torn_tail);
    assert_eq!(replay.records, vec![first, second]);
    let _ = std::fs::remove_file(&path);
}
