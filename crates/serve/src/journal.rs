//! The `RCCJ` write-ahead journal: crash durability for the service.
//!
//! Every job lifecycle transition — submitted, started, parked (the
//! boundary's cycle and state digest), retried after a crash, finished,
//! failed, quarantined, and the clean-shutdown drain marker — is
//! appended to a single journal file and fsync'd before the transition
//! is considered to have happened. A record is the only way a job's
//! durable state changes: the server applies each one it appends, and on
//! startup [`Journal::open`] replays the file and the server applies the
//! same records in order to rebuild its job table and priority queue.
//! So a `kill -9` at any instant loses at most the in-flight quantum: a
//! parked job's checkpoint is rebuilt from its `Submitted` spec and the
//! journaled `(cycle, state_digest)`, replayed, verified digest for
//! digest, and finishes bit-identical to an uninterrupted run.
//! `Preempted` records, which embed full `RCCK` bytes, are what earlier
//! builds wrote: they still replay, and nothing writes them now.
//!
//! ## Format
//!
//! Built on the [`rcc_common::snap`] codec (little-endian, zero
//! dependencies), mirroring the `RCCT` trace container's discipline:
//!
//! ```text
//! "RCCJ" magic (4 bytes) | version u32 (=1)
//! per record: payload_len u32 | payload bytes | fnv1a64(payload) u64
//! ```
//!
//! ## Corruption policy (asymmetric by design)
//!
//! - A **truncated tail** — a trailing frame with fewer bytes than its
//!   header promises — is what a crash mid-append legitimately leaves
//!   behind. Replay tolerates it: the partial frame is discarded and
//!   the file truncated back to the last complete record.
//! - **Interior corruption** — a digest mismatch, an undecodable
//!   payload, an insane length, a bad header — can only come from disk
//!   rot or a bug, where guessing would silently diverge the rebuilt
//!   state from what actually ran. Replay fails closed with a typed
//!   [`JournalError::Corrupt`] naming the byte offset.
//!
//! Fault injection (IO error, torn write, bit flip, delayed fsync,
//! kill points) threads through [`rcc_chaos::service::ServiceInjector`]
//! so the recovery soak can "kill -9" the durable layer at seeded
//! record indices purely through on-disk state.

use crate::store::{JobError, ResultSummary};
use rcc_chaos::service::{ServiceInjector, WriteFault};
use rcc_common::snap::{SnapReader, SnapWriter, StateDigest};
use std::fs::{File, OpenOptions};
use std::io::{Read as _, Seek, SeekFrom, Write as _};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// Journal container magic.
pub const MAGIC: [u8; 4] = *b"RCCJ";
/// Journal format version.
pub const VERSION: u32 = 1;
/// Fail-closed cap on a single record's payload: anything larger is a
/// corrupt length field, not a real record (checkpoints are the biggest
/// payload and sit far below this).
pub const MAX_RECORD: usize = 1 << 28;

/// Replay failure. `Io` covers the file layer; `Corrupt` is the typed
/// fail-closed verdict on interior damage.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JournalError {
    /// Filesystem-level failure (open, read, write, sync, truncate).
    Io(String),
    /// Interior corruption: replay refuses to guess.
    Corrupt {
        /// Byte offset of the offending frame.
        offset: u64,
        /// What was wrong.
        detail: String,
    },
}

impl std::fmt::Display for JournalError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            JournalError::Io(e) => write!(f, "journal io error: {e}"),
            JournalError::Corrupt { offset, detail } => {
                write!(f, "journal corrupt at byte {offset}: {detail}")
            }
        }
    }
}

impl std::error::Error for JournalError {}

/// One journaled lifecycle transition.
#[derive(Debug, Clone, PartialEq)]
pub enum Record {
    /// A job was admitted: id, priority class, canonical spec, and the
    /// optional idempotency key.
    Submitted {
        /// Dense job id (equals the record's position in the id space).
        id: u64,
        /// Priority class at admission.
        priority: u8,
        /// Canonical spec JSON (re-validates on replay).
        spec_json: String,
        /// Client-supplied idempotency key, if any.
        dedup_key: Option<String>,
    },
    /// A worker picked the job up for 0-based retry `attempt`.
    Started {
        /// Job id.
        id: u64,
        /// 0-based attempt number.
        attempt: u32,
    },
    /// The job parked on a checkpoint whose full `RCCK` bytes ride in
    /// the record. Written by earlier builds, which journaled every
    /// boundary this way; it still replays, and [`Record::Parked`]
    /// replaces it.
    Preempted {
        /// Job id.
        id: u64,
        /// Quanta executed so far.
        slices: u64,
        /// Preemptions so far.
        preemptions: u64,
        /// `Checkpoint::encode()` bytes.
        checkpoint: Vec<u8>,
    },
    /// The job parked at a quantum boundary. The checkpoint is the
    /// job's `Submitted` spec at `(cycle, state_digest)`, so recovery
    /// rebuilds it from the spec and replay verifies the digest.
    Parked {
        /// Job id.
        id: u64,
        /// Quanta executed so far.
        slices: u64,
        /// Preemptions so far.
        preemptions: u64,
        /// Cycle the job parked at.
        cycle: u64,
        /// `System::state_digest` of the machine at `cycle`.
        state_digest: u64,
    },
    /// A crash (a panic or a wedged worker) consumed an attempt and the
    /// job waits out its retry backoff. The crash that spends the last
    /// attempt is journaled as [`Record::Quarantined`] instead.
    Retried {
        /// Job id.
        id: u64,
        /// Attempts consumed so far (the retry runs attempt `attempts`).
        attempts: u32,
    },
    /// Terminal: finished with a result summary.
    Finished {
        /// Job id.
        id: u64,
        /// Quanta executed.
        slices: u64,
        /// Preemptions.
        preemptions: u64,
        /// The pure-simulation result.
        summary: ResultSummary,
    },
    /// Terminal: failed with a typed error.
    Failed {
        /// Job id.
        id: u64,
        /// Quanta executed.
        slices: u64,
        /// Preemptions.
        preemptions: u64,
        /// The typed failure.
        error: JobError,
    },
    /// Terminal: quarantined after exhausting retries; carries the last
    /// panic payload or hang dump.
    Quarantined {
        /// Job id.
        id: u64,
        /// Attempts consumed (equals `max_attempts`).
        attempts: u32,
        /// The last failure observed.
        error: JobError,
    },
    /// Clean-shutdown marker: the drain completed and the manifest was
    /// written before exit.
    Drained,
}

/// Maps a decoded error-kind string back to the `&'static str` taxonomy
/// [`JobError`] carries. Unknown kinds (from a future version) collapse
/// to `internal` rather than being invented.
fn intern_kind(s: &str) -> &'static str {
    match s {
        "deadlock" => "deadlock",
        "cycles-exceeded" => "cycles-exceeded",
        "protocol-invariant" => "protocol-invariant",
        "sc-violation" => "sc-violation",
        "sanitizer-violation" => "sanitizer-violation",
        "probe-missing" => "probe-missing",
        "checkpoint" => "checkpoint",
        "trace" => "trace",
        "panic" => "panic",
        "hang" => "hang",
        "store" => "store",
        "journal" => "journal",
        "spec" => "spec",
        _ => "internal",
    }
}

fn write_error(w: &mut SnapWriter, e: &JobError) {
    w.str(e.kind);
    w.str(&e.detail);
    match &e.hang_dump {
        Some(d) => {
            w.bool(true);
            w.str(d);
        }
        None => w.bool(false),
    }
}

fn read_error(r: &mut SnapReader) -> Result<JobError, rcc_common::snap::SnapError> {
    let kind = intern_kind(&r.str()?);
    let detail = r.str()?;
    let hang_dump = if r.bool()? { Some(r.str()?) } else { None };
    Ok(JobError {
        kind,
        detail,
        hang_dump,
    })
}

fn write_summary(w: &mut SnapWriter, s: &ResultSummary) {
    w.str(&s.protocol);
    w.str(&s.workload);
    w.u64(s.cycles);
    w.u64(s.issued);
    w.u64(s.mem_ops);
    w.u64(s.sc_violations);
    w.u64(s.metrics_digest);
}

fn read_summary(r: &mut SnapReader) -> Result<ResultSummary, rcc_common::snap::SnapError> {
    Ok(ResultSummary {
        protocol: r.str()?,
        workload: r.str()?,
        cycles: r.u64()?,
        issued: r.u64()?,
        mem_ops: r.u64()?,
        sc_violations: r.u64()?,
        metrics_digest: r.u64()?,
    })
}

impl Record {
    /// Encodes the record payload (no frame header/digest).
    pub fn encode(&self) -> Vec<u8> {
        let mut w = SnapWriter::new();
        match self {
            Record::Submitted {
                id,
                priority,
                spec_json,
                dedup_key,
            } => {
                w.u8(1);
                w.u64(*id);
                w.u8(*priority);
                w.str(spec_json);
                match dedup_key {
                    Some(k) => {
                        w.bool(true);
                        w.str(k);
                    }
                    None => w.bool(false),
                }
            }
            Record::Started { id, attempt } => {
                w.u8(2);
                w.u64(*id);
                w.u32(*attempt);
            }
            Record::Preempted {
                id,
                slices,
                preemptions,
                checkpoint,
            } => {
                w.u8(3);
                w.u64(*id);
                w.u64(*slices);
                w.u64(*preemptions);
                w.bytes(checkpoint);
            }
            Record::Finished {
                id,
                slices,
                preemptions,
                summary,
            } => {
                w.u8(4);
                w.u64(*id);
                w.u64(*slices);
                w.u64(*preemptions);
                write_summary(&mut w, summary);
            }
            Record::Failed {
                id,
                slices,
                preemptions,
                error,
            } => {
                w.u8(5);
                w.u64(*id);
                w.u64(*slices);
                w.u64(*preemptions);
                write_error(&mut w, error);
            }
            Record::Quarantined {
                id,
                attempts,
                error,
            } => {
                w.u8(6);
                w.u64(*id);
                w.u32(*attempts);
                write_error(&mut w, error);
            }
            Record::Drained => w.u8(7),
            Record::Parked {
                id,
                slices,
                preemptions,
                cycle,
                state_digest,
            } => {
                w.u8(8);
                w.u64(*id);
                w.u64(*slices);
                w.u64(*preemptions);
                w.u64(*cycle);
                w.u64(*state_digest);
            }
            Record::Retried { id, attempts } => {
                w.u8(9);
                w.u64(*id);
                w.u32(*attempts);
            }
        }
        w.into_bytes()
    }

    /// Decodes one record payload, consuming it fully.
    pub fn decode(bytes: &[u8]) -> Result<Record, String> {
        let mut r = SnapReader::new(bytes);
        let rec = (|| -> Result<Record, rcc_common::snap::SnapError> {
            let tag = r.u8()?;
            let rec = match tag {
                1 => Record::Submitted {
                    id: r.u64()?,
                    priority: r.u8()?,
                    spec_json: r.str()?,
                    dedup_key: if r.bool()? { Some(r.str()?) } else { None },
                },
                2 => Record::Started {
                    id: r.u64()?,
                    attempt: r.u32()?,
                },
                3 => Record::Preempted {
                    id: r.u64()?,
                    slices: r.u64()?,
                    preemptions: r.u64()?,
                    checkpoint: r.bytes()?,
                },
                4 => Record::Finished {
                    id: r.u64()?,
                    slices: r.u64()?,
                    preemptions: r.u64()?,
                    summary: read_summary(&mut r)?,
                },
                5 => Record::Failed {
                    id: r.u64()?,
                    slices: r.u64()?,
                    preemptions: r.u64()?,
                    error: read_error(&mut r)?,
                },
                6 => Record::Quarantined {
                    id: r.u64()?,
                    attempts: r.u32()?,
                    error: read_error(&mut r)?,
                },
                7 => Record::Drained,
                8 => Record::Parked {
                    id: r.u64()?,
                    slices: r.u64()?,
                    preemptions: r.u64()?,
                    cycle: r.u64()?,
                    state_digest: r.u64()?,
                },
                9 => Record::Retried {
                    id: r.u64()?,
                    attempts: r.u32()?,
                },
                other => {
                    return Err(rcc_common::snap::SnapError(format!(
                        "unknown record tag {other}"
                    )))
                }
            };
            r.done()?;
            Ok(rec)
        })();
        rec.map_err(|e| e.0)
    }

    /// The job id the record is about (`None` for markers).
    pub fn job_id(&self) -> Option<u64> {
        match self {
            Record::Submitted { id, .. }
            | Record::Started { id, .. }
            | Record::Preempted { id, .. }
            | Record::Parked { id, .. }
            | Record::Retried { id, .. }
            | Record::Finished { id, .. }
            | Record::Failed { id, .. }
            | Record::Quarantined { id, .. } => Some(*id),
            Record::Drained => None,
        }
    }

    /// True for records that end a job's lifecycle (a `Retried` job
    /// runs again).
    pub fn is_terminal(&self) -> bool {
        matches!(
            self,
            Record::Finished { .. } | Record::Failed { .. } | Record::Quarantined { .. }
        )
    }
}

fn fnv64(bytes: &[u8]) -> u64 {
    let mut d = StateDigest::new();
    d.write_bytes(bytes);
    d.finish()
}

/// Frames a payload for the journal: length prefix, payload, digest.
pub fn encode_frame(payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(payload.len() + 12);
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(payload);
    out.extend_from_slice(&fnv64(payload).to_le_bytes());
    out
}

/// What a replay recovered.
#[derive(Debug, Clone, PartialEq)]
pub struct Replay {
    /// Every complete, digest-verified record, in append order.
    pub records: Vec<Record>,
    /// Byte offset just past the last complete record (where appending
    /// resumes after truncating a torn tail).
    pub good_len: u64,
    /// True when a trailing partial frame was discarded.
    pub torn_tail: bool,
}

/// Replays journal bytes. Tolerates a truncated tail; fails closed on
/// anything interior (see the module docs for the rationale).
pub fn replay_bytes(bytes: &[u8]) -> Result<Replay, JournalError> {
    if bytes.is_empty() {
        return Ok(Replay {
            records: Vec::new(),
            good_len: 0,
            torn_tail: false,
        });
    }
    if bytes.len() < 8 {
        return Err(JournalError::Corrupt {
            offset: 0,
            detail: format!("file holds {} bytes, header needs 8", bytes.len()),
        });
    }
    if bytes[..4] != MAGIC {
        return Err(JournalError::Corrupt {
            offset: 0,
            detail: format!("bad magic {:02x?}, want \"RCCJ\"", &bytes[..4]),
        });
    }
    let version = u32::from_le_bytes(bytes[4..8].try_into().expect("4 bytes"));
    if version != VERSION {
        return Err(JournalError::Corrupt {
            offset: 4,
            detail: format!("unsupported journal version {version} (want {VERSION})"),
        });
    }
    let mut records = Vec::new();
    let mut pos = 8usize;
    loop {
        if pos == bytes.len() {
            return Ok(Replay {
                records,
                good_len: pos as u64,
                torn_tail: false,
            });
        }
        let frame_start = pos;
        if bytes.len() - pos < 4 {
            return Ok(Replay {
                records,
                good_len: frame_start as u64,
                torn_tail: true,
            });
        }
        let len = u32::from_le_bytes(bytes[pos..pos + 4].try_into().expect("4 bytes")) as usize;
        if len > MAX_RECORD {
            return Err(JournalError::Corrupt {
                offset: frame_start as u64,
                detail: format!("record length {len} exceeds the {MAX_RECORD}-byte cap"),
            });
        }
        pos += 4;
        if bytes.len() - pos < len + 8 {
            return Ok(Replay {
                records,
                good_len: frame_start as u64,
                torn_tail: true,
            });
        }
        let payload = &bytes[pos..pos + len];
        pos += len;
        let stored = u64::from_le_bytes(bytes[pos..pos + 8].try_into().expect("8 bytes"));
        pos += 8;
        if fnv64(payload) != stored {
            return Err(JournalError::Corrupt {
                offset: frame_start as u64,
                detail: format!(
                    "record digest mismatch: stored {stored:016x}, computed {:016x}",
                    fnv64(payload)
                ),
            });
        }
        let rec = Record::decode(payload).map_err(|e| JournalError::Corrupt {
            offset: frame_start as u64,
            detail: format!("undecodable record: {e}"),
        })?;
        records.push(rec);
    }
}

/// The append side of the journal. One instance per server; appends are
/// serialized by the server's state lock.
#[derive(Debug)]
pub struct Journal {
    file: File,
    path: PathBuf,
    /// Current good length (everything before it is complete records).
    len: u64,
    /// Records in the file across its whole lifetime (replayed + new) —
    /// the absolute index fault injection keys on.
    appended: u64,
    fsync: bool,
    injector: Option<Arc<ServiceInjector>>,
    /// Kill switch shared with the store: once set, every durable write
    /// is silently dropped, emulating a dead process. Recovery then
    /// depends on on-disk state alone.
    killed: Arc<AtomicBool>,
}

impl Journal {
    /// Opens (creating if absent) and replays the journal at `path`.
    /// A torn tail is truncated away; interior corruption fails closed.
    pub fn open(
        path: &Path,
        fsync: bool,
        injector: Option<Arc<ServiceInjector>>,
        killed: Arc<AtomicBool>,
    ) -> Result<(Journal, Replay), JournalError> {
        if let Some(parent) = path.parent() {
            if !parent.as_os_str().is_empty() {
                std::fs::create_dir_all(parent)
                    .map_err(|e| JournalError::Io(format!("create {}: {e}", parent.display())))?;
            }
        }
        let mut file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(path)
            .map_err(|e| JournalError::Io(format!("open {}: {e}", path.display())))?;
        let mut bytes = Vec::new();
        file.read_to_end(&mut bytes)
            .map_err(|e| JournalError::Io(format!("read {}: {e}", path.display())))?;
        let replay = replay_bytes(&bytes)?;
        let mut journal = Journal {
            file,
            path: path.to_path_buf(),
            len: replay.good_len,
            appended: replay.records.len() as u64,
            fsync,
            injector,
            killed,
        };
        if bytes.is_empty() {
            let mut header = Vec::with_capacity(8);
            header.extend_from_slice(&MAGIC);
            header.extend_from_slice(&VERSION.to_le_bytes());
            journal.write_at_end(&header, true)?;
            journal.len = 8;
        } else if replay.good_len < bytes.len() as u64 {
            // Torn tail: restore the invariant that the file ends on a
            // record boundary before appending anything new.
            journal
                .file
                .set_len(replay.good_len)
                .map_err(|e| JournalError::Io(format!("truncate torn tail: {e}")))?;
        }
        Ok((journal, replay))
    }

    fn write_at_end(&mut self, bytes: &[u8], sync: bool) -> Result<(), JournalError> {
        self.file
            .seek(SeekFrom::Start(self.len))
            .map_err(|e| JournalError::Io(format!("seek: {e}")))?;
        self.file
            .write_all(bytes)
            .map_err(|e| JournalError::Io(format!("write: {e}")))?;
        if sync {
            self.file
                .sync_data()
                .map_err(|e| JournalError::Io(format!("fsync: {e}")))?;
        }
        Ok(())
    }

    /// Appends one record, fsync'd before returning (unless the journal
    /// was opened with `fsync: false`, or a fault says otherwise).
    /// Returns the record's absolute index.
    pub fn append(&mut self, rec: &Record) -> Result<u64, JournalError> {
        if self.killed.load(Ordering::SeqCst) {
            // The "process" died: writes go nowhere, callers don't know.
            return Ok(self.appended);
        }
        let index = self.appended;
        let mut frame = encode_frame(&rec.encode());
        if let Some(inj) = self.injector.clone() {
            if inj.kill_at(index) {
                // Die mid-append: a prefix of the frame lands, then the
                // kill switch drops everything after it.
                let cut = inj.torn_cut(index, frame.len());
                let partial = frame[..cut].to_vec();
                self.write_at_end(&partial, true)?;
                self.killed.store(true, Ordering::SeqCst);
                return Ok(index);
            }
            match inj.journal_fault(index) {
                WriteFault::None => {}
                WriteFault::IoError => {
                    return Err(JournalError::Io(format!(
                        "injected io error on record {index}"
                    )));
                }
                WriteFault::TornWrite => {
                    // A live process sees the short write, truncates the
                    // tail back, and reports a typed error: the record
                    // did NOT happen.
                    let cut = inj.torn_cut(index, frame.len());
                    let partial = frame[..cut].to_vec();
                    self.write_at_end(&partial, false)?;
                    self.file
                        .set_len(self.len)
                        .map_err(|e| JournalError::Io(format!("truncate after tear: {e}")))?;
                    return Err(JournalError::Io(format!(
                        "injected torn write on record {index} (truncated back)"
                    )));
                }
                WriteFault::BitFlip => {
                    // Silent in-flight corruption: the append "succeeds",
                    // replay must detect it and fail closed.
                    let bit = (index % (frame.len() as u64 * 8)) as usize;
                    frame[bit / 8] ^= 1 << (bit % 8);
                }
                WriteFault::DelayedFsync => {
                    self.write_at_end(&frame, false)?;
                    self.len += frame.len() as u64;
                    self.appended += 1;
                    return Ok(index);
                }
            }
        }
        self.write_at_end(&frame, self.fsync)?;
        self.len += frame.len() as u64;
        self.appended += 1;
        Ok(index)
    }

    /// Records appended across the journal's lifetime (replayed + new).
    pub fn records(&self) -> u64 {
        self.appended
    }

    /// True once a kill point fired (durable writes are being dropped).
    pub fn killed(&self) -> bool {
        self.killed.load(Ordering::SeqCst)
    }

    /// The journal file path.
    pub fn path(&self) -> &Path {
        &self.path
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_records() -> Vec<Record> {
        vec![
            Record::Submitted {
                id: 0,
                priority: 1,
                spec_json: "{\"version\": 1}".into(),
                dedup_key: Some("k-0".into()),
            },
            Record::Started { id: 0, attempt: 0 },
            Record::Preempted {
                id: 0,
                slices: 1,
                preemptions: 1,
                checkpoint: vec![1, 2, 3, 4, 5],
            },
            Record::Parked {
                id: 0,
                slices: 2,
                preemptions: 2,
                cycle: 60_000,
                state_digest: 0x0123_4567_89ab_cdef,
            },
            Record::Retried { id: 0, attempts: 1 },
            Record::Finished {
                id: 0,
                slices: 2,
                preemptions: 1,
                summary: ResultSummary {
                    protocol: "rcc".into(),
                    workload: "mp".into(),
                    cycles: 100,
                    issued: 50,
                    mem_ops: 20,
                    sc_violations: 0,
                    metrics_digest: 0xdead_beef,
                },
            },
            Record::Failed {
                id: 1,
                slices: 1,
                preemptions: 0,
                error: JobError {
                    kind: "deadlock",
                    detail: "no progress".into(),
                    hang_dump: Some("{\"x\": 1}".into()),
                },
            },
            Record::Quarantined {
                id: 2,
                attempts: 3,
                error: JobError {
                    kind: "panic",
                    detail: "boom".into(),
                    hang_dump: None,
                },
            },
            Record::Drained,
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

    #[test]
    fn records_round_trip() {
        for rec in sample_records() {
            let decoded = Record::decode(&rec.encode()).expect("round trip");
            assert_eq!(decoded, rec);
        }
    }

    #[test]
    fn a_parked_record_is_a_41_byte_payload() {
        let parked = sample_records()
            .into_iter()
            .find(|r| matches!(r, Record::Parked { .. }))
            .expect("sampled");
        assert_eq!(parked.encode().len(), 41);
    }

    #[test]
    fn replay_reads_everything_back() {
        let recs = sample_records();
        let replay = replay_bytes(&journal_bytes(&recs)).expect("replays");
        assert_eq!(replay.records, recs);
        assert!(!replay.torn_tail);
    }

    #[test]
    fn torn_tail_is_tolerated() {
        let recs = sample_records();
        let bytes = journal_bytes(&recs);
        let full = replay_bytes(&bytes).unwrap();
        // Chop into the last frame (anywhere short of complete).
        let cut = bytes.len() - 3;
        let replay = replay_bytes(&bytes[..cut]).expect("torn tail tolerated");
        assert!(replay.torn_tail);
        assert_eq!(replay.records.len(), recs.len() - 1);
        assert!(replay.good_len < full.good_len);
    }

    #[test]
    fn interior_flip_fails_closed() {
        let bytes = journal_bytes(&sample_records());
        // Flip a payload bit of the first record (offset 8 is its length
        // field; 12 is inside its payload).
        let mut bad = bytes.clone();
        bad[13] ^= 0x10;
        match replay_bytes(&bad) {
            Err(JournalError::Corrupt { .. }) => {}
            other => panic!("expected Corrupt, got {other:?}"),
        }
    }

    #[test]
    fn bad_header_fails_closed() {
        assert!(matches!(
            replay_bytes(b"RCCX\x01\x00\x00\x00"),
            Err(JournalError::Corrupt { .. })
        ));
        assert!(matches!(
            replay_bytes(b"RCCJ\x09\x00\x00\x00"),
            Err(JournalError::Corrupt { .. })
        ));
        assert!(matches!(
            replay_bytes(b"RCC"),
            Err(JournalError::Corrupt { .. })
        ));
    }

    #[test]
    fn append_and_reopen_round_trips() {
        let dir = std::env::temp_dir().join(format!("rccj-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("unit.rccj");
        let _ = std::fs::remove_file(&path);
        let killed = Arc::new(AtomicBool::new(false));
        let (mut j, replay) = Journal::open(&path, true, None, killed.clone()).unwrap();
        assert!(replay.records.is_empty());
        for rec in sample_records() {
            j.append(&rec).unwrap();
        }
        drop(j);
        let (_, replay) = Journal::open(&path, true, None, killed).unwrap();
        assert_eq!(replay.records, sample_records());
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn multi_line_hang_dumps_replay_and_go_out_on_one_line() {
        // Journals written before dumps were folded hold them
        // pretty-printed: they replay unchanged, and the wire form of
        // the error is one line that still parses.
        let dump = "{\n  \"cycle\": 7,\n  \"components\": [\n    {\"name\": \"l1\"}\n  ]\n}";
        let rec = Record::Failed {
            id: 0,
            slices: 1,
            preemptions: 0,
            error: JobError {
                kind: "deadlock",
                detail: "no progress".into(),
                hang_dump: Some(dump.into()),
            },
        };
        let replay = replay_bytes(&journal_bytes(std::slice::from_ref(&rec))).expect("replays");
        let Record::Failed { error, .. } = &replay.records[0] else {
            panic!("{:?}", replay.records);
        };
        assert_eq!(error.hang_dump.as_deref(), Some(dump));
        let wire = error.to_json();
        assert!(!wire.contains('\n'), "{wire}");
        let v = rcc_obs::json::parse(&wire).expect("wire form parses");
        assert_eq!(
            v.get("hang_dump")
                .and_then(|d| d.get("cycle"))
                .and_then(|c| c.as_u64()),
            Some(7)
        );
    }

    #[test]
    fn unknown_error_kind_interns_to_internal() {
        let mut w = SnapWriter::new();
        w.u8(6);
        w.u64(9);
        w.u32(2);
        w.str("mystery-kind");
        w.str("detail");
        w.bool(false);
        let rec = Record::decode(&w.into_bytes()).unwrap();
        match rec {
            Record::Quarantined { error, .. } => assert_eq!(error.kind, "internal"),
            other => panic!("{other:?}"),
        }
    }
}
