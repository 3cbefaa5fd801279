#![forbid(unsafe_code)]
#![warn(missing_docs)]
//! Trace capture + deterministic replay: pin a *specific* per-warp
//! memory-access stream and re-execute it through the full system under
//! any protocol.
//!
//! The built-in workload generators produce access streams
//! synthetically; a [`Trace`] freezes one — captured from a live run by
//! the [`TraceRecorder`], or authored by hand in the [`text`] dialect —
//! so the same stream can be replayed across protocols (differential
//! testing), committed as a tiny regression artifact, or fuzzed through
//! the chaos injector. The Tardis-style equivalence argument wants
//! exactly this: identical memory-operation histories presented to
//! different coherence protocols.
//!
//! Two replay modes:
//!
//! - **Exact** ([`Trace::to_workload`]): the program stream alone. The
//!   simulator is deterministic from its inputs, so replaying a recorded
//!   trace under the recording protocol reproduces the originating run
//!   bit-identically (metrics and state digests) — the issue-cycle
//!   annotations are provenance, not required input.
//! - **Timed** ([`Trace::to_workload_timed`]): each annotated op is
//!   preceded by a [`MemOp::WaitUntil`] gate pinning its earliest issue
//!   to the recorded cycle, so the calendar-queue scheduler's wake
//!   events are driven by the trace's own timing. Useful for replaying a
//!   stream's *shape* under a different protocol, where the original
//!   issue cycles are not naturally reproduced.
//!
//! The on-disk format (`RCCT`) reuses the [`rcc_common::snap`] codec:
//! magic, version, fail-closed decoding of every field, a trailing-byte
//! check, and an FNV digest footer over the payload so corruption is a
//! typed [`TraceError`] — never a panic, never silently accepted.

use rcc_common::snap::{SnapError, SnapReader, SnapWriter, StateDigest};
use rcc_gpu::op::MemOp;
use rcc_gpu::{WarpProgram, MAX_WARPS_PER_CORE};
use rcc_workloads::custom::ParseTraceError;
use rcc_workloads::{Sharing, Workload};
use std::fmt;

pub mod text;

/// Magic prefix of the binary trace format.
pub const MAGIC: &[u8; 4] = b"RCCT";
/// Current format version.
pub const VERSION: u32 = 1;

/// A trace failure: corrupt bytes, a text-dialect parse error, or I/O.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TraceError {
    /// The binary payload failed to decode: bad magic, unsupported
    /// version, digest mismatch, truncation, or trailing bytes.
    Corrupt(String),
    /// The text dialect failed to parse (carries the offending line).
    Parse(ParseTraceError),
    /// Reading or writing the trace file failed.
    Io(String),
    /// The trace does not fit the target machine (more cores than the
    /// configuration provides).
    Mismatch(String),
}

impl fmt::Display for TraceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TraceError::Corrupt(m) => write!(f, "corrupt trace: {m}"),
            TraceError::Parse(e) => write!(f, "{e}"),
            TraceError::Io(m) => write!(f, "trace i/o: {m}"),
            TraceError::Mismatch(m) => write!(f, "trace mismatch: {m}"),
        }
    }
}

impl std::error::Error for TraceError {}

impl From<ParseTraceError> for TraceError {
    fn from(e: ParseTraceError) -> Self {
        TraceError::Parse(e)
    }
}

/// One operation of a traced warp program, with optional provenance:
/// the cycle the op first issued at in the recorded run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceOp {
    /// The operation.
    pub op: MemOp,
    /// First-issue cycle in the recorded run (`None` for hand-authored
    /// ops, or ops the recorded run never reached).
    pub issue_cycle: Option<u64>,
}

/// The traced program of one warp.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TraceProgram {
    /// Workgroup the warp belongs to.
    pub workgroup: u64,
    /// Operations in program order.
    pub ops: Vec<TraceOp>,
}

/// Provenance of a recorded trace: which run produced it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceSource {
    /// Label of the protocol the recording ran under.
    pub protocol: String,
    /// Total cycles of the recording run.
    pub cycles: u64,
}

/// A frozen per-warp memory-access stream, replayable on any protocol.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Trace {
    /// Workload name, preserved verbatim so exact replay folds the same
    /// name into `state_digest()` as the originating run.
    pub name: String,
    /// Sharing category (drives warps-per-workgroup layout downstream).
    pub category: Sharing,
    /// Warps per workgroup of the original workload.
    pub warps_per_workgroup: usize,
    /// Recording provenance; `None` for hand-authored traces.
    pub source: Option<TraceSource>,
    /// Per-core, per-warp programs (`warps[core][warp]`).
    pub warps: Vec<Vec<TraceProgram>>,
}

/// Summary counts for a trace (the CLI's `stats` view).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TraceStats {
    /// Cores with at least one warp entry.
    pub cores: usize,
    /// Warp programs (including empty padding warps).
    pub warps: usize,
    /// Total operations.
    pub ops: usize,
    /// Operations that issue global memory accesses.
    pub memory_ops: usize,
    /// Operations carrying an issue-cycle annotation.
    pub annotated: usize,
    /// Largest annotated issue cycle, if any op is annotated.
    pub last_issue: Option<u64>,
}

impl Trace {
    /// Freezes a workload into an unannotated trace.
    pub fn from_workload(wl: &Workload) -> Trace {
        Trace {
            name: wl.name.to_string(),
            category: wl.category,
            warps_per_workgroup: wl.warps_per_workgroup,
            source: None,
            warps: wl
                .programs
                .iter()
                .map(|core| {
                    core.iter()
                        .map(|p| TraceProgram {
                            workgroup: p.workgroup.index() as u64,
                            ops: p
                                .ops
                                .iter()
                                .map(|&op| TraceOp {
                                    op,
                                    issue_cycle: None,
                                })
                                .collect(),
                        })
                        .collect()
                })
                .collect(),
        }
    }

    /// Number of cores this trace spans.
    pub fn num_cores(&self) -> usize {
        self.warps.len()
    }

    /// Summary counts.
    pub fn stats(&self) -> TraceStats {
        let mut s = TraceStats {
            cores: self.warps.iter().filter(|c| !c.is_empty()).count(),
            ..TraceStats::default()
        };
        for core in &self.warps {
            for warp in core {
                s.warps += 1;
                for op in &warp.ops {
                    s.ops += 1;
                    if op.op.is_memory() {
                        s.memory_ops += 1;
                    }
                    if let Some(c) = op.issue_cycle {
                        s.annotated += 1;
                        s.last_issue = Some(s.last_issue.map_or(c, |m: u64| m.max(c)));
                    }
                }
            }
        }
        s
    }

    fn programs(&self, timed: bool) -> Vec<Vec<WarpProgram>> {
        self.warps
            .iter()
            .map(|core| {
                core.iter()
                    .map(|p| {
                        let mut ops = Vec::with_capacity(p.ops.len());
                        for t in &p.ops {
                            if timed {
                                if let Some(cycle) = t.issue_cycle {
                                    ops.push(MemOp::WaitUntil(cycle));
                                }
                            }
                            ops.push(t.op);
                        }
                        WarpProgram::new(rcc_common::ids::WorkgroupId(p.workgroup as usize), ops)
                    })
                    .collect()
            })
            .collect()
    }

    fn check_fits(&self, num_cores: usize) -> Result<(), TraceError> {
        if self.num_cores() > num_cores {
            return Err(TraceError::Mismatch(format!(
                "trace spans {} cores but the machine has {num_cores}",
                self.num_cores()
            )));
        }
        // The core model has a fixed number of warp slots; the text
        // parser and checkpoint decoder enforce the same bound.
        let most = self.warps.iter().map(Vec::len).max().unwrap_or(0);
        if most > MAX_WARPS_PER_CORE {
            let msg = format!("{most} warps on one core (at most {MAX_WARPS_PER_CORE})");
            return Err(TraceError::Mismatch(msg));
        }
        Ok(())
    }

    /// Lowers the trace into a replayable workload for a machine with
    /// `num_cores` cores: the exact program stream, annotations dropped.
    /// Replaying under the recording protocol and configuration
    /// reproduces the originating run bit-identically.
    ///
    /// # Errors
    ///
    /// [`TraceError::Mismatch`] if the trace spans more cores than the
    /// machine has, or more warps on a core than a core holds.
    pub fn to_workload(&self, num_cores: usize) -> Result<Workload, TraceError> {
        self.check_fits(num_cores)?;
        Ok(Workload {
            // Workload names are `&'static str` (they outlive every run
            // handle); a replayed trace leaks its name once, like a
            // restored checkpoint does.
            name: Box::leak(self.name.clone().into_boxed_str()),
            category: self.category,
            programs: self.programs(false),
            warps_per_workgroup: self.warps_per_workgroup,
        })
    }

    /// Lowers the trace into a *timed* workload: each annotated op is
    /// preceded by a [`MemOp::WaitUntil`] gate at its recorded issue
    /// cycle, so replay wakes warps on the trace's own schedule.
    ///
    /// # Errors
    ///
    /// [`TraceError::Mismatch`] if the trace spans more cores than the
    /// machine has, or more warps on a core than a core holds.
    pub fn to_workload_timed(&self, num_cores: usize) -> Result<Workload, TraceError> {
        self.check_fits(num_cores)?;
        Ok(Workload {
            name: Box::leak(self.name.clone().into_boxed_str()),
            category: self.category,
            programs: self.programs(true),
            warps_per_workgroup: self.warps_per_workgroup,
        })
    }

    /// Serializes into the versioned binary format: magic, version,
    /// payload, and an FNV digest footer over everything before it.
    pub fn encode(&self) -> Vec<u8> {
        let mut w = SnapWriter::new();
        for b in MAGIC {
            w.u8(*b);
        }
        w.u32(VERSION);
        w.str(&self.name);
        w.u8(match self.category {
            Sharing::InterWorkgroup => 0,
            Sharing::IntraWorkgroup => 1,
        });
        w.u64(self.warps_per_workgroup as u64);
        match &self.source {
            Some(src) => {
                w.bool(true);
                w.str(&src.protocol);
                w.u64(src.cycles);
            }
            None => w.bool(false),
        }
        w.u32(self.warps.len() as u32);
        for core in &self.warps {
            w.u32(core.len() as u32);
            for warp in core {
                w.u64(warp.workgroup);
                w.u32(warp.ops.len() as u32);
                for op in &warp.ops {
                    op.op.snap(&mut w);
                    w.opt_u64(op.issue_cycle);
                }
            }
        }
        let mut bytes = w.into_bytes();
        let mut d = StateDigest::new();
        d.write_bytes(&bytes);
        bytes.extend_from_slice(&d.finish().to_le_bytes());
        bytes
    }

    /// Decodes a trace written by [`Trace::encode`].
    ///
    /// # Errors
    ///
    /// [`TraceError::Corrupt`] on a bad magic, an unsupported version, a
    /// digest mismatch, or any truncation/corruption of the payload.
    pub fn decode(bytes: &[u8]) -> Result<Trace, TraceError> {
        let fail = |e: SnapError| TraceError::Corrupt(e.to_string());
        if bytes.len() < 8 {
            return Err(TraceError::Corrupt(format!(
                "{} bytes is too short for the digest footer",
                bytes.len()
            )));
        }
        let (payload, footer) = bytes.split_at(bytes.len() - 8);
        let stored = u64::from_le_bytes(footer.try_into().expect("split at len-8"));
        let mut d = StateDigest::new();
        d.write_bytes(payload);
        let computed = d.finish();
        if stored != computed {
            return Err(TraceError::Corrupt(format!(
                "digest mismatch: footer {stored:#018x}, payload {computed:#018x}"
            )));
        }
        let mut r = SnapReader::new(payload);
        let mut magic = [0u8; 4];
        for b in &mut magic {
            *b = r.u8().map_err(fail)?;
        }
        if &magic != MAGIC {
            return Err(TraceError::Corrupt(format!(
                "bad magic {magic:02x?} (expected {MAGIC:02x?})"
            )));
        }
        let version = r.u32().map_err(fail)?;
        if version != VERSION {
            return Err(TraceError::Corrupt(format!(
                "unsupported version {version} (expected {VERSION})"
            )));
        }
        let name = r.str().map_err(fail)?;
        let category = match r.u8().map_err(fail)? {
            0 => Sharing::InterWorkgroup,
            1 => Sharing::IntraWorkgroup,
            other => {
                return Err(TraceError::Corrupt(format!("unknown sharing tag {other}")));
            }
        };
        let warps_per_workgroup = r.u64().map_err(fail)? as usize;
        let source = if r.bool().map_err(fail)? {
            Some(TraceSource {
                protocol: r.str().map_err(fail)?,
                cycles: r.u64().map_err(fail)?,
            })
        } else {
            None
        };
        let ncores = r.u32().map_err(fail)? as usize;
        let mut warps = Vec::with_capacity(ncores);
        for _ in 0..ncores {
            let nwarps = r.u32().map_err(fail)? as usize;
            let mut core = Vec::with_capacity(nwarps);
            for _ in 0..nwarps {
                let workgroup = r.u64().map_err(fail)?;
                let nops = r.u32().map_err(fail)? as usize;
                let mut ops = Vec::with_capacity(nops);
                for _ in 0..nops {
                    let op = MemOp::unsnap(&mut r).map_err(fail)?;
                    let issue_cycle = r.opt_u64().map_err(fail)?;
                    ops.push(TraceOp { op, issue_cycle });
                }
                core.push(TraceProgram { workgroup, ops });
            }
            warps.push(core);
        }
        r.done().map_err(fail)?;
        Ok(Trace {
            name,
            category,
            warps_per_workgroup,
            source,
            warps,
        })
    }

    /// Writes the binary form to `path`.
    ///
    /// # Errors
    ///
    /// [`TraceError::Io`] if the file cannot be written.
    pub fn save(&self, path: &str) -> Result<(), TraceError> {
        std::fs::write(path, self.encode()).map_err(|e| TraceError::Io(format!("{path}: {e}")))
    }

    /// Reads and decodes a binary trace from `path`.
    ///
    /// # Errors
    ///
    /// [`TraceError::Io`] if the file cannot be read;
    /// [`TraceError::Corrupt`] if its contents fail to decode.
    pub fn load(path: &str) -> Result<Trace, TraceError> {
        let bytes = std::fs::read(path).map_err(|e| TraceError::Io(format!("{path}: {e}")))?;
        Trace::decode(&bytes)
    }

    /// Reads a trace in either format: files starting with the `RCCT`
    /// magic decode as binary, everything else parses as the text
    /// dialect. This is the sniff every consumer (driver, harness,
    /// `rcc-trace` tool) shares.
    ///
    /// # Errors
    ///
    /// [`TraceError::Io`] if the file cannot be read (or is not UTF-8
    /// text without the magic); [`TraceError::Corrupt`] /
    /// [`TraceError::Parse`] if the respective decoder rejects it.
    pub fn load_any(path: &str) -> Result<Trace, TraceError> {
        let bytes = std::fs::read(path).map_err(|e| TraceError::Io(format!("{path}: {e}")))?;
        if bytes.starts_with(MAGIC) {
            Trace::decode(&bytes)
        } else {
            let text =
                String::from_utf8(bytes).map_err(|e| TraceError::Io(format!("{path}: {e}")))?;
            crate::text::parse_text(&text)
        }
    }

    /// JSON summary of the trace (name, provenance, counts) in the
    /// `schemas/trace_manifest.schema.json` shape — the human-readable
    /// sidecar for a committed binary trace.
    pub fn manifest_json(&self) -> String {
        use std::fmt::Write as _;
        let s = self.stats();
        let mut out = String::from("{\n");
        let _ = writeln!(out, "  \"format\": \"RCCT\",");
        let _ = writeln!(out, "  \"version\": {VERSION},");
        let _ = writeln!(out, "  \"name\": {:?},", self.name);
        let _ = writeln!(
            out,
            "  \"category\": \"{}\",",
            match self.category {
                Sharing::InterWorkgroup => "inter",
                Sharing::IntraWorkgroup => "intra",
            }
        );
        let _ = writeln!(
            out,
            "  \"warps_per_workgroup\": {},",
            self.warps_per_workgroup
        );
        match &self.source {
            Some(src) => {
                let _ = writeln!(out, "  \"source_protocol\": {:?},", src.protocol);
                let _ = writeln!(out, "  \"source_cycles\": {},", src.cycles);
            }
            None => {
                let _ = writeln!(out, "  \"source_protocol\": null,");
                let _ = writeln!(out, "  \"source_cycles\": null,");
            }
        }
        let _ = writeln!(out, "  \"cores\": {},", s.cores);
        let _ = writeln!(out, "  \"warps\": {},", s.warps);
        let _ = writeln!(out, "  \"ops\": {},", s.ops);
        let _ = writeln!(out, "  \"memory_ops\": {},", s.memory_ops);
        let _ = writeln!(out, "  \"annotated_ops\": {}", s.annotated);
        out.push('}');
        out.push('\n');
        out
    }
}

/// Captures the trace of a live run: one issue-cycle annotation per
/// program op, first-write-wins (lock-CAS retries and barrier re-polls
/// re-present the same `pc` and are ignored).
///
/// The recorder is fed from outside the simulated machine — the
/// simulator taps each core's per-tick [`rcc_gpu::CoreOutput`] — so
/// arming it cannot perturb simulated state (the passivity proof lives
/// in the simulator's test suite).
#[derive(Debug, Clone)]
pub struct TraceRecorder {
    trace: Trace,
}

impl TraceRecorder {
    /// Arms a recorder for one run of `workload`.
    pub fn new(workload: &Workload) -> TraceRecorder {
        TraceRecorder {
            trace: Trace::from_workload(workload),
        }
    }

    /// Notes that core `core`'s warp `warp` first issued the program op
    /// at `pc` on `cycle`. Later notes for the same op (retries out of
    /// backoff states do not recur, but defensively) are ignored, as are
    /// out-of-range indices.
    pub fn note_issue(&mut self, core: usize, warp: usize, pc: usize, cycle: u64) {
        if let Some(slot) = self
            .trace
            .warps
            .get_mut(core)
            .and_then(|c| c.get_mut(warp))
            .and_then(|w| w.ops.get_mut(pc))
        {
            if slot.issue_cycle.is_none() {
                slot.issue_cycle = Some(cycle);
            }
        }
    }

    /// Finalizes the capture, stamping provenance (protocol label and
    /// total cycles of the recording run).
    pub fn finish(mut self, protocol: &str, cycles: u64) -> Trace {
        self.trace.source = Some(TraceSource {
            protocol: protocol.to_string(),
            cycles,
        });
        self.trace
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rcc_common::addr::WordAddr;

    fn sample() -> Trace {
        Trace {
            name: "mp".into(),
            category: Sharing::InterWorkgroup,
            warps_per_workgroup: 1,
            source: Some(TraceSource {
                protocol: "rcc-sc".into(),
                cycles: 1234,
            }),
            warps: vec![
                vec![TraceProgram {
                    workgroup: 0,
                    ops: vec![
                        TraceOp {
                            op: MemOp::Store(WordAddr(0), 1),
                            issue_cycle: Some(3),
                        },
                        TraceOp {
                            op: MemOp::Store(WordAddr(32), 1),
                            issue_cycle: Some(60),
                        },
                    ],
                }],
                vec![TraceProgram {
                    workgroup: 1,
                    ops: vec![
                        TraceOp {
                            op: MemOp::Load(WordAddr(32)),
                            issue_cycle: None,
                        },
                        TraceOp {
                            op: MemOp::Load(WordAddr(0)),
                            issue_cycle: Some(99),
                        },
                    ],
                }],
            ],
        }
    }

    #[test]
    fn encode_decode_round_trips() {
        let t = sample();
        let bytes = t.encode();
        let back = Trace::decode(&bytes).unwrap();
        assert_eq!(t, back);
        // Re-encoding is byte-identical (canonical form).
        assert_eq!(bytes, back.encode());
    }

    #[test]
    fn workload_lowering_preserves_programs() {
        let t = sample();
        let wl = t.to_workload(4).unwrap();
        assert_eq!(wl.name, "mp");
        assert_eq!(wl.programs.len(), 2);
        assert_eq!(wl.programs[0][0].ops.len(), 2);
        // Timed lowering inserts one gate per annotated op.
        let timed = t.to_workload_timed(4).unwrap();
        assert_eq!(timed.programs[0][0].ops[0], MemOp::WaitUntil(3));
        assert_eq!(timed.programs[0][0].ops[1], MemOp::Store(WordAddr(0), 1));
        // The unannotated load gets no gate.
        assert_eq!(timed.programs[1][0].ops.len(), 3);
        assert_eq!(timed.programs[1][0].ops[0], MemOp::Load(WordAddr(32)));
    }

    #[test]
    fn oversized_trace_is_a_mismatch() {
        let t = sample();
        assert!(matches!(t.to_workload(1), Err(TraceError::Mismatch(_))));
        let mut crowded = sample();
        crowded.warps[1] = vec![crowded.warps[1][0].clone(); MAX_WARPS_PER_CORE + 1];
        assert!(matches!(
            crowded.to_workload(2),
            Err(TraceError::Mismatch(_))
        ));
        assert!(matches!(
            crowded.to_workload_timed(2),
            Err(TraceError::Mismatch(_))
        ));
        crowded.warps[1].pop();
        assert!(crowded.to_workload(2).is_ok(), "a full core still fits");
    }

    #[test]
    fn recorder_first_write_wins() {
        let wl = sample().to_workload(2).unwrap();
        let mut rec = TraceRecorder::new(&wl);
        rec.note_issue(0, 0, 0, 10);
        rec.note_issue(0, 0, 0, 20); // ignored
        rec.note_issue(9, 9, 9, 30); // out of range: ignored
        let t = rec.finish("mesi", 500);
        assert_eq!(t.warps[0][0].ops[0].issue_cycle, Some(10));
        assert_eq!(t.warps[0][0].ops[1].issue_cycle, None);
        assert_eq!(
            t.source,
            Some(TraceSource {
                protocol: "mesi".into(),
                cycles: 500
            })
        );
    }

    #[test]
    fn stats_count_what_they_claim() {
        let s = sample().stats();
        assert_eq!(s.cores, 2);
        assert_eq!(s.warps, 2);
        assert_eq!(s.ops, 4);
        assert_eq!(s.memory_ops, 4);
        assert_eq!(s.annotated, 3);
        assert_eq!(s.last_issue, Some(99));
    }

    #[test]
    fn manifest_names_the_format() {
        let json = sample().manifest_json();
        assert!(json.contains("\"format\": \"RCCT\""));
        assert!(json.contains("\"name\": \"mp\""));
        assert!(json.contains("\"annotated_ops\": 3"));
    }
}
