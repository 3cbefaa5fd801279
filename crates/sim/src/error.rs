//! Typed simulation failures and the forensic hang-dump.
//!
//! Every way a run can go wrong — deadlock, cycle-budget exhaustion, a
//! protocol invariant breaking mid-run, an SC verdict failing, a litmus
//! probe not executing, a bad checkpoint — is a [`SimError`] variant
//! propagated by `Result` instead of a panic, so a 5000-run sweep
//! degrades to one failed job rather than a dead process.
//!
//! When the watchdog fires, the engine assembles a [`HangDump`]: the
//! per-component `next_event` horizon and queue occupancy, every blocked
//! warp with the access it is stalled on, the components that still hold
//! work but schedule no event (the prime suspects), and the state digest
//! of the stuck machine. Its JSON rendering is pinned by
//! `schemas/hangdump.schema.json`.

use rcc_core::ProtocolKind;
use rcc_gpu::WarpState;
use rcc_obs::json::escape;
use std::fmt;

/// The result of a fallible simulation entry point.
pub type RunOutcome<T> = Result<T, SimError>;

/// A typed simulation failure.
#[must_use = "a SimError explains why the run failed; log or propagate it"]
#[derive(Debug, Clone)]
pub enum SimError {
    /// The watchdog detected no forward progress. Carries the full
    /// forensic dump of the stuck machine.
    Deadlock(Box<HangDump>),
    /// The run did not finish within its cycle budget.
    CyclesExceeded {
        /// Protocol under test.
        kind: ProtocolKind,
        /// Workload name.
        workload: String,
        /// The exhausted budget.
        max_cycles: u64,
    },
    /// An engine invariant broke mid-run (e.g. a store or atomic
    /// completion arrived without its pending value).
    ProtocolInvariant {
        /// Protocol under test.
        kind: ProtocolKind,
        /// Workload name.
        workload: String,
        /// Cycle at which the invariant broke.
        cycle: u64,
        /// Human-readable description of the broken invariant.
        detail: String,
    },
    /// The SC scoreboard observed coherence-order violations on a
    /// protocol that claims sequential consistency.
    ScViolation {
        /// Protocol under test.
        kind: ProtocolKind,
        /// Workload name.
        workload: String,
        /// Number of violations the scoreboard counted.
        violations: u64,
    },
    /// The runtime SC sanitizer found no SC total order explaining the
    /// execution of an SC-capable protocol.
    SanitizerViolation {
        /// Protocol under test.
        kind: ProtocolKind,
        /// Workload name.
        workload: String,
    },
    /// A litmus probe's load never executed, so its outcome cannot be
    /// judged.
    ProbeMissing {
        /// Litmus test name.
        litmus: String,
        /// Description of the probe that did not execute.
        probe: String,
    },
    /// A checkpoint could not be written, read, or verified.
    Checkpoint(String),
    /// A requested memory-access trace could not be recorded or loaded.
    Trace(String),
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::Deadlock(dump) => write!(
                f,
                "{} on {}: deadlock at cycle {} (no progress since cycle {}; \
                 {} mem ops pending; suspects: {})",
                dump.protocol,
                dump.workload,
                dump.cycle,
                dump.last_progress,
                dump.mem_pending,
                if dump.suspects.is_empty() {
                    "none".to_string()
                } else {
                    dump.suspects.join(", ")
                }
            ),
            SimError::CyclesExceeded {
                kind,
                workload,
                max_cycles,
            } => write!(
                f,
                "{kind} on {workload}: did not finish within {max_cycles} cycles"
            ),
            SimError::ProtocolInvariant {
                kind,
                workload,
                cycle,
                detail,
            } => write!(
                f,
                "{kind} on {workload}: protocol invariant broken at cycle {cycle}: {detail}"
            ),
            SimError::ScViolation {
                kind,
                workload,
                violations,
            } => write!(
                f,
                "{kind} on {workload}: {violations} SC violation(s) on the scoreboard"
            ),
            SimError::SanitizerViolation { kind, workload } => write!(
                f,
                "{kind} on {workload}: sanitizer found no SC order for the execution"
            ),
            SimError::ProbeMissing { litmus, probe } => {
                write!(f, "{litmus}: probe {probe} did not execute")
            }
            SimError::Checkpoint(msg) => write!(f, "checkpoint error: {msg}"),
            SimError::Trace(msg) => write!(f, "trace error: {msg}"),
        }
    }
}

impl std::error::Error for SimError {}

/// One simulated component's view at the moment of the hang: how much
/// work it holds and when (if ever) it next schedules an event.
#[derive(Debug, Clone)]
pub struct ComponentState {
    /// Component name (`core3`, `l1-5`, `l2-bank0`, `noc-req`, ...).
    pub name: String,
    /// Occupancy: pending ops / in-flight messages / queued entries.
    pub pending: u64,
    /// The component's `next_event` horizon; `None` means it schedules
    /// nothing — combined with `pending > 0` that makes it a suspect.
    pub next_event: Option<u64>,
}

/// Forensic dump of a hung machine, emitted when the watchdog fires.
#[must_use = "the dump is the only record of the hang; render or attach it"]
#[derive(Debug, Clone)]
pub struct HangDump {
    /// Protocol label.
    pub protocol: String,
    /// Workload name.
    pub workload: String,
    /// Cycle at which the watchdog fired.
    pub cycle: u64,
    /// Last cycle that made forward progress.
    pub last_progress: u64,
    /// The watchdog threshold that was exceeded.
    pub watchdog_cycles: u64,
    /// Memory operations still pending system-wide.
    pub mem_pending: u64,
    /// Rollover FSM state (`Debug` rendering).
    pub rollover: String,
    /// Cross-component state digest of the stuck machine (hex), so a
    /// checkpoint replay can attest it reconstructed this exact state.
    pub state_digest: u64,
    /// Every component with its occupancy and `next_event` horizon.
    pub components: Vec<ComponentState>,
    /// Every non-retired warp and the access it is stalled on.
    pub blocked_warps: Vec<BlockedWarp>,
    /// Components holding work but scheduling no event — where to look
    /// first.
    pub suspects: Vec<String>,
    /// Path of the auto-checkpoint written alongside the dump (replays
    /// deterministically to `cycle`), when one was written.
    pub checkpoint: Option<String>,
}

/// A blocked warp in the hang-dump: [`WarpState`] plus its core.
#[derive(Debug, Clone)]
pub struct BlockedWarp {
    /// Core index.
    pub core: usize,
    /// The warp's forensic state.
    pub state: WarpState,
}

fn opt_u64(v: Option<u64>) -> String {
    v.map_or("null".to_string(), |x| x.to_string())
}

impl HangDump {
    /// Serializes in the `schemas/hangdump.schema.json` shape.
    pub fn to_json(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::from("{\n");
        let _ = writeln!(out, "  \"protocol\": \"{}\",", escape(&self.protocol));
        let _ = writeln!(out, "  \"workload\": \"{}\",", escape(&self.workload));
        let _ = writeln!(out, "  \"cycle\": {},", self.cycle);
        let _ = writeln!(out, "  \"last_progress\": {},", self.last_progress);
        let _ = writeln!(out, "  \"watchdog_cycles\": {},", self.watchdog_cycles);
        let _ = writeln!(out, "  \"mem_pending\": {},", self.mem_pending);
        let _ = writeln!(out, "  \"rollover\": \"{}\",", escape(&self.rollover));
        let _ = writeln!(out, "  \"state_digest\": \"{:016x}\",", self.state_digest);
        let _ = writeln!(
            out,
            "  \"checkpoint\": {},",
            self.checkpoint
                .as_ref()
                .map_or("null".to_string(), |p| format!("\"{}\"", escape(p)))
        );
        out.push_str("  \"components\": [\n");
        for (i, c) in self.components.iter().enumerate() {
            let _ = write!(
                out,
                "    {{\"name\": \"{}\", \"pending\": {}, \"next_event\": {}}}",
                escape(&c.name),
                c.pending,
                opt_u64(c.next_event)
            );
            out.push_str(if i + 1 < self.components.len() {
                ",\n"
            } else {
                "\n"
            });
        }
        out.push_str("  ],\n");
        out.push_str("  \"blocked_warps\": [\n");
        for (i, b) in self.blocked_warps.iter().enumerate() {
            let w = &b.state;
            let _ = write!(
                out,
                "    {{\"core\": {}, \"warp\": {}, \"pc\": {}, \"micro\": \"{}\", \
                 \"at_fence\": {}, \"waiting_local\": {}, \"stalled_op\": {}, \
                 \"outstanding\": [",
                b.core,
                w.warp,
                w.pc,
                escape(&w.micro),
                w.at_fence,
                opt_u64(w.waiting_local),
                w.stalled_op
                    .as_ref()
                    .map_or("null".to_string(), |o| format!("\"{}\"", escape(o)))
            );
            for (j, o) in w.outstanding.iter().enumerate() {
                let _ = write!(
                    out,
                    "{}{{\"addr\": {}, \"class\": \"{}\", \"issued\": {}}}",
                    if j > 0 { ", " } else { "" },
                    o.addr,
                    escape(&o.class),
                    o.issued
                );
            }
            out.push_str("]}");
            out.push_str(if i + 1 < self.blocked_warps.len() {
                ",\n"
            } else {
                "\n"
            });
        }
        out.push_str("  ],\n");
        out.push_str("  \"suspects\": [");
        for (i, s) in self.suspects.iter().enumerate() {
            let _ = write!(out, "{}\"{}\"", if i > 0 { ", " } else { "" }, escape(s));
        }
        out.push_str("]\n}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rcc_gpu::OutstandingAccess;

    const SCHEMA: &str = include_str!(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../schemas/hangdump.schema.json"
    ));

    /// A workload name can come from a binary trace file and the
    /// checkpoint path from the command line: neither is bound to
    /// printable characters.
    #[test]
    fn a_dump_with_control_characters_is_valid_json() {
        let dump = HangDump {
            protocol: "RCC-SC".into(),
            workload: "tab\there\nnew\"line\\".into(),
            cycle: 9,
            last_progress: 1,
            watchdog_cycles: 8,
            mem_pending: 1,
            rollover: "idle".into(),
            state_digest: 0xabc,
            components: vec![ComponentState {
                name: "core0".into(),
                pending: 1,
                next_event: None,
            }],
            blocked_warps: vec![BlockedWarp {
                core: 0,
                state: WarpState {
                    warp: 0,
                    pc: 3,
                    micro: "wait\r".into(),
                    at_fence: false,
                    waiting_local: Some(1),
                    stalled_op: Some("ld\u{1}".into()),
                    outstanding: vec![OutstandingAccess {
                        addr: 64,
                        class: "load".into(),
                        issued: 2,
                    }],
                },
            }],
            suspects: vec!["core0".into()],
            checkpoint: Some("runs/ck\tone\n.hang".into()),
        };
        let json = dump.to_json();
        // RFC 8259 forbids raw control characters inside strings; the
        // dump's only raw ones are the newlines that lay out its fields.
        assert!(
            !json.lines().any(|l| l.contains(char::is_control)),
            "{json}"
        );
        let doc = rcc_obs::json::parse(&json).expect("the dump parses");
        assert_eq!(
            doc.get("workload").and_then(|w| w.as_str()),
            Some(dump.workload.as_str())
        );
        assert_eq!(
            doc.get("checkpoint").and_then(|c| c.as_str()),
            dump.checkpoint.as_deref()
        );
        assert_eq!(
            rcc_obs::schema::validate_text(SCHEMA, &json),
            Ok(Vec::new()),
            "{json}"
        );
    }
}
