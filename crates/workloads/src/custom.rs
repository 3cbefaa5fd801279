//! Custom workloads from a plain-text trace format.
//!
//! Lets users drive the simulator with their own per-warp programs
//! instead of the built-in generators. The format is line-oriented:
//!
//! ```text
//! # comments and blank lines are ignored
//! warp 0 0 wg=0          # start the program of core 0, warp 0
//!   ld 0x100             # load  (byte address; the word containing it)
//!   st 0x140 42          # store value 42
//!   at 0x180 add 3       # atomic fetch-and-add
//!   at 0x180 cas 0 1     # atomic compare-and-swap
//!   at 0x180 exch 7      # atomic exchange
//!   at 0x180 read        # atomic read
//!   fence
//!   compute 20           # busy for 20 cycles
//!   lock 0x1c0           # CAS spin-lock acquire
//!   unlock 0x1c0
//!   barrier 0x200 4      # fast-barrier arrive+poll, 4 members
//!   wait 1               # intra-workgroup wait for barrier epoch 1
//!   until 500            # issue gate: next op not before cycle 500
//! ```
//!
//! # Example
//!
//! ```
//! use rcc_workloads::custom::parse_trace;
//!
//! let wl = parse_trace("warp 0 0 wg=0\n  st 0x100 7\n  ld 0x100\n", 2).unwrap();
//! assert_eq!(wl.programs[0][0].ops.len(), 2);
//! ```

use crate::bench::{Sharing, Workload};
use rcc_common::addr::Addr;
use rcc_common::ids::WorkgroupId;
use rcc_core::msg::AtomicOp;
use rcc_gpu::op::{MemOp, WarpProgram};
use rcc_gpu::MAX_WARPS_PER_CORE;
use std::fmt;

/// A parse failure, with its line number.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseTraceError {
    /// 1-based line number.
    pub line: usize,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for ParseTraceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "trace line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for ParseTraceError {}

fn err(line: usize, message: impl Into<String>) -> ParseTraceError {
    ParseTraceError {
        line,
        message: message.into(),
    }
}

fn parse_u64(s: &str, line: usize, what: &str) -> Result<u64, ParseTraceError> {
    let parsed = if let Some(hex) = s.strip_prefix("0x") {
        u64::from_str_radix(hex, 16)
    } else {
        s.parse()
    };
    parsed.map_err(|_| err(line, format!("bad {what}: {s:?}")))
}

fn parse_addr(s: &str, line: usize) -> Result<rcc_common::addr::WordAddr, ParseTraceError> {
    Ok(Addr(parse_u64(s, line, "address")?).word())
}

/// Parses the trace text into a workload for a machine with `num_cores`
/// cores. Warps may appear in any order; missing warps run nothing.
///
/// # Errors
///
/// Returns a [`ParseTraceError`] naming the offending line on any
/// malformed input (unknown opcode, bad number, op outside a warp,
/// out-of-range core or warp).
pub fn parse_trace(text: &str, num_cores: usize) -> Result<Workload, ParseTraceError> {
    // Per core, per warp: (workgroup, ops), assembled into programs at
    // the end.
    let mut programs: Vec<Vec<(WorkgroupId, Vec<MemOp>)>> = vec![Vec::new(); num_cores];
    let mut current: Option<(usize, usize)> = None;

    for (idx, raw) in text.lines().enumerate() {
        let line_no = idx + 1;
        let line = raw.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        let tokens: Vec<&str> = line.split_whitespace().collect();
        match tokens[0] {
            "warp" => {
                if tokens.len() < 3 {
                    return Err(err(line_no, "expected: warp <core> <warp> [wg=<id>]"));
                }
                let core = parse_u64(tokens[1], line_no, "core")? as usize;
                let warp = parse_u64(tokens[2], line_no, "warp")? as usize;
                if core >= num_cores {
                    return Err(err(line_no, format!("core {core} out of range")));
                }
                if warp >= MAX_WARPS_PER_CORE {
                    return Err(err(
                        line_no,
                        format!("warp {warp} out of range (at most {MAX_WARPS_PER_CORE} per core)"),
                    ));
                }
                let wg = tokens
                    .get(3)
                    .and_then(|t| t.strip_prefix("wg="))
                    .map(|s| parse_u64(s, line_no, "workgroup"))
                    .transpose()?
                    .unwrap_or(core as u64) as usize;
                let progs = &mut programs[core];
                while progs.len() <= warp {
                    progs.push((WorkgroupId(wg), Vec::new()));
                }
                progs[warp].0 = WorkgroupId(wg);
                current = Some((core, warp));
            }
            _ => {
                let Some((core, warp)) = current else {
                    return Err(err(line_no, "operation before any `warp` header"));
                };
                let memop = parse_op(&tokens, line_no)?;
                programs[core][warp].1.push(memop);
            }
        }
    }

    Ok(Workload {
        name: "custom",
        category: Sharing::InterWorkgroup,
        programs: programs
            .into_iter()
            .map(|core| {
                core.into_iter()
                    .map(|(wg, ops)| WarpProgram::new(wg, ops))
                    .collect()
            })
            .collect(),
        warps_per_workgroup: 1,
    })
}

/// Parses one already-tokenized op line (everything after a `warp`
/// header) into a [`MemOp`]. The shared op vocabulary of the text trace
/// formats — `rcc-trace`'s text form delegates here so the two dialects
/// can never drift.
///
/// # Errors
///
/// Returns a [`ParseTraceError`] naming `line_no` on an unknown opcode
/// or malformed operand.
pub fn parse_op(tokens: &[&str], line_no: usize) -> Result<MemOp, ParseTraceError> {
    Ok(match tokens[0] {
        "ld" => MemOp::Load(parse_addr(
            tokens
                .get(1)
                .ok_or_else(|| err(line_no, "ld needs an address"))?,
            line_no,
        )?),
        "st" => {
            let [addr, value] = tokens
                .get(1..3)
                .and_then(|s| <[&str; 2]>::try_from(s).ok())
                .ok_or_else(|| err(line_no, "st needs an address and a value"))?;
            MemOp::Store(
                parse_addr(addr, line_no)?,
                parse_u64(value, line_no, "value")?,
            )
        }
        "at" => {
            let addr = parse_addr(
                tokens
                    .get(1)
                    .ok_or_else(|| err(line_no, "at needs an address"))?,
                line_no,
            )?;
            let op = match tokens.get(2).copied() {
                Some("add") => AtomicOp::Add(parse_u64(
                    tokens
                        .get(3)
                        .ok_or_else(|| err(line_no, "add needs an operand"))?,
                    line_no,
                    "operand",
                )?),
                Some("exch") => AtomicOp::Exch(parse_u64(
                    tokens
                        .get(3)
                        .ok_or_else(|| err(line_no, "exch needs an operand"))?,
                    line_no,
                    "operand",
                )?),
                Some("cas") => {
                    let [e, n] = tokens
                        .get(3..5)
                        .and_then(|s| <[&str; 2]>::try_from(s).ok())
                        .ok_or_else(|| err(line_no, "cas needs expect and new"))?;
                    AtomicOp::Cas {
                        expect: parse_u64(e, line_no, "expect")?,
                        new: parse_u64(n, line_no, "new")?,
                    }
                }
                Some("read") => AtomicOp::Read,
                other => {
                    return Err(err(
                        line_no,
                        format!("unknown atomic {other:?} (add|exch|cas|read)"),
                    ))
                }
            };
            MemOp::Atomic(addr, op)
        }
        "fence" => MemOp::Fence,
        "compute" => MemOp::Compute(parse_u64(
            tokens
                .get(1)
                .ok_or_else(|| err(line_no, "compute needs cycles"))?,
            line_no,
            "cycles",
        )? as u32),
        "lock" => MemOp::Lock(parse_addr(
            tokens
                .get(1)
                .ok_or_else(|| err(line_no, "lock needs an address"))?,
            line_no,
        )?),
        "unlock" => MemOp::Unlock(parse_addr(
            tokens
                .get(1)
                .ok_or_else(|| err(line_no, "unlock needs an address"))?,
            line_no,
        )?),
        "barrier" => {
            let [addr, members] = tokens
                .get(1..3)
                .and_then(|s| <[&str; 2]>::try_from(s).ok())
                .ok_or_else(|| err(line_no, "barrier needs an address and member count"))?;
            MemOp::Barrier {
                word: parse_addr(addr, line_no)?,
                members: parse_u64(members, line_no, "members")?,
            }
        }
        "wait" => MemOp::LocalWait {
            epoch: parse_u64(
                tokens
                    .get(1)
                    .ok_or_else(|| err(line_no, "wait needs an epoch"))?,
                line_no,
                "epoch",
            )?,
        },
        "until" => MemOp::WaitUntil(parse_u64(
            tokens
                .get(1)
                .ok_or_else(|| err(line_no, "until needs a cycle"))?,
            line_no,
            "cycle",
        )?),
        other => return Err(err(line_no, format!("unknown operation {other:?}"))),
    })
}

/// Renders one op in the text vocabulary [`parse_op`] accepts (no
/// leading indentation).
pub fn format_op(op: &MemOp) -> String {
    match op {
        MemOp::Load(a) => format!("ld {:#x}", a.base().0),
        MemOp::Store(a, v) => format!("st {:#x} {v}", a.base().0),
        MemOp::Atomic(a, AtomicOp::Add(v)) => format!("at {:#x} add {v}", a.base().0),
        MemOp::Atomic(a, AtomicOp::Exch(v)) => format!("at {:#x} exch {v}", a.base().0),
        MemOp::Atomic(a, AtomicOp::Cas { expect, new }) => {
            format!("at {:#x} cas {expect} {new}", a.base().0)
        }
        MemOp::Atomic(a, AtomicOp::Read) => format!("at {:#x} read", a.base().0),
        MemOp::Fence => "fence".to_string(),
        MemOp::Compute(c) => format!("compute {c}"),
        MemOp::Lock(a) => format!("lock {:#x}", a.base().0),
        MemOp::Unlock(a) => format!("unlock {:#x}", a.base().0),
        MemOp::Barrier { word, members } => format!("barrier {:#x} {members}", word.base().0),
        MemOp::LocalWait { epoch } => format!("wait {epoch}"),
        MemOp::WaitUntil(t) => format!("until {t}"),
    }
}

/// Renders a workload back into the trace format (round-trips through
/// [`parse_trace`]).
pub fn to_trace(workload: &Workload) -> String {
    let mut out = String::new();
    for (core, warps) in workload.programs.iter().enumerate() {
        for (warp, p) in warps.iter().enumerate() {
            if p.ops.is_empty() {
                continue;
            }
            out.push_str(&format!("warp {core} {warp} wg={}\n", p.workgroup.index()));
            for op in p.ops.iter() {
                out.push_str("  ");
                out.push_str(&format_op(op));
                out.push('\n');
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use rcc_common::addr::LineAddr;

    #[test]
    fn parses_every_opcode() {
        let text = "\
# a comment
warp 0 0 wg=3
  ld 0x100
  st 0x140 42
  at 0x180 add 3
  at 0x180 cas 0 1
  at 0x180 exch 7
  at 0x180 read
  fence
  compute 20
  lock 0x1c0
  unlock 0x1c0
  barrier 0x200 4
  wait 1
  until 500
";
        let wl = parse_trace(text, 2).unwrap();
        let p = &wl.programs[0][0];
        assert_eq!(p.ops.len(), 13);
        assert_eq!(p.ops[12], MemOp::WaitUntil(500));
        assert_eq!(p.workgroup.index(), 3);
        assert_eq!(p.ops[0], MemOp::Load(LineAddr(2).word(0)));
        assert_eq!(p.ops[1], MemOp::Store(LineAddr(2).word(16), 42));
        assert!(matches!(p.ops[10], MemOp::Barrier { members: 4, .. }));
    }

    #[test]
    fn round_trips() {
        let text = "warp 1 2 wg=5\n  st 0x80 9\n  fence\n  until 40\n  at 0x100 cas 1 2\n";
        let wl = parse_trace(text, 4).unwrap();
        let again = parse_trace(&to_trace(&wl), 4).unwrap();
        assert_eq!(
            format!("{:?}", wl.programs),
            format!("{:?}", again.programs)
        );
    }

    #[test]
    fn errors_carry_line_numbers() {
        let e = parse_trace("warp 0 0\n  ld\n", 1).unwrap_err();
        assert_eq!(e.line, 2);
        let e = parse_trace("ld 0x0\n", 1).unwrap_err();
        assert_eq!(e.line, 1);
        assert!(e.message.contains("before any"));
        let e = parse_trace("warp 9 0\n", 2).unwrap_err();
        assert!(e.message.contains("out of range"));
        let e = parse_trace("warp 0 64\n", 1).unwrap_err();
        assert!(e.message.contains("warp 64 out of range"), "{}", e.message);
        let e = parse_trace("warp 0 0\n  at 0x0 nand 1\n", 1).unwrap_err();
        assert!(e.message.contains("unknown atomic"));
    }

    #[test]
    fn sparse_warps_are_padded() {
        let wl = parse_trace("warp 0 2 wg=0\n  ld 0x0\n", 1).unwrap();
        assert_eq!(wl.programs[0].len(), 3);
        assert!(wl.programs[0][0].is_empty());
        assert!(wl.programs[0][1].is_empty());
        assert_eq!(wl.programs[0][2].ops.len(), 1);
    }

    #[test]
    fn parsed_trace_runs_end_to_end() {
        // mp through the custom format, run under RCC.
        let text = "\
warp 0 0 wg=0
  st 0x0 1
  st 0x80 1
warp 1 0 wg=1
  ld 0x80
  ld 0x0
";
        let wl = parse_trace(text, 4).unwrap();
        assert_eq!(wl.static_mem_ops(), 4);
    }
}
