//! Sequential-consistency scoreboard.
//!
//! Every protocol in this crate assigns each memory operation a position
//! in a global order: a [`Completion`] carries `ts` (logical time for
//! RCC, physical L2-service time for MESI/TC-Strong) and `seq` (the L2
//! partition's write serialization counter, breaking ties between writes
//! that share a logical version — footnote 2 of the paper). The
//! scoreboard records every completed operation and verifies, post hoc,
//! the invariant that makes these positions a witness of SC:
//!
//! > a load with position `t` observes the value of the write to the same
//! > word with the greatest `(ts, seq)` among writes with `ts ≤ t`
//! > (or the initial value 0 if there is none), and per-warp positions
//! > never decrease (program order is respected).
//!
//! Together with per-core monotonicity of `ts` (which the protocols
//! guarantee by construction), this implies the execution is explainable
//! by a single interleaving — the definition of SC. TC-Weak violates the
//! invariant by design (it gives up write atomicity); tests assert that
//! the scoreboard *does* catch it.

use crate::msg::{Completion, CompletionKind};
use rcc_common::addr::WordAddr;
use rcc_common::ids::{CoreId, WarpId};
use rcc_common::time::Timestamp;
use rcc_common::FxHashMap;
use std::fmt;

/// A recorded write: global position and the value it left in memory.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct WriteRecord {
    ts: Timestamp,
    seq: u64,
    value: u64,
}

/// A recorded read: global position and the value observed.
#[derive(Debug, Clone, Copy)]
struct ReadRecord {
    core: CoreId,
    warp: WarpId,
    ts: Timestamp,
    /// The read observes every write strictly before `(ts, seq)`.
    /// RCC loads carry `u64::MAX` (logical position `t` observes every
    /// write with `ver ≤ t`); MESI/TC loads carry the bank service or
    /// fill sequence; an atomic's read half carries its own write's slot.
    seq: u64,
    value: u64,
}

/// An SC violation found by [`Scoreboard::check`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScViolation {
    /// Core that performed the offending read.
    pub core: CoreId,
    /// Warp that performed it.
    pub warp: WarpId,
    /// Word read.
    pub addr: WordAddr,
    /// Position of the read.
    pub ts: Timestamp,
    /// Value the read observed.
    pub observed: u64,
    /// Value SC requires at that position.
    pub expected: u64,
}

impl fmt::Display for ScViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}/{} read {} at {}: observed {:#x}, SC requires {:#x}",
            self.core, self.warp, self.addr, self.ts, self.observed, self.expected
        )
    }
}

/// Records completed memory operations and checks the SC witness
/// invariant.
#[derive(Debug, Clone, Default)]
pub struct Scoreboard {
    writes: FxHashMap<WordAddr, Vec<WriteRecord>>,
    reads: FxHashMap<WordAddr, Vec<ReadRecord>>,
    /// Last position seen per (core, warp), for program-order checking.
    warp_pos: FxHashMap<(CoreId, WarpId), Timestamp>,
    program_order_violations: Vec<(CoreId, WarpId)>,
    ops: u64,
}

impl Scoreboard {
    /// Creates an empty scoreboard.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of operations recorded.
    pub fn ops(&self) -> u64 {
        self.ops
    }

    /// Records a completion. `store_value` must be provided for stores
    /// (the value written) and for atomics (the *post-operation* value,
    /// i.e. `op.apply(old)`).
    ///
    /// # Panics
    ///
    /// Panics if a store or mutating atomic is recorded without its value.
    pub fn record(&mut self, core: CoreId, completion: &Completion, store_value: Option<u64>) {
        self.ops += 1;
        let addr = completion.addr;
        let ts = completion.ts;
        match completion.kind {
            CompletionKind::LoadDone { value } => {
                self.reads.entry(addr).or_default().push(ReadRecord {
                    core,
                    warp: completion.warp,
                    ts,
                    seq: completion.seq,
                    value,
                });
                self.note_pos(core, completion.warp, ts);
            }
            CompletionKind::StoreDone => {
                let value = store_value.expect("store completions need their value");
                self.writes.entry(addr).or_default().push(WriteRecord {
                    ts,
                    seq: completion.seq,
                    value,
                });
                self.note_pos(core, completion.warp, ts);
            }
            CompletionKind::AtomicDone { old } => {
                let new = store_value.expect("atomic completions need their new value");
                // The read half observes everything strictly before the
                // atomic's own slot.
                self.reads.entry(addr).or_default().push(ReadRecord {
                    core,
                    warp: completion.warp,
                    ts,
                    seq: completion.seq,
                    value: old,
                });
                if new != old {
                    self.writes.entry(addr).or_default().push(WriteRecord {
                        ts,
                        seq: completion.seq,
                        value: new,
                    });
                }
                self.note_pos(core, completion.warp, ts);
            }
        }
    }

    fn note_pos(&mut self, core: CoreId, warp: WarpId, ts: Timestamp) {
        let pos = self.warp_pos.entry((core, warp)).or_insert(ts);
        if ts < *pos {
            self.program_order_violations.push((core, warp));
        }
        *pos = pos.join(ts);
    }

    /// Verifies the SC witness invariant over everything recorded.
    ///
    /// Returns all violations (empty = the execution is SC-explainable).
    pub fn check(&self) -> Vec<ScViolation> {
        let mut violations = Vec::new();
        for (&addr, reads) in &self.reads {
            let mut writes = self.writes.get(&addr).cloned().unwrap_or_default();
            writes.sort_by_key(|w| (w.ts, w.seq));
            for read in reads {
                // Latest write at or before the read's position.
                // Strictly before the read's slot: plain loads carry
                // seq = u64::MAX so every write with ts ≤ read.ts counts,
                // while an atomic's read half excludes its own write.
                let expected = writes
                    .iter()
                    .take_while(|w| (w.ts, w.seq) < (read.ts, read.seq))
                    .last()
                    .map_or(0, |w| w.value);
                if read.value != expected {
                    violations.push(ScViolation {
                        core: read.core,
                        warp: read.warp,
                        addr,
                        ts: read.ts,
                        observed: read.value,
                        expected,
                    });
                }
            }
        }
        violations.sort_by_key(|v| (v.addr, v.ts));
        violations
    }

    /// Program-order violations: warps whose completion positions went
    /// backwards (must be empty for every protocol, including TC-Weak).
    pub fn program_order_violations(&self) -> &[(CoreId, WarpId)] {
        &self.program_order_violations
    }

    /// Asserts the execution is SC.
    ///
    /// # Panics
    ///
    /// Panics with a description of the first violations if the recorded
    /// execution is not explainable by a sequentially consistent order.
    pub fn assert_sc(&self) {
        let violations = self.check();
        assert!(
            violations.is_empty(),
            "{} SC violations, first: {}",
            violations.len(),
            violations[0]
        );
        assert!(
            self.program_order_violations.is_empty(),
            "program order violated for {:?}",
            self.program_order_violations
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::msg::Completion;

    fn load(warp: usize, addr: u64, value: u64, ts: u64) -> Completion {
        Completion {
            warp: WarpId(warp),
            addr: WordAddr(addr),
            kind: CompletionKind::LoadDone { value },
            ts: Timestamp(ts),
            // Logical-time style: sees every write with ver ≤ ts.
            seq: u64::MAX,
        }
    }

    fn store(warp: usize, addr: u64, ts: u64, seq: u64) -> Completion {
        Completion {
            warp: WarpId(warp),
            addr: WordAddr(addr),
            kind: CompletionKind::StoreDone,
            ts: Timestamp(ts),
            seq,
        }
    }

    #[test]
    fn initial_value_is_zero() {
        let mut sb = Scoreboard::new();
        sb.record(CoreId(0), &load(0, 1, 0, 5), None);
        sb.assert_sc();
        assert_eq!(sb.ops(), 1);
    }

    #[test]
    fn load_sees_latest_earlier_write() {
        let mut sb = Scoreboard::new();
        sb.record(CoreId(0), &store(0, 1, 10, 1), Some(7));
        sb.record(CoreId(0), &store(0, 1, 20, 2), Some(9));
        sb.record(CoreId(1), &load(0, 1, 7, 15), None); // between the writes
        sb.record(CoreId(1), &load(0, 1, 9, 25), None); // after both
        sb.assert_sc();
    }

    #[test]
    fn stale_read_is_flagged() {
        let mut sb = Scoreboard::new();
        sb.record(CoreId(0), &store(0, 1, 10, 1), Some(7));
        sb.record(CoreId(1), &load(0, 1, 0, 15), None); // should see 7
        let v = sb.check();
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].observed, 0);
        assert_eq!(v[0].expected, 7);
    }

    #[test]
    fn future_read_is_flagged() {
        let mut sb = Scoreboard::new();
        sb.record(CoreId(0), &store(0, 1, 20, 1), Some(7));
        sb.record(CoreId(1), &load(0, 1, 7, 10), None); // write is in its future
        assert_eq!(sb.check().len(), 1);
    }

    #[test]
    fn same_version_writes_tiebreak_by_seq() {
        let mut sb = Scoreboard::new();
        // Two unobserved stores sharing a logical version (footnote 2):
        // physical L2 order (seq) decides.
        sb.record(CoreId(0), &store(0, 1, 10, 1), Some(7));
        sb.record(CoreId(1), &store(0, 1, 10, 2), Some(8));
        sb.record(CoreId(2), &load(0, 1, 8, 10), None);
        sb.assert_sc();
        let mut sb2 = Scoreboard::new();
        sb2.record(CoreId(0), &store(0, 1, 10, 1), Some(7));
        sb2.record(CoreId(1), &store(0, 1, 10, 2), Some(8));
        sb2.record(CoreId(2), &load(0, 1, 7, 10), None); // lost the tiebreak
        assert_eq!(sb2.check().len(), 1);
    }

    #[test]
    fn atomic_reads_strictly_before_its_own_slot() {
        let mut sb = Scoreboard::new();
        sb.record(CoreId(0), &store(0, 1, 10, 1), Some(7));
        // Fetch-and-add at (ts 10, seq 2): old must be 7, new 8.
        let at = Completion {
            warp: WarpId(0),
            addr: WordAddr(1),
            kind: CompletionKind::AtomicDone { old: 7 },
            ts: Timestamp(10),
            seq: 2,
        };
        sb.record(CoreId(1), &at, Some(8));
        sb.record(CoreId(2), &load(0, 1, 8, 11), None);
        sb.assert_sc();
    }

    #[test]
    fn non_mutating_atomic_is_read_only() {
        let mut sb = Scoreboard::new();
        sb.record(CoreId(0), &store(0, 1, 10, 1), Some(7));
        let failed_cas = Completion {
            warp: WarpId(0),
            addr: WordAddr(1),
            kind: CompletionKind::AtomicDone { old: 7 },
            ts: Timestamp(10),
            seq: 2,
        };
        sb.record(CoreId(1), &failed_cas, Some(7)); // apply() returned old
        sb.record(CoreId(2), &load(0, 1, 7, 12), None); // still 7
        sb.assert_sc();
    }

    #[test]
    fn program_order_regression_detected() {
        let mut sb = Scoreboard::new();
        sb.record(CoreId(0), &load(3, 1, 0, 20), None);
        sb.record(CoreId(0), &load(3, 1, 0, 10), None); // went backwards
        assert_eq!(sb.program_order_violations().len(), 1);
    }

    #[test]
    fn different_words_are_independent() {
        let mut sb = Scoreboard::new();
        sb.record(CoreId(0), &store(0, 1, 10, 1), Some(7));
        sb.record(CoreId(1), &load(0, 2, 0, 50), None);
        sb.assert_sc();
    }
}

#[cfg(test)]
mod prop_tests {
    use super::*;
    use crate::msg::{Completion, CompletionKind};
    use proptest::prelude::*;

    proptest! {
        /// No false positives: an execution generated BY construction
        /// from a legal sequential interleaving always passes the check.
        #[test]
        fn legal_interleavings_always_pass(
            ops in prop::collection::vec((0u64..4, 0u64..3, any::<bool>(), 1u64..100), 1..120),
        ) {
            let mut sb = Scoreboard::new();
            // Replay a sequential memory: position = index in sequence.
            let mut memory = std::collections::HashMap::new();
            let mut warp_next = std::collections::HashMap::new();
            for (i, (addr, warp, is_store, value)) in ops.into_iter().enumerate() {
                let addr = WordAddr(addr);
                let ts = Timestamp(i as u64 + 1);
                // Keep per-warp positions monotone by construction.
                let w = WarpId(warp as usize);
                let _ = warp_next.insert(w, ts);
                if is_store {
                    memory.insert(addr, value);
                    sb.record(
                        CoreId(0),
                        &Completion {
                            warp: w,
                            addr,
                            kind: CompletionKind::StoreDone,
                            ts,
                            seq: i as u64 + 1,
                        },
                        Some(value),
                    );
                } else {
                    let observed = *memory.get(&addr).unwrap_or(&0);
                    sb.record(
                        CoreId(0),
                        &Completion {
                            warp: w,
                            addr,
                            kind: CompletionKind::LoadDone { value: observed },
                            ts,
                            seq: u64::MAX,
                        },
                        None,
                    );
                }
            }
            prop_assert!(sb.check().is_empty());
            prop_assert!(sb.program_order_violations().is_empty());
        }

        /// Guaranteed detection: corrupting exactly one load's value in a
        /// legal history is always caught.
        #[test]
        fn corrupted_value_always_caught(
            flip in 0usize..10,
            values in prop::collection::vec(1u64..1000, 11),
        ) {
            let mut sb = Scoreboard::new();
            let addr = WordAddr(0);
            for (i, v) in values.iter().enumerate() {
                sb.record(
                    CoreId(0),
                    &Completion {
                        warp: WarpId(0),
                        addr,
                        kind: CompletionKind::StoreDone,
                        ts: Timestamp(2 * i as u64 + 1),
                        seq: i as u64 + 1,
                    },
                    Some(*v),
                );
                let observed = if i == flip { v.wrapping_add(1) } else { *v };
                sb.record(
                    CoreId(1),
                    &Completion {
                        warp: WarpId(0),
                        addr,
                        kind: CompletionKind::LoadDone { value: observed },
                        ts: Timestamp(2 * i as u64 + 2),
                        seq: u64::MAX,
                    },
                    None,
                );
            }
            prop_assert_eq!(sb.check().len(), 1);
        }
    }
}
