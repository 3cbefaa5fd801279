//! Warp-level operations and programs.
//!
//! A [`WarpProgram`] is a straight-line list of [`MemOp`]s one warp
//! executes; benchmarks are built by generating one program per warp:
//!
//! ```
//! use rcc_gpu::op::{MemOp, WarpProgram};
//! use rcc_common::addr::LineAddr;
//! use rcc_common::ids::WorkgroupId;
//!
//! let w = LineAddr(0).word(0);
//! let p = WarpProgram::new(
//!     WorkgroupId(0),
//!     vec![MemOp::Load(w), MemOp::Store(w, 1), MemOp::Fence],
//! );
//! assert_eq!(p.ops.len(), 3);
//! assert!(p.ops.iter().filter(|o| o.is_memory()).count() == 2);
//! ```

use rcc_common::addr::WordAddr;
use rcc_common::ids::WorkgroupId;
use rcc_common::snap::{SnapError, SnapReader, SnapWriter};
use rcc_core::msg::AtomicOp;
use std::sync::Arc;

/// One warp-level operation. Memory operations are line-granular in
/// traffic and word-granular in value tracking (see `rcc-core::msg`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MemOp {
    /// Global load of one (representative) word.
    Load(WordAddr),
    /// Global write-through store.
    Store(WordAddr, u64),
    /// Atomic read-modify-write, performed at the L2.
    Atomic(WordAddr, AtomicOp),
    /// Memory fence. Free under SC configurations (the hardware already
    /// orders everything); drains outstanding accesses — and waits out
    /// GWCTs / joins logical views — under weak ordering.
    Fence,
    /// Non-memory work occupying the warp for the given cycles.
    Compute(u32),
    /// Acquire a spin lock at the given word: CAS(0→1) retried with
    /// backoff until it succeeds.
    Lock(WordAddr),
    /// Release a spin lock: atomic exchange to 0.
    Unlock(WordAddr),
    /// Inter-workgroup fast-barrier arrival + poll (lead warp only):
    /// atomically increments the barrier word, then polls it with atomic
    /// reads until all `members` have arrived.
    Barrier {
        /// The barrier counter word.
        word: WordAddr,
        /// Number of arrivals that release the barrier.
        members: u64,
    },
    /// Intra-workgroup wait: block until the workgroup's lead warp has
    /// passed its `epoch`-th [`MemOp::Barrier`]. Costs no memory traffic
    /// (GPU hardware barriers are core-local).
    LocalWait {
        /// Barrier epoch to wait for (1-based).
        epoch: u64,
    },
    /// Gate: the warp may not issue its next op before the given cycle.
    /// Used by timed trace replay to pin an op's earliest issue cycle to
    /// the cycle it issued at in the recorded run; costs no memory
    /// traffic and never stalls once the cycle has passed.
    WaitUntil(u64),
}

impl MemOp {
    /// Whether this op issues a global memory access when executed
    /// (locks/barriers issue several).
    pub fn is_memory(&self) -> bool {
        !matches!(
            self,
            MemOp::Compute(_) | MemOp::Fence | MemOp::LocalWait { .. } | MemOp::WaitUntil(_)
        )
    }

    /// Serializes this op into the `snap` codec. The tag space (0-9) is
    /// shared by the checkpoint (`RCCK`) and trace (`RCCT`) formats —
    /// append-only: new ops take fresh tags, existing tags never change
    /// meaning.
    pub fn snap(&self, w: &mut SnapWriter) {
        match self {
            MemOp::Load(a) => {
                w.u8(0);
                w.u64(a.0);
            }
            MemOp::Store(a, v) => {
                w.u8(1);
                w.u64(a.0);
                w.u64(*v);
            }
            MemOp::Atomic(a, at) => {
                w.u8(2);
                w.u64(a.0);
                match at {
                    AtomicOp::Add(v) => {
                        w.u8(0);
                        w.u64(*v);
                    }
                    AtomicOp::Exch(v) => {
                        w.u8(1);
                        w.u64(*v);
                    }
                    AtomicOp::Cas { expect, new } => {
                        w.u8(2);
                        w.u64(*expect);
                        w.u64(*new);
                    }
                    AtomicOp::Read => w.u8(3),
                }
            }
            MemOp::Fence => w.u8(3),
            MemOp::Compute(c) => {
                w.u8(4);
                w.u32(*c);
            }
            MemOp::Lock(a) => {
                w.u8(5);
                w.u64(a.0);
            }
            MemOp::Unlock(a) => {
                w.u8(6);
                w.u64(a.0);
            }
            MemOp::Barrier { word, members } => {
                w.u8(7);
                w.u64(word.0);
                w.u64(*members);
            }
            MemOp::LocalWait { epoch } => {
                w.u8(8);
                w.u64(*epoch);
            }
            MemOp::WaitUntil(t) => {
                w.u8(9);
                w.u64(*t);
            }
        }
    }

    /// Decodes an op written by [`MemOp::snap`].
    ///
    /// # Errors
    ///
    /// [`SnapError`] on an unknown tag or a truncated payload.
    pub fn unsnap(r: &mut SnapReader) -> Result<MemOp, SnapError> {
        Ok(match r.u8()? {
            0 => MemOp::Load(WordAddr(r.u64()?)),
            1 => MemOp::Store(WordAddr(r.u64()?), r.u64()?),
            2 => {
                let a = WordAddr(r.u64()?);
                let at = match r.u8()? {
                    0 => AtomicOp::Add(r.u64()?),
                    1 => AtomicOp::Exch(r.u64()?),
                    2 => AtomicOp::Cas {
                        expect: r.u64()?,
                        new: r.u64()?,
                    },
                    3 => AtomicOp::Read,
                    other => return Err(SnapError(format!("unknown atomic tag {other}"))),
                };
                MemOp::Atomic(a, at)
            }
            3 => MemOp::Fence,
            4 => MemOp::Compute(r.u32()?),
            5 => MemOp::Lock(WordAddr(r.u64()?)),
            6 => MemOp::Unlock(WordAddr(r.u64()?)),
            7 => MemOp::Barrier {
                word: WordAddr(r.u64()?),
                members: r.u64()?,
            },
            8 => MemOp::LocalWait { epoch: r.u64()? },
            9 => MemOp::WaitUntil(r.u64()?),
            other => return Err(SnapError(format!("unknown op tag {other}"))),
        })
    }
}

/// The program of one warp, plus its workgroup assignment.
#[derive(Debug, Clone, Default)]
pub struct WarpProgram {
    /// Operations in program order. Shared, not copied, when the
    /// program is cloned: a workload, the checkpoints that carry it, and
    /// the simulated cores running it all read one allocation.
    pub ops: Arc<Vec<MemOp>>,
    /// Workgroup (threadblock) this warp belongs to. Intra-workgroup
    /// sharing stays within a core; inter-workgroup sharing is what
    /// drives coherence traffic (Table IV's taxonomy).
    pub workgroup: WorkgroupId,
}

impl WarpProgram {
    /// Creates a program for a warp of `workgroup`.
    pub fn new(workgroup: WorkgroupId, ops: Vec<MemOp>) -> Self {
        WarpProgram {
            ops: Arc::new(ops),
            workgroup,
        }
    }

    /// Number of operations.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// Whether the program is empty.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// Number of global memory operations (lower bound: lock/barrier
    /// retries issue more).
    pub fn memory_ops(&self) -> usize {
        self.ops.iter().filter(|o| o.is_memory()).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rcc_common::addr::WordAddr;

    #[test]
    fn memory_op_taxonomy() {
        assert!(MemOp::Load(WordAddr(0)).is_memory());
        assert!(MemOp::Store(WordAddr(0), 1).is_memory());
        assert!(MemOp::Lock(WordAddr(0)).is_memory());
        assert!(!MemOp::Fence.is_memory());
        assert!(!MemOp::Compute(5).is_memory());
        assert!(!MemOp::LocalWait { epoch: 1 }.is_memory());
        assert!(!MemOp::WaitUntil(100).is_memory());
    }

    #[test]
    fn program_counts() {
        let p = WarpProgram::new(
            WorkgroupId(0),
            vec![
                MemOp::Load(WordAddr(0)),
                MemOp::Compute(3),
                MemOp::Store(WordAddr(1), 2),
                MemOp::Fence,
            ],
        );
        assert_eq!(p.len(), 4);
        assert_eq!(p.memory_ops(), 2);
        assert!(!p.is_empty());
    }

    #[test]
    fn snap_round_trips_every_variant() {
        use rcc_common::snap::{SnapReader, SnapWriter};
        use rcc_core::msg::AtomicOp;
        let ops = [
            MemOp::Load(WordAddr(7)),
            MemOp::Store(WordAddr(8), 42),
            MemOp::Atomic(WordAddr(9), AtomicOp::Add(3)),
            MemOp::Atomic(WordAddr(9), AtomicOp::Exch(0)),
            MemOp::Atomic(WordAddr(9), AtomicOp::Cas { expect: 0, new: 1 }),
            MemOp::Atomic(WordAddr(9), AtomicOp::Read),
            MemOp::Fence,
            MemOp::Compute(12),
            MemOp::Lock(WordAddr(1)),
            MemOp::Unlock(WordAddr(1)),
            MemOp::Barrier {
                word: WordAddr(2),
                members: 4,
            },
            MemOp::LocalWait { epoch: 2 },
            MemOp::WaitUntil(10_000),
        ];
        let mut w = SnapWriter::new();
        for op in &ops {
            op.snap(&mut w);
        }
        let bytes = w.into_bytes();
        let mut r = SnapReader::new(&bytes);
        for op in &ops {
            assert_eq!(*op, MemOp::unsnap(&mut r).unwrap());
        }
        r.done().unwrap();
    }
}
