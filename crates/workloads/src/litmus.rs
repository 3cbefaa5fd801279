//! Consistency litmus tests.
//!
//! Each test is a tiny multi-core program with designated observer loads;
//! the judgement is over the values those loads return. Under any
//! sequentially consistent protocol the *forbidden* outcomes must never
//! appear; under TC-Weak without fences, `mp` and `sb` outcomes become
//! observable (Section II-A's `data`/`done` example is exactly `mp`).
//! Randomized `Compute` preludes perturb the interleaving so repeated
//! runs explore different timings.

use rcc_common::addr::{LineAddr, WordAddr};
use rcc_common::ids::{CoreId, WarpId, WorkgroupId};
use rcc_common::rng::Pcg32;
use rcc_core::msg::AtomicOp;
use rcc_gpu::op::{MemOp, WarpProgram};

/// A named observer load: (core, warp, address); the value it returned
/// is looked up in the execution's load log.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Probe {
    /// Core running the observer.
    pub core: CoreId,
    /// Warp running the observer.
    pub warp: WarpId,
    /// Word loaded.
    pub addr: WordAddr,
    /// Which of that warp's loads of `addr` to take (0-based, program
    /// order).
    pub nth: usize,
}

/// A litmus test: programs plus the forbidden-outcome predicate.
pub struct Litmus {
    /// Test name (`mp`, `sb`, `corr`, `iriw`).
    pub name: &'static str,
    /// `programs[core]` — single warp per participating core.
    pub programs: Vec<Vec<WarpProgram>>,
    /// Observer loads, in the order `forbidden` expects their values.
    pub probes: Vec<Probe>,
    /// Returns true iff the observed values form an outcome SC forbids.
    pub forbidden: fn(&[u64]) -> bool,
}

fn delay(rng: &mut Pcg32) -> MemOp {
    MemOp::Compute(1 + rng.below(120) as u32)
}

fn prog(rng: &mut Pcg32, ops: Vec<MemOp>) -> Vec<WarpProgram> {
    let mut v = vec![delay(rng)];
    v.extend(ops);
    vec![WarpProgram::new(WorkgroupId(0), v)]
}

fn empty() -> Vec<WarpProgram> {
    Vec::new()
}

fn pad(mut programs: Vec<Vec<WarpProgram>>, cores: usize) -> Vec<Vec<WarpProgram>> {
    while programs.len() < cores {
        programs.push(empty());
    }
    programs
}

/// Message passing (the paper's `data`/`done` example): W data; W flag ∥
/// R flag; R data. Forbidden: flag = 1 ∧ data = 0.
///
/// The reader warms `data` into its L1 first — under SC that is harmless,
/// while under TC-Weak it opens the stale-hit window that makes the weak
/// outcome observable (the writer completes both stores eagerly while the
/// reader's leased copy of `data` is still valid).
pub fn message_passing(cores: usize, seed: u64) -> Litmus {
    assert!(cores >= 2);
    let mut rng = Pcg32::new(seed, 1);
    let data = LineAddr(0).word(0);
    let flag = LineAddr(1).word(0);
    let reader_delay = delay(&mut rng);
    let programs = pad(
        vec![
            prog(&mut rng, vec![MemOp::Store(data, 1), MemOp::Store(flag, 1)]),
            prog(
                &mut rng,
                vec![
                    MemOp::Load(data), // warmup: cache the old value
                    reader_delay,
                    MemOp::Load(flag),
                    MemOp::Load(data),
                ],
            ),
        ],
        cores,
    );
    Litmus {
        name: "mp",
        programs,
        probes: vec![
            Probe {
                core: CoreId(1),
                warp: WarpId(0),
                addr: flag,
                nth: 0,
            },
            Probe {
                core: CoreId(1),
                warp: WarpId(0),
                addr: data,
                nth: 1,
            },
        ],
        forbidden: |v| v[0] == 1 && v[1] == 0,
    }
}

/// Message passing with fences — must be SC-safe even under weak
/// ordering (this is how the benchmarks are written for TCW/RCC-WO).
pub fn message_passing_fenced(cores: usize, seed: u64) -> Litmus {
    let mut l = message_passing(cores, seed);
    l.name = "mp+fence";
    // Insert a fence between the two stores and between the two loads.
    for core in &mut l.programs {
        for p in core {
            let mut fenced = Vec::new();
            for (i, op) in p.ops.iter().enumerate() {
                fenced.push(*op);
                if op.is_memory() && i + 1 < p.ops.len() {
                    fenced.push(MemOp::Fence);
                }
            }
            p.ops = fenced.into();
        }
    }
    l
}

/// Message passing where the flag hand-off is a release-style RMW:
/// W data; fence; XCHG flag ← 1 ∥ R flag; fence; R data. The atomic
/// performs at the L2 (never from a stale L1 copy) and the fences order
/// it against the data accesses, so the outcome flag = 1 ∧ data = 0 is
/// forbidden even under the weakly ordered configurations — this is the
/// unlock/lock idiom the benchmarks' mutexes rely on.
///
/// The flag probe is the reader's plain load (observer loads must be
/// `Load`s — only those land in the execution's load log).
pub fn mp_atomic(cores: usize, seed: u64) -> Litmus {
    assert!(cores >= 2);
    let mut rng = Pcg32::new(seed, 7);
    let data = LineAddr(0).word(0);
    let flag = LineAddr(1).word(0);
    let reader_delay = delay(&mut rng);
    let programs = pad(
        vec![
            prog(
                &mut rng,
                vec![
                    MemOp::Store(data, 1),
                    MemOp::Fence,
                    MemOp::Atomic(flag, AtomicOp::Exch(1)),
                ],
            ),
            prog(
                &mut rng,
                vec![
                    MemOp::Load(data), // warmup: cache the old value
                    reader_delay,
                    MemOp::Load(flag),
                    MemOp::Fence,
                    MemOp::Load(data),
                ],
            ),
        ],
        cores,
    );
    Litmus {
        name: "mp+atomic",
        programs,
        probes: vec![
            Probe {
                core: CoreId(1),
                warp: WarpId(0),
                addr: flag,
                nth: 0,
            },
            Probe {
                core: CoreId(1),
                warp: WarpId(0),
                addr: data,
                nth: 1,
            },
        ],
        forbidden: |v| v[0] == 1 && v[1] == 0,
    }
}

/// Store buffering: W x; R y ∥ W y; R x. Forbidden: both loads read 0.
pub fn store_buffering(cores: usize, seed: u64) -> Litmus {
    assert!(cores >= 2);
    let mut rng = Pcg32::new(seed, 2);
    let x = LineAddr(0).word(0);
    let y = LineAddr(1).word(0);
    let programs = pad(
        vec![
            prog(&mut rng, vec![MemOp::Store(x, 1), MemOp::Load(y)]),
            prog(&mut rng, vec![MemOp::Store(y, 1), MemOp::Load(x)]),
        ],
        cores,
    );
    Litmus {
        name: "sb",
        programs,
        probes: vec![
            Probe {
                core: CoreId(0),
                warp: WarpId(0),
                addr: y,
                nth: 0,
            },
            Probe {
                core: CoreId(1),
                warp: WarpId(0),
                addr: x,
                nth: 0,
            },
        ],
        forbidden: |v| v[0] == 0 && v[1] == 0,
    }
}

/// Store buffering with fences between the store and the load on both
/// sides — the SC-restoring idiom for weakly ordered configurations.
pub fn store_buffering_fenced(cores: usize, seed: u64) -> Litmus {
    let mut l = store_buffering(cores, seed);
    l.name = "sb+fence";
    for core in &mut l.programs {
        for p in core {
            let mut fenced = Vec::new();
            for op in p.ops.iter() {
                fenced.push(*op);
                if matches!(op, MemOp::Store(..)) {
                    fenced.push(MemOp::Fence);
                }
            }
            p.ops = fenced.into();
        }
    }
    l
}

/// Load buffering: R x; W y ∥ R y; W x. Forbidden: both loads read 1 —
/// each load would have to observe a store that is program-order *after*
/// the other thread's load of this thread's store.
pub fn load_buffering(cores: usize, seed: u64) -> Litmus {
    assert!(cores >= 2);
    let mut rng = Pcg32::new(seed, 5);
    let x = LineAddr(0).word(0);
    let y = LineAddr(1).word(0);
    let programs = pad(
        vec![
            prog(&mut rng, vec![MemOp::Load(x), MemOp::Store(y, 1)]),
            prog(&mut rng, vec![MemOp::Load(y), MemOp::Store(x, 1)]),
        ],
        cores,
    );
    Litmus {
        name: "lb",
        programs,
        probes: vec![
            Probe {
                core: CoreId(0),
                warp: WarpId(0),
                addr: x,
                nth: 0,
            },
            Probe {
                core: CoreId(1),
                warp: WarpId(0),
                addr: y,
                nth: 0,
            },
        ],
        forbidden: |v| v[0] == 1 && v[1] == 1,
    }
}

/// Write-to-read causality: W x ∥ R x; W y ∥ R y; R x. Forbidden:
/// the last thread sees `y` (so thread 2 saw `x` before writing `y`)
/// but not `x` — causality through thread 2 would be broken.
///
/// Like `mp`, the final reader warms `x` into its L1 to open the
/// stale-hit window under non-atomic-write protocols.
pub fn wrc(cores: usize, seed: u64) -> Litmus {
    assert!(cores >= 3);
    let mut rng = Pcg32::new(seed, 6);
    let x = LineAddr(0).word(0);
    let y = LineAddr(1).word(0);
    let reader_delay = delay(&mut rng);
    let programs = pad(
        vec![
            prog(&mut rng, vec![MemOp::Store(x, 1)]),
            prog(
                &mut rng,
                vec![MemOp::Load(x), MemOp::Load(x), MemOp::Store(y, 1)],
            ),
            prog(
                &mut rng,
                vec![
                    MemOp::Load(x), // warmup: cache the old value
                    reader_delay,
                    MemOp::Load(y),
                    MemOp::Load(x),
                ],
            ),
        ],
        cores,
    );
    Litmus {
        name: "wrc",
        programs,
        probes: vec![
            // Thread 1's second read of x (past the warmup effect of its
            // own first read).
            Probe {
                core: CoreId(1),
                warp: WarpId(0),
                addr: x,
                nth: 1,
            },
            Probe {
                core: CoreId(2),
                warp: WarpId(0),
                addr: y,
                nth: 0,
            },
            Probe {
                core: CoreId(2),
                warp: WarpId(0),
                addr: x,
                nth: 1,
            },
        ],
        forbidden: |v| v[0] == 1 && v[1] == 1 && v[2] == 0,
    }
}

/// Coherence of read-read: two loads of the same location must not see
/// values in anti-causal order (new then old).
pub fn corr(cores: usize, seed: u64) -> Litmus {
    assert!(cores >= 2);
    let mut rng = Pcg32::new(seed, 3);
    let x = LineAddr(0).word(0);
    let programs = pad(
        vec![
            prog(&mut rng, vec![MemOp::Store(x, 1)]),
            prog(&mut rng, vec![MemOp::Load(x), MemOp::Load(x)]),
        ],
        cores,
    );
    Litmus {
        name: "corr",
        programs,
        probes: vec![
            Probe {
                core: CoreId(1),
                warp: WarpId(0),
                addr: x,
                nth: 0,
            },
            Probe {
                core: CoreId(1),
                warp: WarpId(0),
                addr: x,
                nth: 1,
            },
        ],
        forbidden: |v| v[0] == 1 && v[1] == 0,
    }
}

/// Independent reads of independent writes: write atomicity. Two
/// observers must not see the two writes in opposite orders.
pub fn iriw(cores: usize, seed: u64) -> Litmus {
    assert!(cores >= 4);
    let mut rng = Pcg32::new(seed, 4);
    let x = LineAddr(0).word(0);
    let y = LineAddr(1).word(0);
    let programs = pad(
        vec![
            prog(&mut rng, vec![MemOp::Store(x, 1)]),
            prog(&mut rng, vec![MemOp::Store(y, 1)]),
            prog(&mut rng, vec![MemOp::Load(x), MemOp::Load(y)]),
            prog(&mut rng, vec![MemOp::Load(y), MemOp::Load(x)]),
        ],
        cores,
    );
    Litmus {
        name: "iriw",
        programs,
        probes: vec![
            Probe {
                core: CoreId(2),
                warp: WarpId(0),
                addr: x,
                nth: 0,
            },
            Probe {
                core: CoreId(2),
                warp: WarpId(0),
                addr: y,
                nth: 0,
            },
            Probe {
                core: CoreId(3),
                warp: WarpId(0),
                addr: y,
                nth: 0,
            },
            Probe {
                core: CoreId(3),
                warp: WarpId(0),
                addr: x,
                nth: 0,
            },
        ],
        // Observer A: x then not-yet y; observer B: y then not-yet x.
        forbidden: |v| v[0] == 1 && v[1] == 0 && v[2] == 1 && v[3] == 0,
    }
}

/// All litmus tests for a machine with at least four cores.
pub fn all(cores: usize, seed: u64) -> Vec<Litmus> {
    vec![
        message_passing(cores, seed),
        message_passing_fenced(cores, seed),
        mp_atomic(cores, seed),
        store_buffering(cores, seed),
        store_buffering_fenced(cores, seed),
        load_buffering(cores, seed),
        wrc(cores, seed),
        corr(cores, seed),
        iriw(cores, seed),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shapes_and_probes() {
        for l in all(4, 9) {
            assert_eq!(l.programs.len(), 4, "{}", l.name);
            assert!(!l.probes.is_empty());
            // Every probe points at a load present in the program.
            for p in &l.probes {
                let warp = &l.programs[p.core.index()][p.warp.index()];
                let loads = warp
                    .ops
                    .iter()
                    .filter(|o| matches!(o, MemOp::Load(a) if *a == p.addr))
                    .count();
                assert!(loads > p.nth, "{}: probe beyond loads", l.name);
            }
        }
    }

    #[test]
    fn forbidden_predicates() {
        let mp = message_passing(2, 0);
        assert!((mp.forbidden)(&[1, 0]));
        assert!(!(mp.forbidden)(&[1, 1]));
        assert!(!(mp.forbidden)(&[0, 0]));
        let mpa = mp_atomic(2, 0);
        assert!((mpa.forbidden)(&[1, 0]));
        assert!(!(mpa.forbidden)(&[1, 1]));
        assert!(!(mpa.forbidden)(&[0, 0]));
        let sb = store_buffering(2, 0);
        assert!((sb.forbidden)(&[0, 0]));
        assert!(!(sb.forbidden)(&[1, 0]));
        let ir = iriw(4, 0);
        assert!((ir.forbidden)(&[1, 0, 1, 0]));
        assert!(!(ir.forbidden)(&[1, 1, 1, 0]));
        let lb = load_buffering(2, 0);
        assert!((lb.forbidden)(&[1, 1]));
        assert!(!(lb.forbidden)(&[1, 0]));
        let w = wrc(3, 0);
        assert!((w.forbidden)(&[1, 1, 0]));
        assert!(!(w.forbidden)(&[1, 1, 1]));
        assert!(!(w.forbidden)(&[0, 1, 0]));
    }

    #[test]
    fn mp_atomic_hands_off_through_an_rmw() {
        let l = mp_atomic(2, 0);
        let writer = &l.programs[0][0].ops;
        let store_at = writer
            .iter()
            .position(|o| matches!(o, MemOp::Store(..)))
            .expect("data store present");
        let xchg_at = writer
            .iter()
            .position(|o| matches!(o, MemOp::Atomic(_, AtomicOp::Exch(1))))
            .expect("flag exchange present");
        assert!(store_at < xchg_at, "data store must precede the hand-off");
        assert!(
            writer[store_at + 1..xchg_at].contains(&MemOp::Fence),
            "release fence must sit between store and exchange"
        );
        let reader = &l.programs[1][0].ops;
        let flag_load = reader
            .iter()
            .position(|o| matches!(o, MemOp::Load(a) if *a == LineAddr(1).word(0)))
            .expect("flag load present");
        assert!(
            reader[flag_load + 1..].contains(&MemOp::Fence),
            "acquire fence must follow the flag load"
        );
    }

    #[test]
    fn sb_fenced_has_fence_after_each_store() {
        let l = store_buffering_fenced(2, 0);
        for core in &l.programs[..2] {
            let ops = &core[0].ops;
            let store_at = ops
                .iter()
                .position(|o| matches!(o, MemOp::Store(..)))
                .expect("store present");
            assert_eq!(ops[store_at + 1], MemOp::Fence);
        }
    }

    #[test]
    fn fenced_variant_contains_fences() {
        let l = message_passing_fenced(2, 0);
        let fences: usize = l.programs[0][0]
            .ops
            .iter()
            .filter(|o| matches!(o, MemOp::Fence))
            .count();
        assert!(fences >= 1);
    }

    #[test]
    fn seeds_change_preludes() {
        let a = message_passing(2, 1);
        let b = message_passing(2, 2);
        assert_ne!(
            format!("{:?}", a.programs[0][0].ops[0]),
            format!("{:?}", b.programs[0][0].ops[0])
        );
    }
}
