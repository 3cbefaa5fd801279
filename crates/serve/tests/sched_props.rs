//! Property coverage for the priority-aged FIFO scheduler: no
//! starvation past the computable bound, FIFO dispatch within a
//! priority class, and a deterministic schedule for a fixed operation
//! sequence. The scheduler is pure, so these run over raw operation
//! streams with no threads involved.

use proptest::prelude::*;
use rcc_serve::queue::{Sched, CLASSES};

/// One scheduler interaction drawn by the generator.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Op {
    /// Admit a new entry at this class.
    Push(u8),
    /// Dispatch, and with probability ~1/4 requeue the dispatched
    /// entry (simulating a quantum preemption).
    PopAndMaybeRequeue(bool),
}

fn arb_ops() -> impl Strategy<Value = Vec<Op>> {
    prop::collection::vec(
        prop_oneof![
            (0u8..CLASSES).prop_map(Op::Push),
            any::<bool>().prop_map(Op::PopAndMaybeRequeue),
        ],
        1..200,
    )
}

/// Replays an op stream, returning the dispatch order as `(id, class)`
/// pairs. Every admission, re-admissions included, pushes a fresh id
/// (its index in `class_of`), so ids are monotone in admission order.
fn replay(aging: u64, ops: &[Op]) -> Vec<(usize, u8)> {
    let mut s = Sched::new(aging);
    let mut class_of: Vec<u8> = Vec::new();
    let mut order = Vec::new();
    for op in ops {
        match op {
            Op::Push(class) => {
                s.push(*class, class_of.len());
                class_of.push(*class);
            }
            Op::PopAndMaybeRequeue(requeue) => {
                if let Some(id) = s.pop() {
                    let class = class_of[id];
                    order.push((id, class));
                    if *requeue {
                        s.push(class, class_of.len());
                        class_of.push(class);
                    }
                }
            }
        }
    }
    order
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Within one class, entries dispatch in admission order (ids are
    /// monotone in admission order, re-admissions included, so the
    /// dispatch sequence restricted to any class must be increasing).
    #[test]
    fn fifo_within_each_class(ops in arb_ops(), aging in 1u64..6) {
        let order = replay(aging, &ops);
        for class in 0..CLASSES {
            let ids: Vec<usize> = order
                .iter()
                .filter(|(_, c)| *c == class)
                .map(|(id, _)| *id)
                .collect();
            for w in ids.windows(2) {
                prop_assert!(w[0] < w[1], "class {class} dispatched out of order: {ids:?}");
            }
        }
    }

    /// No starvation: every entry waiting in the queue is dispatched
    /// within `starvation_bound(queue_len_at_admission)` dispatches of
    /// being admitted, no matter what arrives after it.
    #[test]
    fn every_entry_dispatches_within_the_bound(ops in arb_ops(), aging in 1u64..6) {
        let mut s = Sched::new(aging);
        let mut next_id = 0..;
        // id -> (dispatches remaining before violation)
        let mut deadline: Vec<(usize, u64)> = Vec::new();
        for op in &ops {
            match op {
                Op::Push(class) => {
                    let bound = s.starvation_bound(s.len());
                    let id = next_id.next().expect("unbounded ids");
                    s.push(*class, id);
                    deadline.push((id, bound));
                }
                Op::PopAndMaybeRequeue(requeue) => {
                    let Some(id) = s.pop() else { continue };
                    deadline.retain(|(d, _)| *d != id);
                    for (d, left) in &mut deadline {
                        prop_assert!(*left > 0, "entry {d} starved past its bound");
                        *left -= 1;
                    }
                    if *requeue {
                        let bound = s.starvation_bound(s.len());
                        let id = next_id.next().expect("unbounded ids");
                        s.push(CLASSES - 1, id);
                        deadline.push((id, bound));
                    }
                }
            }
        }
    }

    /// The schedule is a pure function of the operation sequence.
    #[test]
    fn fixed_sequence_fixed_schedule(ops in arb_ops(), aging in 1u64..6) {
        prop_assert_eq!(replay(aging, &ops), replay(aging, &ops));
    }

    /// Class 0 always beats a fresh (unaged) entry of a lower class.
    #[test]
    fn urgent_beats_fresh_background(bg in 1u8..CLASSES) {
        let mut s = Sched::new(4);
        let (slow, fast) = (0, 1);
        s.push(bg, slow);
        s.push(0, fast);
        prop_assert_eq!(s.pop(), Some(fast));
        prop_assert_eq!(s.pop(), Some(slow));
    }
}
