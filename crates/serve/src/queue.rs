//! Priority-aged FIFO job scheduler.
//!
//! A pure data structure — no threads, no clocks — so its fairness
//! properties are testable in isolation (see `tests/sched_props.rs`):
//!
//! - **FIFO within a priority class.** Entries of the same nominal
//!   class dispatch in arrival order: an earlier arrival has witnessed
//!   at least as many dispatches as a later one, so its effective class
//!   is never higher, and ties break on the arrival sequence number.
//! - **No starvation.** Every dispatch ages every waiting entry by one;
//!   after `aging × class` dispatches an entry reaches effective
//!   class 0, where only *older* class-0 entries (a finite set fixed at
//!   its arrival) can precede it. Hence an entry admitted into a queue
//!   of length `q` waits at most [`Sched::starvation_bound`]`(q)`
//!   dispatches.
//! - **Determinism.** The pick is a pure function of the queue state,
//!   so a fixed arrival sequence yields a fixed schedule.
//!
//! Each entry carries the job index it was [`Sched::push`]ed with, and
//! [`Sched::pop`] hands that index back. A preempted job is pushed again
//! and lands at the *back* of its class under a fresh sequence number:
//! one quantum is one turn, so a long job round-robins with its class
//! peers instead of re-monopolizing the worker, and a flood of short
//! jobs drains while the long one crawls forward a quantum per pass.

/// Number of priority classes; class 0 is the most urgent.
pub const CLASSES: u8 = 4;

#[derive(Debug, Clone)]
struct Entry {
    seq: u64,
    class: u8,
    /// The job index this entry dispatches.
    job: usize,
    /// Dispatches this entry has waited through since (re)admission.
    age: u64,
}

impl Entry {
    /// Nominal class minus earned aging credit, saturating at 0.
    fn effective(&self, aging: u64) -> u8 {
        let credit = (self.age / aging).min(u64::from(self.class));
        self.class - credit as u8
    }
}

/// The scheduler: a bag of waiting entries plus the aging policy.
#[derive(Debug, Clone)]
pub struct Sched {
    aging: u64,
    next_seq: u64,
    ready: Vec<Entry>,
}

impl Sched {
    /// Creates a scheduler whose entries gain one class of urgency per
    /// `aging` dispatches waited. `aging` is clamped to at least 1.
    pub fn new(aging: u64) -> Self {
        Sched {
            aging: aging.max(1),
            next_seq: 0,
            ready: Vec::new(),
        }
    }

    /// Admits `job` at `class` (clamped to `CLASSES - 1`), behind every
    /// entry already waiting in that class.
    pub fn push(&mut self, class: u8, job: usize) {
        self.ready.push(Entry {
            seq: self.next_seq,
            class: class.min(CLASSES - 1),
            job,
            age: 0,
        });
        self.next_seq += 1;
    }

    /// Dispatches the entry with the lowest `(effective class, seq)`,
    /// ages everything still waiting by one dispatch, and returns the
    /// dispatched job index.
    pub fn pop(&mut self) -> Option<usize> {
        let best = self
            .ready
            .iter()
            .enumerate()
            .min_by_key(|(_, e)| (e.effective(self.aging), e.seq))?
            .0;
        let picked = self.ready.swap_remove(best);
        for e in &mut self.ready {
            e.age += 1;
        }
        Some(picked.job)
    }

    /// Entries currently waiting.
    pub fn len(&self) -> usize {
        self.ready.len()
    }

    /// True when nothing is waiting.
    pub fn is_empty(&self) -> bool {
        self.ready.is_empty()
    }

    /// Worst-case dispatches an entry admitted into a queue of length
    /// `queue_len` can wait before it is picked, regardless of its
    /// class or any future arrivals.
    pub fn starvation_bound(&self, queue_len: usize) -> u64 {
        self.aging * u64::from(CLASSES - 1) + queue_len as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fifo_within_a_class() {
        let mut s = Sched::new(4);
        for job in 0..3 {
            s.push(1, job);
        }
        assert_eq!(s.pop(), Some(0));
        assert_eq!(s.pop(), Some(1));
        assert_eq!(s.pop(), Some(2));
        assert_eq!(s.pop(), None);
    }

    #[test]
    fn urgent_class_preempts_but_aging_rescues() {
        // One background entry, then a stream of urgent arrivals: the
        // background entry must still dispatch within its bound.
        let mut s = Sched::new(2);
        let slow = 0;
        s.push(3, slow);
        let bound = s.starvation_bound(0);
        let mut waited = 0;
        loop {
            s.push(0, waited as usize + 1);
            let picked = s.pop().expect("queue non-empty");
            if picked == slow {
                break;
            }
            waited += 1;
            assert!(waited <= bound, "starved past the bound");
        }
        assert!(waited <= bound);
    }

    #[test]
    fn requeue_goes_to_the_back_of_the_class() {
        let mut s = Sched::new(4);
        let (a, b) = (0, 1);
        s.push(2, a);
        s.push(2, b);
        assert_eq!(s.pop(), Some(a));
        s.push(2, a); // preempted: b takes its turn first
        assert_eq!(s.pop(), Some(b));
        assert_eq!(s.pop(), Some(a));
    }
}
