//! The calendar queue that decides which components are due.
//!
//! Every timed component of the [`System`](crate::System) — cores, L1
//! controllers, the two NoC directions, L2 banks, bank inboxes, L2 delay
//! pipes, DRAM channels, the rollover coordinator — owns one slot in
//! this queue holding the next cycle at which that component must run.
//! The engine's single phase body executes only the components that are
//! due at the current cycle. Which cycles run is the *due policy*:
//!
//! - **event-driven** (fast-forward on): the run loop pops the earliest
//!   armed cycle and jumps straight to it; everything not due costs
//!   nothing, even in the middle of a busy phase;
//! - **every cycle** (fast-forward off): the run loop advances one cycle
//!   and [`EventQueue::due_all`] makes every component due — the
//!   reference semantics.
//!
//! # Determinism
//!
//! The queue decides *when* the next cycle is, never *in what order*
//! components run within it: the body always executes a cycle in the
//! same fixed phase order (and fixed component order within a phase).
//! Two runs that arm the same wakes therefore execute bit-identically,
//! and the event-driven policy is bit-identical to the every-cycle one
//! because every skipped cycle is proven action-free by the components'
//! own exact `next_event` contracts.
//!
//! # Flat slots
//!
//! The queue is the `armed` array itself, one slot per component (67 on
//! the GTX 480): arming writes a slot, consuming a due wake clears it,
//! and the next wake is the minimum over the slots. At this size a
//! linear minimum costs less than keeping a heap ordered, and there are
//! no stale entries to discard.

/// A component's slot value meaning "no spontaneous wake scheduled".
const DISARMED: u64 = u64::MAX;

/// Histogram resolution for queue-depth telemetry (depths clamp into
/// the last bucket).
const DEPTH_BUCKETS: usize = 256;

/// Deterministic calendar queue of per-component wake cycles.
#[derive(Debug)]
pub struct EventQueue {
    /// Exact next wake cycle per component (`u64::MAX` = disarmed).
    armed: Vec<u64>,
    /// Slots currently armed: the queue depth.
    depth: u64,
    /// Wake events posted (arm calls that changed a slot).
    posted: u64,
    /// Wakes superseded by a re-arm or disarmed before they fired.
    cancelled: u64,
    /// Peak queue depth observed.
    depth_max: u64,
    /// Queue depth sampled at every post, for the p50 estimate.
    depth_hist: [u64; DEPTH_BUCKETS],
}

impl EventQueue {
    /// Creates a queue for `components` slots, all disarmed.
    pub fn new(components: usize) -> Self {
        EventQueue {
            armed: vec![DISARMED; components],
            depth: 0,
            posted: 0,
            cancelled: 0,
            depth_max: 0,
            depth_hist: [0; DEPTH_BUCKETS],
        }
    }

    /// Disarms every slot (telemetry is kept, and nothing counts as
    /// cancelled). Used when the engine re-derives all wakes from
    /// component state.
    pub fn reset(&mut self) {
        self.armed.fill(DISARMED);
        self.depth = 0;
    }

    /// Makes every component due at `cycle`: the every-cycle due policy
    /// (fast-forward off), under which the engine runs all components
    /// each cycle and never pops a wake.
    pub fn due_all(&mut self, cycle: u64) {
        self.armed.fill(cycle);
        self.depth = self.armed.len() as u64;
    }

    /// Sets component `comp`'s wake to exactly `cycle`, replacing any
    /// previous wake. Use when `cycle` is derived from the component's
    /// full state (a `next_event` hint), which supersedes older arms.
    #[inline]
    pub fn arm_at(&mut self, comp: usize, cycle: u64) {
        let old = self.armed[comp];
        if old == cycle {
            return;
        }
        if cycle == DISARMED {
            self.disarm(comp);
            return;
        }
        self.armed[comp] = cycle;
        self.post(old);
    }

    /// Moves component `comp`'s wake earlier to `cycle` if it is not
    /// already armed at or before it. Use for *touch* arms — an input
    /// arriving at a component — which add a wake cause without full
    /// knowledge of the component's other pending wakes.
    #[inline]
    pub fn arm_min(&mut self, comp: usize, cycle: u64) {
        let old = self.armed[comp];
        if cycle < old {
            self.armed[comp] = cycle;
            self.post(old);
        }
    }

    /// Cancels component `comp`'s wake before it fires. The engine calls
    /// this when a component goes idle or is paused.
    #[inline]
    pub fn disarm(&mut self, comp: usize) {
        if std::mem::replace(&mut self.armed[comp], DISARMED) != DISARMED {
            self.depth -= 1;
            self.cancelled += 1;
        }
    }

    /// Consumes component `comp`'s wake if it is due at (or overdue by)
    /// `now`, and reports whether it was. The engine re-arms the
    /// component from fresh state after running it.
    #[inline]
    pub fn take_due(&mut self, comp: usize, now: u64) -> bool {
        if self.armed[comp] <= now {
            self.armed[comp] = DISARMED;
            self.depth -= 1;
            true
        } else {
            false
        }
    }

    /// The earliest armed wake cycle across all components. `None`
    /// means every component is disarmed (the machine is quiescent).
    pub fn next_wake(&self) -> Option<u64> {
        self.armed
            .iter()
            .copied()
            .min()
            .filter(|&cycle| cycle != DISARMED)
    }

    /// Books a slot that changed from `old` to an armed cycle.
    #[inline]
    fn post(&mut self, old: u64) {
        if old == DISARMED {
            self.depth += 1;
        } else {
            self.cancelled += 1;
        }
        self.posted += 1;
        self.depth_max = self.depth_max.max(self.depth);
        self.depth_hist[(self.depth as usize).min(DEPTH_BUCKETS - 1)] += 1;
    }

    /// Wake events posted so far.
    pub fn posted(&self) -> u64 {
        self.posted
    }

    /// Wakes superseded by a re-arm or disarmed before they fired.
    pub fn cancelled(&self) -> u64 {
        self.cancelled
    }

    /// Peak queue depth (armed slots) observed at a post.
    pub fn depth_max(&self) -> u64 {
        self.depth_max
    }

    /// Median queue depth (armed slots) over all posts (clamped to the
    /// histogram range; 0 if nothing was posted).
    pub fn depth_p50(&self) -> u64 {
        let total: u64 = self.depth_hist.iter().sum();
        if total == 0 {
            return 0;
        }
        let mut seen = 0;
        for (depth, count) in self.depth_hist.iter().enumerate() {
            seen += count;
            if seen * 2 >= total {
                return depth as u64;
            }
        }
        (DEPTH_BUCKETS - 1) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arm_and_pop_in_cycle_order() {
        let mut q = EventQueue::new(4);
        q.arm_at(2, 30);
        q.arm_at(0, 10);
        q.arm_at(1, 20);
        assert_eq!(q.next_wake(), Some(10));
        assert!(!q.take_due(1, 10));
        assert!(q.take_due(0, 10));
        assert!(!q.take_due(0, 10), "a consumed wake fires once");
        assert_eq!(q.next_wake(), Some(20));
        assert_eq!(q.cancelled(), 0, "firing is not cancelling");
    }

    #[test]
    fn rearm_supersedes_and_counts_cancellation() {
        let mut q = EventQueue::new(2);
        q.arm_at(0, 50);
        q.arm_at(0, 10); // earlier: supersedes the 50
        assert_eq!(q.next_wake(), Some(10));
        q.arm_at(0, 70); // later: supersedes the 10
        assert_eq!(q.next_wake(), Some(70));
        assert_eq!(q.cancelled(), 2);
        assert_eq!(q.posted(), 3);
    }

    #[test]
    fn arm_min_only_moves_earlier() {
        let mut q = EventQueue::new(1);
        q.arm_at(0, 40);
        q.arm_min(0, 60); // ignored: already earlier
        assert_eq!(q.next_wake(), Some(40));
        q.arm_min(0, 15);
        assert_eq!(q.next_wake(), Some(15));
        assert_eq!(q.cancelled(), 1);
    }

    #[test]
    fn disarmed_queue_reports_quiescent() {
        let mut q = EventQueue::new(3);
        assert_eq!(q.next_wake(), None);
        q.arm_at(1, 5);
        q.disarm(1);
        assert_eq!(q.next_wake(), None);
        assert_eq!(q.cancelled(), 1, "disarmed before it fired");
        q.disarm(1);
        assert_eq!(q.cancelled(), 1, "disarming an empty slot is free");
    }

    #[test]
    fn due_all_makes_every_slot_due() {
        let mut q = EventQueue::new(3);
        q.arm_at(0, 50);
        q.due_all(7);
        assert_eq!(q.next_wake(), Some(7));
        assert!((0..3).all(|c| q.take_due(c, 7)));
        assert_eq!(q.next_wake(), None);
    }

    #[test]
    fn duplicate_arm_is_free() {
        let mut q = EventQueue::new(1);
        q.arm_at(0, 9);
        let posted = q.posted();
        q.arm_at(0, 9);
        assert_eq!(q.posted(), posted);
    }

    #[test]
    fn depth_counts_armed_slots() {
        let mut q = EventQueue::new(8);
        for c in 0..8 {
            q.arm_at(c, 100 + c as u64);
        }
        assert_eq!(q.depth_max(), 8);
        assert_eq!(q.depth_p50(), 4);
        assert_eq!(q.posted(), 8);
        // Re-arming an armed slot does not deepen the queue.
        q.arm_at(3, 7);
        assert!(q.take_due(3, 7));
        q.arm_at(3, 8);
        q.disarm(0);
        q.arm_at(0, 9);
        assert_eq!(q.depth_max(), 8);
    }
}
