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
//! # Lazy invalidation
//!
//! Re-arming a component does not search the heap for its old entry.
//! The `armed` array is the single source of truth; heap entries are
//! hints, and an entry whose cycle no longer matches `armed[comp]` is
//! stale and discarded (counted as a cancellation) when it surfaces.
//! This keeps every operation O(log n) with no auxiliary indices.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// A component's slot value meaning "no spontaneous wake scheduled".
const DISARMED: u64 = u64::MAX;

/// Histogram resolution for queue-depth telemetry (depths clamp into
/// the last bucket).
const DEPTH_BUCKETS: usize = 256;

/// Deterministic calendar/priority queue of per-component wake cycles.
#[derive(Debug)]
pub struct EventQueue {
    /// Exact next wake cycle per component (`u64::MAX` = disarmed).
    /// This array is authoritative; the heap is a lazy index over it.
    armed: Vec<u64>,
    /// Min-heap of `(cycle, component)` hints. Ties break on the
    /// component id purely to keep the heap's internal order a pure
    /// function of its contents.
    heap: BinaryHeap<Reverse<(u64, u32)>>,
    /// Wake events posted (arm calls that changed a slot).
    posted: u64,
    /// Stale heap entries discarded (arms superseded before firing).
    cancelled: u64,
    /// Peak heap depth observed.
    depth_max: u64,
    /// Heap depth sampled at every post, for the p50 estimate.
    depth_hist: [u64; DEPTH_BUCKETS],
}

impl EventQueue {
    /// Creates a queue for `components` slots, all disarmed.
    pub fn new(components: usize) -> Self {
        EventQueue {
            armed: vec![DISARMED; components],
            heap: BinaryHeap::with_capacity(components * 2),
            posted: 0,
            cancelled: 0,
            depth_max: 0,
            depth_hist: [0; DEPTH_BUCKETS],
        }
    }

    /// Disarms every slot and clears the heap (telemetry is kept).
    /// Used when the engine re-derives all wakes from component state.
    pub fn reset(&mut self) {
        self.armed.fill(DISARMED);
        self.heap.clear();
    }

    /// Makes every component due at `cycle` and clears the heap: the
    /// every-cycle due policy (fast-forward off), under which the
    /// engine runs all components each cycle and never pops a wake.
    pub fn due_all(&mut self, cycle: u64) {
        self.armed.fill(cycle);
        self.heap.clear();
    }

    /// Sets component `comp`'s wake to exactly `cycle`, replacing any
    /// previous wake. Use when `cycle` is derived from the component's
    /// full state (a `next_event` hint), which supersedes older arms.
    #[inline]
    pub fn arm_at(&mut self, comp: usize, cycle: u64) {
        if self.armed[comp] == cycle {
            return; // the existing heap entry is still valid
        }
        self.armed[comp] = cycle;
        self.push(comp, cycle);
    }

    /// Moves component `comp`'s wake earlier to `cycle` if it is not
    /// already armed at or before it. Use for *touch* arms — an input
    /// arriving at a component — which add a wake cause without full
    /// knowledge of the component's other pending wakes.
    #[inline]
    pub fn arm_min(&mut self, comp: usize, cycle: u64) {
        if cycle < self.armed[comp] {
            self.armed[comp] = cycle;
            self.push(comp, cycle);
        }
    }

    /// Clears component `comp`'s wake. The engine calls this when it
    /// consumes a due wake (re-arming afterwards from fresh state) and
    /// when a component goes idle.
    #[inline]
    pub fn disarm(&mut self, comp: usize) {
        self.armed[comp] = DISARMED;
    }

    /// Whether component `comp` is due at (or overdue by) `now`.
    #[inline]
    pub fn is_due(&self, comp: usize, now: u64) -> bool {
        self.armed[comp] <= now
    }

    /// The earliest armed wake cycle across all components, discarding
    /// stale heap entries along the way. `None` means every component
    /// is disarmed (the machine is quiescent).
    pub fn next_wake(&mut self) -> Option<u64> {
        while let Some(&Reverse((cycle, comp))) = self.heap.peek() {
            if self.armed[comp as usize] == cycle {
                return Some(cycle);
            }
            self.heap.pop();
            self.cancelled += 1;
        }
        None
    }

    #[inline]
    fn push(&mut self, comp: usize, cycle: u64) {
        if cycle == DISARMED {
            return;
        }
        self.heap.push(Reverse((cycle, comp as u32)));
        self.posted += 1;
        let depth = self.heap.len() as u64;
        self.depth_max = self.depth_max.max(depth);
        self.depth_hist[(depth as usize).min(DEPTH_BUCKETS - 1)] += 1;
    }

    /// Wake events posted so far.
    pub fn posted(&self) -> u64 {
        self.posted
    }

    /// Stale (superseded) heap entries discarded so far.
    pub fn cancelled(&self) -> u64 {
        self.cancelled
    }

    /// Peak heap depth observed.
    pub fn depth_max(&self) -> u64 {
        self.depth_max
    }

    /// Median heap depth over all posts (clamped to the histogram
    /// range; 0 if nothing was posted).
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

    /// Current heap size (valid + stale entries); diagnostics only.
    pub fn heap_len(&self) -> usize {
        self.heap.len()
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
        assert!(q.is_due(0, 10));
        assert!(!q.is_due(1, 10));
        q.disarm(0);
        assert_eq!(q.next_wake(), Some(20));
    }

    #[test]
    fn rearm_supersedes_and_counts_cancellation() {
        let mut q = EventQueue::new(2);
        q.arm_at(0, 50);
        q.arm_at(0, 10); // earlier: new entry wins immediately
        assert_eq!(q.next_wake(), Some(10));
        q.arm_at(0, 70); // later: the 10 and 50 entries are now stale
        assert_eq!(q.next_wake(), Some(70));
        assert_eq!(q.cancelled(), 2);
    }

    #[test]
    fn arm_min_only_moves_earlier() {
        let mut q = EventQueue::new(1);
        q.arm_at(0, 40);
        q.arm_min(0, 60); // ignored: already earlier
        assert_eq!(q.next_wake(), Some(40));
        q.arm_min(0, 15);
        assert_eq!(q.next_wake(), Some(15));
    }

    #[test]
    fn disarmed_queue_reports_quiescent() {
        let mut q = EventQueue::new(3);
        assert_eq!(q.next_wake(), None);
        q.arm_at(1, 5);
        q.disarm(1);
        assert_eq!(q.next_wake(), None);
        // The stale entry was discarded while scanning.
        assert_eq!(q.cancelled(), 1);
    }

    #[test]
    fn due_all_makes_every_slot_due_and_drops_the_heap() {
        let mut q = EventQueue::new(3);
        q.arm_at(0, 50);
        q.due_all(7);
        assert!((0..3).all(|c| q.is_due(c, 7)));
        assert!(!q.is_due(1, 6));
        assert_eq!(q.heap_len(), 0);
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
    fn depth_telemetry_tracks_posts() {
        let mut q = EventQueue::new(8);
        for c in 0..8 {
            q.arm_at(c, 100 + c as u64);
        }
        assert_eq!(q.depth_max(), 8);
        assert!(q.depth_p50() >= 1);
        assert_eq!(q.posted(), 8);
    }
}
