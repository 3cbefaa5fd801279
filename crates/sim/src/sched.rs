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
//! same fixed phase order (and ascending component order within a
//! phase). Two runs that arm the same wakes therefore execute
//! bit-identically, and the event-driven policy is bit-identical to the
//! every-cycle one because every skipped cycle is proven action-free by
//! the components' own exact `next_event` contracts.
//!
//! # The timing wheel
//!
//! `armed[comp]` — one slot per component, 67 on the GTX 480 — is the
//! exact source of truth: arming writes a slot and consuming a due wake
//! clears it. A timing wheel indexes it relative to the queue's current
//! cycle `now`, so that a step costs what its due components cost and
//! nothing per slot:
//!
//! - the **due set**, a bitset of the slots armed at or before `now`;
//! - **64 one-cycle buckets**, bucket `c % 64` a bitset of the slots
//!   armed at cycle `c` for `now < c <= now + 64`, plus an occupancy
//!   word with one bit per non-empty bucket;
//! - the **far set**, a bitset of the slots armed beyond the window,
//!   with its minimum cycle. [`EventQueue::advance_to`] moves the
//!   buckets it passes into the due set and migrates far slots once the
//!   window reaches them.
//!
//! [`EventQueue::next_wake`] is then a rotate plus a `trailing_zeros` of
//! the occupancy word (or the far minimum), [`EventQueue::take_due`]
//! tests one bit, and a phase visits its due slots with
//! [`EventQueue::first_due`]. A slot armed at or before `now` after its
//! phase already ran (a *leftover*) stays in the due set, so it runs in
//! the next executed step. Bitsets have as many words as the slot count
//! needs: a decoded checkpoint can carry any `num_cores`. Debug builds
//! check `next_wake` against a linear minimum over `armed` and each due
//! bit against `armed <= now`.

/// A component's slot value meaning "no spontaneous wake scheduled".
const DISARMED: u64 = u64::MAX;

/// Histogram resolution for queue-depth telemetry (depths clamp into
/// the last bucket).
const DEPTH_BUCKETS: usize = 256;

/// Cycles the wheel covers after the current one, one bucket each (the
/// width of the occupancy word).
const WINDOW: u64 = 64;

/// Deterministic calendar queue of per-component wake cycles.
#[derive(Debug)]
pub struct EventQueue {
    /// Exact next wake cycle per component (`u64::MAX` = disarmed).
    armed: Vec<u64>,
    /// `u64` words in each slot bitset.
    words: usize,
    /// The cycle the wheel is relative to: the engine's current cycle.
    now: u64,
    /// Slots armed at or before `now`.
    due: Vec<u64>,
    /// `WINDOW` buckets of `words` words: bucket `c % WINDOW` holds the
    /// slots armed at cycle `c`, for `now < c <= now + WINDOW`.
    buckets: Vec<u64>,
    /// Bit `b` is set exactly when bucket `b` is non-empty.
    occupied: u64,
    /// Slots armed beyond the window.
    far: Vec<u64>,
    /// The earliest wake in `far` (`DISARMED` when it is empty).
    far_min: u64,
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

/// The earliest wake among the slots in bitset `set` (`DISARMED` if
/// none).
fn min_armed(armed: &[u64], set: &[u64]) -> u64 {
    let mut min = DISARMED;
    for (w, &word) in set.iter().enumerate() {
        let mut bits = word;
        while bits != 0 {
            min = min.min(armed[w * 64 + bits.trailing_zeros() as usize]);
            bits &= bits - 1;
        }
    }
    min
}

impl EventQueue {
    /// Creates a queue for `components` slots, all disarmed, at cycle 0.
    pub fn new(components: usize) -> Self {
        let words = components.div_ceil(64).max(1);
        EventQueue {
            armed: vec![DISARMED; components],
            words,
            now: 0,
            due: vec![0; words],
            buckets: vec![0; WINDOW as usize * words],
            occupied: 0,
            far: vec![0; words],
            far_min: DISARMED,
            depth: 0,
            posted: 0,
            cancelled: 0,
            depth_max: 0,
            depth_hist: [0; DEPTH_BUCKETS],
        }
    }

    /// Disarms every slot and moves the wheel to cycle `now`, which may
    /// lie before the current one (telemetry is kept, and nothing counts
    /// as cancelled). Used when the engine re-derives all wakes from
    /// component state.
    pub fn reset(&mut self, now: u64) {
        self.armed.fill(DISARMED);
        self.due.fill(0);
        self.buckets.fill(0);
        self.far.fill(0);
        self.occupied = 0;
        self.far_min = DISARMED;
        self.depth = 0;
        self.now = now;
    }

    /// Moves the wheel forward to cycle `now`: every slot armed at or
    /// before it joins the due set, and far slots the window now reaches
    /// move into their buckets. The engine calls this once per executed
    /// step, before the phases run.
    pub fn advance_to(&mut self, now: u64) {
        debug_assert!(now >= self.now, "the wheel never turns back");
        let span = now.saturating_sub(self.now);
        if span == 0 {
            return;
        }
        // The buckets of cycles `self.now + 1 ..= now`.
        let passed = if span >= WINDOW {
            u64::MAX
        } else {
            ((1u64 << span) - 1).rotate_left(((self.now + 1) % WINDOW) as u32)
        };
        let mut hit = self.occupied & passed;
        self.occupied &= !hit;
        while hit != 0 {
            let b = hit.trailing_zeros() as usize;
            hit &= hit - 1;
            let bucket = &mut self.buckets[b * self.words..(b + 1) * self.words];
            for (due, word) in self.due.iter_mut().zip(bucket) {
                *due |= std::mem::take(word);
            }
        }
        self.now = now;
        if self.far_min <= now.saturating_add(WINDOW) {
            self.migrate_far();
        }
    }

    /// Moves the far slots the window reaches into the due set or their
    /// buckets, and recomputes the far minimum over the rest.
    fn migrate_far(&mut self) {
        let horizon = self.now.saturating_add(WINDOW);
        let mut min = DISARMED;
        for w in 0..self.words {
            let mut bits = self.far[w];
            while bits != 0 {
                let bit = bits & bits.wrapping_neg();
                bits ^= bit;
                let comp = w * 64 + bit.trailing_zeros() as usize;
                let cycle = self.armed[comp];
                if cycle <= horizon {
                    self.far[w] ^= bit;
                    self.place(comp, cycle);
                } else {
                    min = min.min(cycle);
                }
            }
        }
        self.far_min = min;
    }

    /// Indexes slot `comp`, armed at `cycle`, in the due set, its bucket
    /// or the far set.
    #[inline]
    fn place(&mut self, comp: usize, cycle: u64) {
        let (w, bit) = (comp / 64, 1u64 << (comp % 64));
        if cycle <= self.now {
            self.due[w] |= bit;
        } else if cycle - self.now <= WINDOW {
            let b = (cycle % WINDOW) as usize;
            self.buckets[b * self.words + w] |= bit;
            self.occupied |= 1 << b;
        } else {
            self.far[w] |= bit;
            self.far_min = self.far_min.min(cycle);
        }
    }

    /// Removes slot `comp`, armed at `cycle`, from the index.
    #[inline]
    fn unplace(&mut self, comp: usize, cycle: u64) {
        let (w, bit) = (comp / 64, 1u64 << (comp % 64));
        if cycle <= self.now {
            self.due[w] &= !bit;
        } else if cycle - self.now <= WINDOW {
            let b = (cycle % WINDOW) as usize;
            let bucket = &mut self.buckets[b * self.words..(b + 1) * self.words];
            bucket[w] &= !bit;
            if bucket.iter().all(|&word| word == 0) {
                self.occupied &= !(1 << b);
            }
        } else {
            self.far[w] &= !bit;
            if cycle == self.far_min {
                self.far_min = min_armed(&self.armed, &self.far);
            }
        }
    }

    /// Makes every component due at the current cycle: the every-cycle
    /// due policy (fast-forward off), under which the engine runs all
    /// components each cycle and never pops a wake.
    pub fn due_all(&mut self) {
        self.armed.fill(self.now);
        let len = self.armed.len();
        for (w, due) in self.due.iter_mut().enumerate() {
            let in_word = len.saturating_sub(w * 64);
            *due = if in_word >= 64 {
                u64::MAX
            } else {
                (1u64 << in_word) - 1
            };
        }
        while self.occupied != 0 {
            let b = self.occupied.trailing_zeros() as usize;
            self.occupied &= self.occupied - 1;
            self.buckets[b * self.words..(b + 1) * self.words].fill(0);
        }
        self.far.fill(0);
        self.far_min = DISARMED;
        self.depth = len as u64;
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
        if old != DISARMED {
            self.unplace(comp, old);
        }
        self.armed[comp] = cycle;
        self.place(comp, cycle);
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
            if old != DISARMED {
                self.unplace(comp, old);
            }
            self.armed[comp] = cycle;
            self.place(comp, cycle);
            self.post(old);
        }
    }

    /// Cancels component `comp`'s wake before it fires. The engine calls
    /// this when a component goes idle or is paused.
    #[inline]
    pub fn disarm(&mut self, comp: usize) {
        let old = std::mem::replace(&mut self.armed[comp], DISARMED);
        if old != DISARMED {
            self.unplace(comp, old);
            self.depth -= 1;
            self.cancelled += 1;
        }
    }

    /// Consumes component `comp`'s wake if it is due at (or overdue by)
    /// the current cycle, and reports whether it was. The engine re-arms
    /// the component from fresh state after running it.
    #[inline]
    pub fn take_due(&mut self, comp: usize) -> bool {
        let (w, bit) = (comp / 64, 1u64 << (comp % 64));
        let due = self.due[w] & bit != 0;
        debug_assert_eq!(
            due,
            self.armed[comp] <= self.now,
            "due bit of slot {comp} at cycle {}",
            self.now
        );
        if due {
            self.due[w] &= !bit;
            self.armed[comp] = DISARMED;
            self.depth -= 1;
        }
        due
    }

    /// The lowest due slot in `from..end`, if any. A phase visits its
    /// due components by calling this again after each one, so a slot a
    /// component arms for the current cycle is seen in index order.
    #[inline]
    pub fn first_due(&self, from: usize, end: usize) -> Option<usize> {
        if from >= end {
            return None;
        }
        let mut w = from / 64;
        let mut bits = self.due[w] & (u64::MAX << (from % 64));
        loop {
            if bits != 0 {
                let slot = w * 64 + bits.trailing_zeros() as usize;
                return (slot < end).then_some(slot);
            }
            w += 1;
            if w * 64 >= end {
                return None;
            }
            bits = self.due[w];
        }
    }

    /// The lowest `k` in `from..len` with slot `a + k` or slot `b + k`
    /// due: the next component of a phase that gives each component two
    /// slots (a core and its L1, a bank and its inbox).
    #[inline]
    pub fn first_due_pair(&self, a: usize, b: usize, from: usize, len: usize) -> Option<usize> {
        let x = self.first_due(a + from, a + len).map(|s| s - a);
        let y = self.first_due(b + from, b + len).map(|s| s - b);
        match (x, y) {
            (Some(x), Some(y)) => Some(x.min(y)),
            (x, y) => x.or(y),
        }
    }

    /// The earliest armed wake cycle across all components. `None`
    /// means every component is disarmed (the machine is quiescent). A
    /// leftover makes it the leftover's cycle, at or before the current
    /// one, which the run loop clamps to the next cycle.
    pub fn next_wake(&self) -> Option<u64> {
        let wake = if self.due.iter().any(|&w| w != 0) {
            Some(min_armed(&self.armed, &self.due))
        } else if self.occupied != 0 {
            let ahead = self
                .occupied
                .rotate_right(((self.now + 1) % WINDOW) as u32)
                .trailing_zeros();
            Some(self.now + 1 + u64::from(ahead))
        } else {
            (self.far_min != DISARMED).then_some(self.far_min)
        };
        debug_assert_eq!(wake, self.walk_wake(), "wheel at cycle {}", self.now);
        wake
    }

    /// The reference for [`EventQueue::next_wake`]: a linear minimum
    /// over every slot, which debug builds check the wheel against.
    fn walk_wake(&self) -> Option<u64> {
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
        q.advance_to(10);
        assert!(!q.take_due(1));
        assert!(q.take_due(0));
        assert!(!q.take_due(0), "a consumed wake fires once");
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
        q.advance_to(7);
        q.due_all();
        assert_eq!(q.next_wake(), Some(7));
        assert!((0..3).all(|c| q.take_due(c)));
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
        q.advance_to(7);
        assert!(q.take_due(3));
        q.arm_at(3, 8);
        q.disarm(0);
        q.arm_at(0, 9);
        assert_eq!(q.depth_max(), 8);
    }

    #[test]
    fn far_wakes_migrate_into_the_window() {
        let mut q = EventQueue::new(3);
        q.arm_at(0, 500);
        q.arm_at(1, 90);
        q.arm_at(2, 90);
        assert_eq!(q.next_wake(), Some(90));
        q.advance_to(60);
        assert_eq!(q.next_wake(), Some(90), "reached by the window");
        q.disarm(1);
        q.advance_to(90);
        assert_eq!(q.first_due(0, 3), Some(2));
        assert!(q.take_due(2));
        assert_eq!(q.next_wake(), Some(500));
        q.advance_to(1_000);
        assert_eq!(q.first_due(0, 3), Some(0), "a jump past a far wake");
    }

    #[test]
    fn leftovers_stay_due_until_taken() {
        let mut q = EventQueue::new(2);
        q.advance_to(10);
        q.arm_at(1, 4); // armed in the past: overdue
        assert_eq!(q.next_wake(), Some(4));
        q.advance_to(11);
        assert_eq!(q.first_due(0, 2), Some(1));
        assert_eq!(q.first_due_pair(0, 1, 0, 1), Some(0));
        assert!(q.take_due(1));
        assert_eq!(q.next_wake(), None);
    }

    /// The queue the wheel indexes, written out flat: the reference the
    /// model-based test holds the wheel to.
    struct Flat {
        armed: Vec<u64>,
        depth: u64,
        posted: u64,
        cancelled: u64,
        depth_max: u64,
    }

    impl Flat {
        fn post(&mut self, old: u64) {
            if old == DISARMED {
                self.depth += 1;
            } else {
                self.cancelled += 1;
            }
            self.posted += 1;
            self.depth_max = self.depth_max.max(self.depth);
        }

        fn disarm(&mut self, comp: usize) {
            if std::mem::replace(&mut self.armed[comp], DISARMED) != DISARMED {
                self.depth -= 1;
                self.cancelled += 1;
            }
        }

        fn arm_at(&mut self, comp: usize, cycle: u64) {
            let old = self.armed[comp];
            if old == cycle {
            } else if cycle == DISARMED {
                self.disarm(comp);
            } else {
                self.armed[comp] = cycle;
                self.post(old);
            }
        }

        fn arm_min(&mut self, comp: usize, cycle: u64) {
            let old = self.armed[comp];
            if cycle < old {
                self.armed[comp] = cycle;
                self.post(old);
            }
        }

        fn take_due(&mut self, comp: usize, now: u64) -> bool {
            let due = self.armed[comp] <= now;
            if due {
                self.armed[comp] = DISARMED;
                self.depth -= 1;
            }
            due
        }

        fn next_wake(&self) -> Option<u64> {
            self.armed.iter().copied().min().filter(|&c| c != DISARMED)
        }
    }

    /// Random `arm_at`/`arm_min`/`disarm`/`take_due`/`due_all`/`reset`
    /// sequences and step advances, on slot counts up to 200 (beyond any
    /// fixed-width mask), with cycles overdue, equal to the current one,
    /// inside the window, beyond it, and equal to another slot's wake.
    /// After every operation the wheel's next wake (and the cycle the run
    /// loop clamps it to), its due set and its telemetry match the flat
    /// reference.
    #[test]
    fn the_wheel_matches_a_linear_reference() {
        let mut seed = 0x9e37_79b9_7f4a_7c15u64;
        let mut rand = |n: u64| {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            seed % n.max(1)
        };
        for slots in [1usize, 27, 67, 130, 200] {
            let mut q = EventQueue::new(slots);
            let mut flat = Flat {
                armed: vec![DISARMED; slots],
                depth: 0,
                posted: 0,
                cancelled: 0,
                depth_max: 0,
            };
            let mut now = 0u64;
            for step in 0..40_000 {
                let comp = rand(slots as u64) as usize;
                let cycle = match rand(6) {
                    0 => now.saturating_sub(rand(80)),
                    1 => now,
                    2 => now + 1 + rand(WINDOW),
                    3 => now + WINDOW + 1 + rand(400),
                    4 => flat.armed[rand(slots as u64) as usize],
                    _ => now + 1 + rand(2 * WINDOW),
                };
                match rand(20) {
                    0..=5 => {
                        q.arm_at(comp, cycle);
                        flat.arm_at(comp, cycle);
                    }
                    6..=8 => {
                        q.arm_min(comp, cycle);
                        flat.arm_min(comp, cycle);
                    }
                    9 | 10 => {
                        q.disarm(comp);
                        flat.disarm(comp);
                    }
                    11..=13 => assert_eq!(q.take_due(comp), flat.take_due(comp, now)),
                    14 => {
                        // A phase: visit the due slots of a range in order.
                        let (lo, hi) = (comp, comp + 1 + rand(slots as u64) as usize);
                        let mut from = lo;
                        while let Some(s) = q.first_due(from, hi.min(slots)) {
                            assert!(flat.take_due(s, now) && q.take_due(s));
                            from = s + 1;
                        }
                        assert!((lo..hi.min(slots)).all(|s| flat.armed[s] > now));
                    }
                    15 if rand(40) == 0 => {
                        now = rand(1 << 20);
                        q.reset(now);
                        flat.armed.fill(DISARMED);
                        flat.depth = 0;
                    }
                    15 if rand(8) == 0 => {
                        now += 1;
                        q.advance_to(now);
                        q.due_all();
                        flat.armed.fill(now);
                        flat.depth = slots as u64;
                    }
                    _ => {
                        // A step: the run loop's clamped jump, or a
                        // capped one (target, watchdog, sample boundary).
                        let wake = flat
                            .next_wake()
                            .map_or(now + 1 + rand(500), |w| w.min(now + 1 + rand(3 * WINDOW)));
                        now = wake.max(now + 1);
                        q.advance_to(now);
                    }
                }
                let clamp = |w: Option<u64>| w.map(|w| w.max(now + 1));
                assert_eq!(
                    q.next_wake(),
                    flat.next_wake(),
                    "{slots} slots, step {step}"
                );
                assert_eq!(clamp(q.next_wake()), clamp(flat.next_wake()));
                let due: Vec<usize> = (0..slots).filter(|&s| flat.armed[s] <= now).collect();
                let mut seen = Vec::new();
                let mut from = 0;
                while let Some(s) = q.first_due(from, slots) {
                    seen.push(s);
                    from = s + 1;
                }
                assert_eq!(seen, due, "{slots} slots, step {step}");
                assert_eq!(
                    (q.posted(), q.cancelled(), q.depth, q.depth_max()),
                    (flat.posted, flat.cancelled, flat.depth, flat.depth_max)
                );
            }
        }
    }
}
