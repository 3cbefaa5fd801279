//! Set-associative tag array with LRU replacement.
//!
//! Each resident line carries protocol-defined metadata `S` (coherence
//! state and timestamps). Victim selection asks the protocol which lines
//! are replaceable — in RCC, a valid line whose lease has expired is
//! treated exactly like an invalid line for replacement (Section III-C),
//! which the protocol expresses through the `replaceable` predicate.

use crate::data::LineData;
use rcc_common::addr::LineAddr;

/// One resident cache line.
#[derive(Debug, Clone)]
pub struct Line<S> {
    /// Which memory line is cached here.
    pub addr: LineAddr,
    /// Protocol metadata (state + timestamps).
    pub state: S,
    /// Data payload.
    pub data: LineData,
    /// Dirty flag (used by the write-back L2; write-through L1s never set it).
    pub dirty: bool,
    /// LRU counter (larger = more recently used).
    last_use: u64,
}

/// A line displaced by [`TagArray::fill`].
#[derive(Debug, Clone)]
pub struct Evicted<S> {
    /// The displaced line.
    pub line: Line<S>,
}

/// A set-associative array of [`Line`]s with per-set LRU.
#[derive(Debug, Clone)]
pub struct TagArray<S> {
    sets: usize,
    ways: usize,
    /// Address stride between consecutive lines of this cache: 1 for an
    /// L1, the partition count for an L2 bank (partition-interleaved
    /// caches must strip the partition bits before indexing sets, or the
    /// bank aliases into a fraction of its sets).
    stride: u64,
    slots: Vec<Option<Line<S>>>,
    tick: u64,
}

impl<S> TagArray<S> {
    /// Creates an empty array with `sets` sets of `ways` ways.
    ///
    /// # Panics
    ///
    /// Panics if `sets` or `ways` is zero.
    pub fn new(sets: usize, ways: usize) -> Self {
        Self::with_stride(sets, ways, 1)
    }

    /// Creates an array whose set index is computed on `line / stride` —
    /// used by partition-interleaved L2 banks.
    ///
    /// # Panics
    ///
    /// Panics if `sets`, `ways` or `stride` is zero.
    pub fn with_stride(sets: usize, ways: usize, stride: u64) -> Self {
        assert!(sets > 0 && ways > 0, "cache must have sets and ways");
        assert!(stride > 0, "stride must be positive");
        TagArray {
            sets,
            ways,
            stride,
            slots: std::iter::repeat_with(|| None).take(sets * ways).collect(),
            tick: 0,
        }
    }

    /// Number of sets.
    pub fn num_sets(&self) -> usize {
        self.sets
    }

    /// Associativity.
    pub fn num_ways(&self) -> usize {
        self.ways
    }

    fn set_range(&self, addr: LineAddr) -> std::ops::Range<usize> {
        let set = LineAddr(addr.0 / self.stride).set_index(self.sets);
        set * self.ways..(set + 1) * self.ways
    }

    /// Looks up a line without updating LRU state.
    pub fn probe(&self, addr: LineAddr) -> Option<&Line<S>> {
        self.slots[self.set_range(addr)]
            .iter()
            .flatten()
            .find(|l| l.addr == addr)
    }

    /// Looks up a line mutably without updating LRU state.
    pub fn probe_mut(&mut self, addr: LineAddr) -> Option<&mut Line<S>> {
        let range = self.set_range(addr);
        self.slots[range]
            .iter_mut()
            .flatten()
            .find(|l| l.addr == addr)
    }

    /// Looks up a line and marks it most-recently-used.
    ///
    /// A miss leaves the array untouched — the LRU clock advances only
    /// on a hit. Controllers probe the tags on accesses they then
    /// reject, and a rejected access must change nothing but counters
    /// (the engine sleeps through repeated rejects and replays only
    /// their stat deltas).
    pub fn access(&mut self, addr: LineAddr) -> Option<&mut Line<S>> {
        let range = self.set_range(addr);
        let line = self.slots[range]
            .iter_mut()
            .flatten()
            .find(|l| l.addr == addr)?;
        self.tick += 1;
        line.last_use = self.tick;
        Some(line)
    }

    /// Inserts (or replaces) a line, evicting if the set is full.
    ///
    /// Victim preference: an empty way, then the LRU line among those for
    /// which `replaceable(addr, &state)` is true. Returns the displaced
    /// line, or
    /// `Err(())` if every candidate way holds a non-replaceable line (the
    /// caller must stall the fill; this models lines pinned by transient
    /// coherence states).
    ///
    /// If `addr` is already resident its slot is overwritten in place.
    #[allow(clippy::result_unit_err)]
    pub fn fill(
        &mut self,
        addr: LineAddr,
        state: S,
        data: LineData,
        dirty: bool,
        replaceable: impl Fn(LineAddr, &S) -> bool,
    ) -> Result<Option<Evicted<S>>, ()> {
        self.tick += 1;
        let tick = self.tick;
        let range = self.set_range(addr);
        let new_line = Line {
            addr,
            state,
            data,
            dirty,
            last_use: tick,
        };

        // Already resident: replace in place (no eviction).
        if let Some(slot) = self.slots[range.clone()]
            .iter_mut()
            .find(|s| s.as_ref().is_some_and(|l| l.addr == addr))
        {
            let old = slot.replace(new_line).expect("slot checked non-empty");
            return Ok(Some(Evicted { line: old }));
        }

        // Empty way.
        if let Some(slot) = self.slots[range.clone()].iter_mut().find(|s| s.is_none()) {
            *slot = Some(new_line);
            return Ok(None);
        }

        // LRU among replaceable lines.
        let victim_idx = self.slots[range.clone()]
            .iter()
            .enumerate()
            .filter_map(|(i, s)| s.as_ref().map(|l| (i, l)))
            .filter(|(_, l)| replaceable(l.addr, &l.state))
            .min_by_key(|(_, l)| l.last_use)
            .map(|(i, _)| i);

        match victim_idx {
            Some(i) => {
                let slot = &mut self.slots[range][i];
                let old = slot.replace(new_line).expect("victim slot non-empty");
                Ok(Some(Evicted { line: old }))
            }
            None => Err(()),
        }
    }

    /// Returns the line that [`Self::fill`] would evict for `addr` among
    /// `replaceable` candidates, without modifying anything. `None` if a
    /// way is free (or `addr` is resident) — a fill would not evict.
    pub fn peek_victim(
        &self,
        addr: LineAddr,
        replaceable: impl Fn(LineAddr, &S) -> bool,
    ) -> Option<&Line<S>> {
        let range = self.set_range(addr);
        let slots = &self.slots[range];
        if slots
            .iter()
            .any(|s| s.is_none() || s.as_ref().is_some_and(|l| l.addr == addr))
        {
            return None;
        }
        slots
            .iter()
            .flatten()
            .filter(|l| replaceable(l.addr, &l.state))
            .min_by_key(|l| l.last_use)
    }

    /// Removes a line, returning it.
    pub fn invalidate(&mut self, addr: LineAddr) -> Option<Line<S>> {
        let range = self.set_range(addr);
        self.slots[range]
            .iter_mut()
            .find(|s| s.as_ref().is_some_and(|l| l.addr == addr))?
            .take()
    }

    /// Removes every line, returning them (used by the RCC rollover flush).
    pub fn drain(&mut self) -> Vec<Line<S>> {
        self.slots.iter_mut().filter_map(|s| s.take()).collect()
    }

    /// Iterates over all resident lines.
    pub fn iter(&self) -> impl Iterator<Item = &Line<S>> {
        self.slots.iter().flatten()
    }

    /// Iterates mutably over all resident lines.
    pub fn iter_mut(&mut self) -> impl Iterator<Item = &mut Line<S>> {
        self.slots.iter_mut().flatten()
    }

    /// Number of resident lines.
    pub fn len(&self) -> usize {
        self.slots.iter().flatten().count()
    }

    /// Whether the array holds no lines.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn arr() -> TagArray<u32> {
        TagArray::new(2, 2)
    }

    fn fill_ok(a: &mut TagArray<u32>, addr: u64, state: u32) -> Option<Evicted<u32>> {
        a.fill(LineAddr(addr), state, LineData::zeroed(), false, |_, _| {
            true
        })
        .expect("fill should not stall")
    }

    #[test]
    fn probe_miss_and_hit() {
        let mut a = arr();
        assert!(a.probe(LineAddr(0)).is_none());
        fill_ok(&mut a, 0, 7);
        assert_eq!(a.probe(LineAddr(0)).unwrap().state, 7);
        assert_eq!(a.len(), 1);
    }

    #[test]
    fn same_set_lines_conflict() {
        let mut a = arr(); // 2 sets: lines 0,2,4... map to set 0
        assert!(fill_ok(&mut a, 0, 1).is_none());
        assert!(fill_ok(&mut a, 2, 2).is_none());
        // Set 0 now full; line 4 evicts LRU (line 0).
        let ev = fill_ok(&mut a, 4, 3).expect("must evict");
        assert_eq!(ev.line.addr, LineAddr(0));
        assert!(a.probe(LineAddr(0)).is_none());
        assert!(a.probe(LineAddr(2)).is_some());
        assert!(a.probe(LineAddr(4)).is_some());
    }

    #[test]
    fn access_updates_lru() {
        let mut a = arr();
        fill_ok(&mut a, 0, 1);
        fill_ok(&mut a, 2, 2);
        a.access(LineAddr(0)); // 0 becomes MRU, so 2 is the victim
        let ev = fill_ok(&mut a, 4, 3).unwrap();
        assert_eq!(ev.line.addr, LineAddr(2));
    }

    #[test]
    fn access_miss_changes_nothing() {
        let mut a = arr();
        fill_ok(&mut a, 0, 1);
        let before = format!("{a:?}");
        assert!(a.access(LineAddr(2)).is_none());
        assert_eq!(
            format!("{a:?}"),
            before,
            "a miss must not advance the LRU clock"
        );
    }

    #[test]
    fn refill_resident_line_replaces_in_place() {
        let mut a = arr();
        fill_ok(&mut a, 0, 1);
        let old = fill_ok(&mut a, 0, 9).expect("old copy returned");
        assert_eq!(old.line.state, 1);
        assert_eq!(a.probe(LineAddr(0)).unwrap().state, 9);
        assert_eq!(a.len(), 1, "no duplicate copies");
    }

    #[test]
    fn non_replaceable_lines_stall_fill() {
        let mut a = arr();
        fill_ok(&mut a, 0, 1);
        fill_ok(&mut a, 2, 2);
        // Nothing replaceable → fill must report a stall.
        let r = a.fill(LineAddr(4), 3, LineData::zeroed(), false, |_, _| false);
        assert!(r.is_err());
        assert!(a.probe(LineAddr(4)).is_none());
        // Only state 2 replaceable → it must be chosen despite LRU order.
        let r = a
            .fill(LineAddr(4), 3, LineData::zeroed(), false, |_, s| *s == 2)
            .unwrap()
            .unwrap();
        assert_eq!(r.line.state, 2);
    }

    #[test]
    fn invalidate_removes() {
        let mut a = arr();
        fill_ok(&mut a, 0, 5);
        let line = a.invalidate(LineAddr(0)).unwrap();
        assert_eq!(line.state, 5);
        assert!(a.probe(LineAddr(0)).is_none());
        assert!(a.invalidate(LineAddr(0)).is_none());
    }

    #[test]
    fn drain_empties_everything() {
        let mut a = arr();
        fill_ok(&mut a, 0, 1);
        fill_ok(&mut a, 1, 2);
        fill_ok(&mut a, 2, 3);
        let drained = a.drain();
        assert_eq!(drained.len(), 3);
        assert!(a.is_empty());
    }

    #[test]
    fn dirty_bit_round_trips() {
        let mut a = arr();
        a.fill(LineAddr(0), 0u32, LineData::zeroed(), true, |_, _| true)
            .unwrap();
        assert!(a.probe(LineAddr(0)).unwrap().dirty);
    }

    #[test]
    #[should_panic(expected = "sets and ways")]
    fn zero_geometry_panics() {
        let _: TagArray<u8> = TagArray::new(0, 4);
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;
        use std::collections::HashSet;

        proptest! {
            /// Residency model: after any fill sequence (all lines
            /// replaceable), the array holds exactly the lines not yet
            /// evicted, never more than sets × ways of them, and never
            /// more than `ways` per set.
            #[test]
            fn fills_respect_geometry_and_track_residency(
                addrs in proptest::collection::vec(0u64..64, 1..80),
                sets in 1usize..5,
                ways in 1usize..4,
            ) {
                let mut a: TagArray<u32> = TagArray::new(sets, ways);
                let mut resident: HashSet<u64> = HashSet::new();
                for (i, &addr) in addrs.iter().enumerate() {
                    let ev = a
                        .fill(LineAddr(addr), i as u32, LineData::zeroed(), false, |_, _| true)
                        .expect("all lines replaceable");
                    resident.insert(addr);
                    if let Some(ev) = ev {
                        if ev.line.addr.0 != addr {
                            resident.remove(&ev.line.addr.0);
                        }
                    }
                    prop_assert!(a.len() <= sets * ways);
                    prop_assert!(a.probe(LineAddr(addr)).is_some());
                }
                prop_assert_eq!(a.len(), resident.len());
                for &r in &resident {
                    prop_assert!(a.probe(LineAddr(r)).is_some(), "line {} lost", r);
                }
                // Per-set occupancy never exceeds the way count.
                for s in 0..sets {
                    let in_set = resident
                        .iter()
                        .filter(|&&r| (r as usize) % sets == s)
                        .count();
                    prop_assert!(in_set <= ways, "set {} holds {} > {} lines", s, in_set, ways);
                }
            }

            /// Partition-stride indexing: a bank that only ever sees lines
            /// of its own partition (line ≡ p mod stride) must use every
            /// set — filling sets × ways such lines evicts nothing.
            #[test]
            fn stride_uses_every_set(
                stride in 1u64..9,
                p in 0u64..8,
                sets in 1usize..6,
                ways in 1usize..4,
            ) {
                let p = p % stride;
                let mut a: TagArray<()> = TagArray::with_stride(sets, ways, stride);
                for i in 0..(sets * ways) as u64 {
                    let addr = p + stride * i;
                    let ev = a
                        .fill(LineAddr(addr), (), LineData::zeroed(), false, |_, _| true)
                        .expect("replaceable");
                    prop_assert!(ev.is_none(), "eviction before capacity at line {}", addr);
                }
                prop_assert_eq!(a.len(), sets * ways);
            }

            /// The fill victim is always the least-recently-used line of
            /// the set, and `peek_victim` agrees with `fill`.
            #[test]
            fn lru_and_peek_agree(
                accesses in proptest::collection::vec(0u64..4, 0..12),
                ways in 2usize..5,
            ) {
                let mut a: TagArray<()> = TagArray::new(1, ways);
                for i in 0..ways as u64 {
                    a.fill(LineAddr(i), (), LineData::zeroed(), false, |_, _| true)
                        .unwrap();
                }
                let mut order: Vec<u64> = (0..ways as u64).collect();
                for &x in accesses.iter().filter(|&&x| (x as usize) < ways) {
                    if a.access(LineAddr(x)).is_some() {
                        order.retain(|&o| o != x);
                        order.push(x);
                    }
                }
                let lru = order[0];
                let peeked = a.peek_victim(LineAddr(99), |_, _| true).map(|l| l.addr);
                prop_assert_eq!(peeked, Some(LineAddr(lru)));
                let ev = a
                    .fill(LineAddr(99), (), LineData::zeroed(), false, |_, _| true)
                    .unwrap()
                    .expect("full set must evict");
                prop_assert_eq!(ev.line.addr, LineAddr(lru));
            }

            /// A fill whose set has no replaceable line stalls with
            /// `Err(())` and modifies nothing.
            #[test]
            fn pinned_set_stalls_fills(ways in 1usize..5) {
                let mut a: TagArray<()> = TagArray::new(1, ways);
                for i in 0..ways as u64 {
                    a.fill(LineAddr(i), (), LineData::zeroed(), false, |_, _| true)
                        .unwrap();
                }
                let r = a.fill(LineAddr(99), (), LineData::zeroed(), false, |_, _| false);
                prop_assert!(r.is_err());
                prop_assert_eq!(a.len(), ways);
                prop_assert!(a.probe(LineAddr(99)).is_none());
            }
        }
    }
}
