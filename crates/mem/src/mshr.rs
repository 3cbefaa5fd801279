//! Miss Status Holding Register (MSHR) files.
//!
//! An MSHR file tracks outstanding misses per cache line. Requests to a
//! line that already has an entry are *merged* into it (up to a merge
//! cap); when the file is full, or an entry's merge list is full, new
//! requests must stall — a structural hazard the paper identifies as one
//! of the ways long store latencies hurt GPU throughput (Section I).
//!
//! The per-entry record type `E` is protocol-defined: the RCC L2, for
//! example, stores `lastrd`/`lastwr` logical timestamps and merged store
//! data in its entries (Section III-D).

use rcc_chaos::{PerturbPoint, Site};
use rcc_common::addr::LineAddr;
use rcc_common::FxHashMap;

/// Why an MSHR allocation or merge was refused.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MshrRejection {
    /// No free entries: the whole file is occupied.
    Full,
    /// The line has an entry but its merge list is at capacity.
    MergeListFull,
}

/// A file of MSHR entries keyed by line address.
#[derive(Debug, Clone)]
pub struct MshrFile<E> {
    capacity: usize,
    merge_cap: usize,
    entries: FxHashMap<LineAddr, (E, usize)>,
    high_water: usize,
    /// Chaos hook: when set, allocations/merges may be transiently
    /// refused as if the file were full (`Site::MshrSqueeze`). Callers
    /// already handle both rejections (structural stall + retry), so a
    /// squeeze only perturbs timing, never correctness.
    chaos: Option<Box<dyn PerturbPoint>>,
}

impl<E> MshrFile<E> {
    /// Creates a file with `capacity` entries, each allowing `merge_cap`
    /// merged requests (including the original).
    ///
    /// # Panics
    ///
    /// Panics if `capacity` or `merge_cap` is zero.
    pub fn new(capacity: usize, merge_cap: usize) -> Self {
        assert!(capacity > 0 && merge_cap > 0);
        MshrFile {
            capacity,
            merge_cap,
            entries: FxHashMap::default(),
            high_water: 0,
            chaos: None,
        }
    }

    /// Installs a perturbation hook (see [`Site::MshrSqueeze`]). Only
    /// safe on files whose callers tolerate rejection on *every*
    /// allocate/merge path — L1 controllers do; L2 banks retry a
    /// deferred request that found the file full only when a DRAM fill
    /// frees an entry, and must not be squeezed.
    pub fn set_chaos(&mut self, hook: Box<dyn PerturbPoint>) {
        self.chaos = Some(hook);
    }

    fn squeezed(&mut self) -> bool {
        match &mut self.chaos {
            Some(c) => c.fires(Site::MshrSqueeze),
            None => false,
        }
    }

    /// Looks up the entry for a line.
    pub fn get(&self, addr: LineAddr) -> Option<&E> {
        self.entries.get(&addr).map(|(e, _)| e)
    }

    /// Looks up the entry for a line mutably (does not count as a merge).
    pub fn get_mut(&mut self, addr: LineAddr) -> Option<&mut E> {
        self.entries.get_mut(&addr).map(|(e, _)| e)
    }

    /// Allocates a fresh entry for `addr`.
    ///
    /// # Errors
    ///
    /// [`MshrRejection::Full`] if no entry is free.
    ///
    /// # Panics
    ///
    /// Panics if an entry for `addr` already exists (callers must merge
    /// instead — this is a protocol bug, not a runtime condition).
    pub fn allocate(&mut self, addr: LineAddr, entry: E) -> Result<(), MshrRejection> {
        assert!(
            !self.entries.contains_key(&addr),
            "MSHR double-allocation for {addr}"
        );
        if self.entries.len() >= self.capacity {
            return Err(MshrRejection::Full);
        }
        if self.squeezed() {
            return Err(MshrRejection::Full);
        }
        self.entries.insert(addr, (entry, 1));
        self.high_water = self.high_water.max(self.entries.len());
        Ok(())
    }

    /// Merges an additional request into the entry for `addr`, applying
    /// `f` to the entry.
    ///
    /// # Errors
    ///
    /// [`MshrRejection::MergeListFull`] if the merge list is at capacity
    /// (the entry is left unchanged).
    ///
    /// # Panics
    ///
    /// Panics if no entry exists for `addr`.
    pub fn merge(&mut self, addr: LineAddr, f: impl FnOnce(&mut E)) -> Result<(), MshrRejection> {
        assert!(
            self.entries.contains_key(&addr),
            "MSHR merge into missing entry {addr}"
        );
        if self.entries[&addr].1 >= self.merge_cap {
            return Err(MshrRejection::MergeListFull);
        }
        if self.squeezed() {
            return Err(MshrRejection::MergeListFull);
        }
        let (entry, count) = self.entries.get_mut(&addr).expect("checked above");
        *count += 1;
        f(entry);
        Ok(())
    }

    /// Releases the entry for `addr`, returning it.
    pub fn release(&mut self, addr: LineAddr) -> Option<E> {
        self.entries.remove(&addr).map(|(e, _)| e)
    }

    /// Whether an entry exists for `addr`.
    pub fn contains(&self, addr: LineAddr) -> bool {
        self.entries.contains_key(&addr)
    }

    /// Number of occupied entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the file is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Whether the file has no free entries.
    pub fn is_full(&self) -> bool {
        self.entries.len() >= self.capacity
    }

    /// Maximum simultaneous occupancy observed (for stats).
    pub fn high_water(&self) -> usize {
        self.high_water
    }

    /// Drains all entries (used by the RCC rollover flush). The order is
    /// sorted by line address so downstream effects are deterministic.
    pub fn drain_sorted(&mut self) -> Vec<(LineAddr, E)> {
        let mut v: Vec<(LineAddr, E)> = self
            .entries
            .drain()
            .map(|(addr, (e, _))| (addr, e))
            .collect();
        v.sort_by_key(|(addr, _)| *addr);
        v
    }

    /// Applies `f` to every entry, in address order (deterministic).
    pub fn for_each_sorted(&mut self, mut f: impl FnMut(LineAddr, &mut E)) {
        let mut addrs: Vec<LineAddr> = self.entries.keys().copied().collect();
        addrs.sort_unstable();
        for addr in addrs {
            let (e, _) = self.entries.get_mut(&addr).expect("key just listed");
            f(addr, e);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn allocate_and_release() {
        let mut m: MshrFile<Vec<u32>> = MshrFile::new(2, 4);
        m.allocate(LineAddr(1), vec![10]).unwrap();
        assert!(m.contains(LineAddr(1)));
        assert_eq!(m.get(LineAddr(1)).unwrap(), &vec![10]);
        assert_eq!(m.release(LineAddr(1)).unwrap(), vec![10]);
        assert!(!m.contains(LineAddr(1)));
        assert!(m.release(LineAddr(1)).is_none());
    }

    #[test]
    fn capacity_enforced() {
        let mut m: MshrFile<()> = MshrFile::new(2, 1);
        m.allocate(LineAddr(1), ()).unwrap();
        m.allocate(LineAddr(2), ()).unwrap();
        assert!(m.is_full());
        assert_eq!(m.allocate(LineAddr(3), ()), Err(MshrRejection::Full));
        m.release(LineAddr(1));
        m.allocate(LineAddr(3), ()).unwrap();
    }

    #[test]
    fn merge_updates_entry_up_to_cap() {
        let mut m: MshrFile<Vec<u32>> = MshrFile::new(1, 3);
        m.allocate(LineAddr(5), vec![1]).unwrap();
        m.merge(LineAddr(5), |e| e.push(2)).unwrap();
        m.merge(LineAddr(5), |e| e.push(3)).unwrap();
        assert_eq!(
            m.merge(LineAddr(5), |e| e.push(4)),
            Err(MshrRejection::MergeListFull)
        );
        assert_eq!(m.get(LineAddr(5)).unwrap(), &vec![1, 2, 3]);
    }

    #[test]
    #[should_panic(expected = "double-allocation")]
    fn double_allocate_is_a_bug() {
        let mut m: MshrFile<()> = MshrFile::new(4, 1);
        m.allocate(LineAddr(1), ()).unwrap();
        let _ = m.allocate(LineAddr(1), ());
    }

    #[test]
    #[should_panic(expected = "missing entry")]
    fn merge_into_missing_is_a_bug() {
        let mut m: MshrFile<()> = MshrFile::new(4, 2);
        let _ = m.merge(LineAddr(1), |_| ());
    }

    #[test]
    fn chaos_squeeze_rejects_transiently() {
        use rcc_chaos::{ChaosProfile, ChaosSpec, Perturber};
        let mut squeeze = ChaosProfile::light();
        squeeze.mshr_squeeze_p = 1.0;
        let spec = ChaosSpec::new(1, squeeze);
        let mut m: MshrFile<()> = MshrFile::new(4, 2);
        m.set_chaos(Box::new(Perturber::standalone(&spec, 0)));
        // Empty file, but every allocate/merge is squeezed.
        assert_eq!(m.allocate(LineAddr(1), ()), Err(MshrRejection::Full));
        assert!(m.is_empty());
        // With p = 0 the hook is transparent.
        let spec = ChaosSpec::new(1, ChaosProfile::reorder());
        m.set_chaos(Box::new(Perturber::standalone(&spec, 0)));
        m.allocate(LineAddr(1), ()).unwrap();
        m.merge(LineAddr(1), |_| ()).unwrap();
    }

    #[test]
    fn high_water_tracks_peak() {
        let mut m: MshrFile<()> = MshrFile::new(8, 1);
        m.allocate(LineAddr(1), ()).unwrap();
        m.allocate(LineAddr(2), ()).unwrap();
        m.release(LineAddr(1));
        m.allocate(LineAddr(3), ()).unwrap();
        assert_eq!(m.high_water(), 2);
    }

    #[test]
    fn drain_sorted_is_ordered() {
        let mut m: MshrFile<u32> = MshrFile::new(8, 1);
        for a in [5u64, 1, 3] {
            m.allocate(LineAddr(a), a as u32).unwrap();
        }
        let drained = m.drain_sorted();
        assert_eq!(
            drained,
            vec![(LineAddr(1), 1), (LineAddr(3), 3), (LineAddr(5), 5)]
        );
        assert!(m.is_empty());
    }

    #[test]
    fn for_each_sorted_visits_all_in_order() {
        let mut m: MshrFile<u32> = MshrFile::new(8, 1);
        for a in [9u64, 2, 4] {
            m.allocate(LineAddr(a), 0).unwrap();
        }
        let mut seen = Vec::new();
        m.for_each_sorted(|addr, e| {
            *e += 1;
            seen.push(addr.0);
        });
        assert_eq!(seen, vec![2, 4, 9]);
        assert_eq!(m.get(LineAddr(9)), Some(&1));
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;
        use std::collections::HashMap;

        #[derive(Debug, Clone)]
        enum Op {
            Allocate(u64),
            Merge(u64),
            Release(u64),
        }

        fn op_strategy() -> impl Strategy<Value = Op> {
            prop_oneof![
                (0u64..8).prop_map(Op::Allocate),
                (0u64..8).prop_map(Op::Merge),
                (0u64..8).prop_map(Op::Release),
            ]
        }

        proptest! {
            /// Model-check MshrFile against a plain map: residency,
            /// merge counts, capacity and merge-cap rejections all agree.
            #[test]
            fn matches_reference_model(
                ops in proptest::collection::vec(op_strategy(), 1..60),
                capacity in 1usize..5,
                merge_cap in 1usize..4,
            ) {
                let mut m: MshrFile<usize> = MshrFile::new(capacity, merge_cap);
                // Reference: addr -> merge count (1 = just allocated).
                let mut model: HashMap<u64, usize> = HashMap::new();
                for op in ops {
                    match op {
                        // Allocating over an existing entry and merging
                        // into a missing one are caller bugs (they
                        // panic), so the model steers around them the
                        // way controllers do: check `contains` first.
                        Op::Allocate(a) => {
                            if model.contains_key(&a) {
                                continue;
                            }
                            let r = m.allocate(LineAddr(a), 1);
                            if model.len() == capacity {
                                prop_assert_eq!(r, Err(MshrRejection::Full));
                            } else {
                                prop_assert!(r.is_ok());
                                model.insert(a, 1);
                            }
                        }
                        Op::Merge(a) => {
                            if !model.contains_key(&a) {
                                continue;
                            }
                            let r = m.merge(LineAddr(a), |e| *e += 1);
                            match model.get_mut(&a) {
                                Some(n) if *n >= merge_cap => {
                                    prop_assert_eq!(r, Err(MshrRejection::MergeListFull));
                                }
                                Some(n) => {
                                    prop_assert!(r.is_ok());
                                    *n += 1;
                                }
                                None => unreachable!(),
                            }
                        }
                        Op::Release(a) => {
                            let got = m.release(LineAddr(a));
                            prop_assert_eq!(got, model.remove(&a));
                        }
                    }
                    prop_assert_eq!(m.len(), model.len());
                    prop_assert_eq!(m.is_full(), model.len() == capacity);
                    for (&a, &n) in &model {
                        prop_assert_eq!(m.get(LineAddr(a)), Some(&n));
                    }
                }
            }
        }
    }
}
