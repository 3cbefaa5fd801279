//! Service-level fault injection for `rcc-serve`.
//!
//! The simulator-level [`crate::Perturber`] stresses the *protocols*;
//! this module stresses the *service* around them: the write-ahead
//! journal, the artifact store, and the worker pool. Faults are drawn
//! from the same seeded PCG-32 machinery, but with one crucial twist —
//! every draw is a **one-shot generator keyed by the event's identity**
//! (journal record index, job id, attempt number) rather than a shared
//! mutable stream. Worker threads race, so draw *order* is
//! nondeterministic; keying each draw by identity makes the fault plan a
//! pure function of `(seed, event)`, reproducible across process
//! restarts — which is exactly what the kill -9 recovery soak needs.
//!
//! Three fault families:
//!
//! - **Write faults** ([`WriteFault`]) hit journal appends and store
//!   writes: a typed IO error, a torn write (a prefix of the frame hits
//!   the disk), a single-bit flip in flight, or a skipped fsync (the
//!   record rides in the page cache and dies with the process).
//! - **Worker faults** ([`WorkerFault`]) hit slices: a panic at a
//!   seeded point, or a wedge (the slice blocks until the supervisor's
//!   wall-clock watchdog abandons it). Stride rules make specific job
//!   ids crash-loop deterministically, so quarantine paths are testable.
//! - **Kill points** (`kill_at`): absolute journal record indices at
//!   which the process "dies" mid-write — the frame is torn at a seeded
//!   byte offset and every later durable write is dropped, emulating
//!   `kill -9` purely through on-disk state.

use rcc_common::rng::Pcg32;

/// Decorrelation streams for service-level draws (disjoint from the
/// simulator streams in [`crate::stream`]).
pub mod stream {
    /// Journal append faults, keyed by record index.
    pub const JOURNAL: u64 = 0x400;
    /// Store artifact-write faults, keyed by job id.
    pub const STORE: u64 = 0x401;
    /// Probabilistic worker-slice faults, keyed by (job, attempt).
    pub const WORKER: u64 = 0x402;
    /// Torn-write cut points, keyed by record index.
    pub const TORN: u64 = 0x403;
}

/// What happens to one durable write (journal append or store write).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WriteFault {
    /// The write goes through untouched.
    None,
    /// The write fails with a typed IO error; nothing hits the disk.
    IoError,
    /// Only a prefix of the frame hits the disk (torn write). The
    /// writer detects it and must restore the journal invariant.
    TornWrite,
    /// One bit of the frame is flipped in flight; replay must detect
    /// it via the per-record digest and fail closed.
    BitFlip,
    /// The write lands but the fsync is skipped: the record is only in
    /// the page cache and is lost if the process dies before the next
    /// synced append.
    DelayedFsync,
}

/// What happens to one worker slice.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WorkerFault {
    /// The slice runs normally.
    None,
    /// The slice panics at a seeded point (caught by the supervisor).
    Panic,
    /// The slice wedges: it blocks until the wall-clock watchdog
    /// abandons the worker.
    Wedge,
}

/// A `(stride, residue)` rule: fires for job ids with
/// `id % stride == residue`. Deterministic across restarts, so the
/// same jobs crash-loop in every recovery phase.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StrideRule {
    /// Modulus (0 disables the rule).
    pub stride: u64,
    /// Residue class that fires.
    pub residue: u64,
}

impl StrideRule {
    /// A disabled rule.
    pub const OFF: StrideRule = StrideRule {
        stride: 0,
        residue: 0,
    };

    /// True when the rule fires for `id`.
    pub fn hits(&self, id: u64) -> bool {
        self.stride != 0 && id % self.stride == self.residue
    }
}

/// The full service-level fault plan. Everything defaults to off;
/// tests enable exactly the families they exercise.
#[derive(Debug, Clone, PartialEq)]
pub struct ServiceFaultSpec {
    /// Seed for every probabilistic draw.
    pub seed: u64,
    /// P(typed IO error) per journal append.
    pub journal_io_error_p: f64,
    /// P(torn write) per journal append.
    pub journal_torn_p: f64,
    /// P(single-bit flip) per journal append.
    pub journal_bitflip_p: f64,
    /// P(skipped fsync) per journal append.
    pub delayed_fsync_p: f64,
    /// P(typed IO error) per store artifact write.
    pub store_io_error_p: f64,
    /// P(panic) per slice, keyed by (job, attempt) — a hit repeats on
    /// replays of the same attempt but not on retries.
    pub slice_panic_p: f64,
    /// Jobs that panic on **every** attempt (crash-loop → quarantine).
    pub panic_jobs: StrideRule,
    /// Jobs that panic on their **first** attempt only (the retry
    /// succeeds, proving backoff recovery).
    pub transient_panic_jobs: StrideRule,
    /// Jobs that panic on their first attempt's first slice that goes on
    /// from a parked boundary: the retry must replay to that boundary
    /// from the spec, as recovery after a restart does.
    pub parked_panic_jobs: StrideRule,
    /// Jobs whose slices wedge on every attempt (watchdog → quarantine).
    pub wedge_jobs: StrideRule,
    /// Absolute journal record indices at which the process "dies"
    /// mid-append (sorted; each fires once).
    pub kill_at: Vec<u64>,
}

impl Default for ServiceFaultSpec {
    fn default() -> Self {
        ServiceFaultSpec {
            seed: 0,
            journal_io_error_p: 0.0,
            journal_torn_p: 0.0,
            journal_bitflip_p: 0.0,
            delayed_fsync_p: 0.0,
            store_io_error_p: 0.0,
            slice_panic_p: 0.0,
            panic_jobs: StrideRule::OFF,
            transient_panic_jobs: StrideRule::OFF,
            parked_panic_jobs: StrideRule::OFF,
            wedge_jobs: StrideRule::OFF,
            kill_at: Vec::new(),
        }
    }
}

impl ServiceFaultSpec {
    /// A named IO-fault profile for the chaos suite: occasional typed
    /// IO errors, torn writes, and skipped fsyncs on the durable path.
    pub fn flaky_disk(seed: u64) -> Self {
        ServiceFaultSpec {
            seed,
            journal_io_error_p: 0.02,
            journal_torn_p: 0.01,
            delayed_fsync_p: 0.05,
            store_io_error_p: 0.02,
            ..ServiceFaultSpec::default()
        }
    }

    /// A named worker-fault profile: seeded panics plus one
    /// deterministic crash-looping residue class.
    pub fn flaky_workers(seed: u64) -> Self {
        ServiceFaultSpec {
            seed,
            slice_panic_p: 0.02,
            panic_jobs: StrideRule {
                stride: 37,
                residue: 5,
            },
            transient_panic_jobs: StrideRule {
                stride: 23,
                residue: 7,
            },
            ..ServiceFaultSpec::default()
        }
    }
}

/// The seeded injector the service consults. All methods take `&self`
/// and are pure functions of `(spec, event identity)`: safe to share
/// across worker threads behind an `Arc` with no lock, and the plan
/// replays identically after a process restart.
#[derive(Debug, Clone)]
pub struct ServiceInjector {
    spec: ServiceFaultSpec,
}

/// One-shot generator for an identity-keyed draw: the stream encodes
/// the site, the key perturbs the seed through a splitmix-style mix so
/// neighboring keys decorrelate.
fn one_shot(seed: u64, stream: u64, key: u64) -> Pcg32 {
    let mut z = key.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    Pcg32::new(seed ^ (z ^ (z >> 31)), stream)
}

impl ServiceInjector {
    /// Wraps a fault plan.
    pub fn new(spec: ServiceFaultSpec) -> Self {
        ServiceInjector { spec }
    }

    /// The plan this injector draws from.
    pub fn spec(&self) -> &ServiceFaultSpec {
        &self.spec
    }

    /// True when appending record `index` is a kill point.
    pub fn kill_at(&self, index: u64) -> bool {
        self.spec.kill_at.contains(&index)
    }

    /// The fault (if any) for journal record `index`. Kill points are
    /// handled separately via [`ServiceInjector::kill_at`].
    pub fn journal_fault(&self, index: u64) -> WriteFault {
        let mut rng = one_shot(self.spec.seed, stream::JOURNAL, index);
        if rng.chance(self.spec.journal_io_error_p) {
            return WriteFault::IoError;
        }
        if rng.chance(self.spec.journal_torn_p) {
            return WriteFault::TornWrite;
        }
        if rng.chance(self.spec.journal_bitflip_p) {
            return WriteFault::BitFlip;
        }
        if rng.chance(self.spec.delayed_fsync_p) {
            return WriteFault::DelayedFsync;
        }
        WriteFault::None
    }

    /// Where to cut a torn frame of `len` bytes: a seeded offset in
    /// `[1, len)` (at least one byte lands, the record never completes).
    pub fn torn_cut(&self, index: u64, len: usize) -> usize {
        if len <= 1 {
            return len;
        }
        let mut rng = one_shot(self.spec.seed, stream::TORN, index);
        rng.range(1, len as u64) as usize
    }

    /// True when job `id`'s artifact write fails with an IO error.
    pub fn store_fault(&self, id: u64) -> bool {
        let mut rng = one_shot(self.spec.seed, stream::STORE, id);
        rng.chance(self.spec.store_io_error_p)
    }

    /// The worker fault (if any) for a slice of job `id` on 0-based
    /// retry `attempt`; `parked` says whether the job has parked at a
    /// boundary yet.
    pub fn worker_fault(&self, id: u64, attempt: u32, parked: bool) -> WorkerFault {
        if self.spec.wedge_jobs.hits(id) {
            return WorkerFault::Wedge;
        }
        if self.spec.panic_jobs.hits(id) {
            return WorkerFault::Panic;
        }
        if attempt == 0 && self.spec.transient_panic_jobs.hits(id) {
            return WorkerFault::Panic;
        }
        if attempt == 0 && parked && self.spec.parked_panic_jobs.hits(id) {
            return WorkerFault::Panic;
        }
        let key = (id << 8) ^ attempt as u64;
        let mut rng = one_shot(self.spec.seed, stream::WORKER, key);
        if rng.chance(self.spec.slice_panic_p) {
            return WorkerFault::Panic;
        }
        WorkerFault::None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn draws_are_identity_keyed_and_stable() {
        let a = ServiceInjector::new(ServiceFaultSpec::flaky_disk(42));
        let b = ServiceInjector::new(ServiceFaultSpec::flaky_disk(42));
        for i in 0..500 {
            assert_eq!(a.journal_fault(i), b.journal_fault(i), "record {i}");
            assert_eq!(a.store_fault(i), b.store_fault(i), "job {i}");
        }
    }

    #[test]
    fn seeds_decorrelate() {
        let a = ServiceInjector::new(ServiceFaultSpec::flaky_disk(1));
        let b = ServiceInjector::new(ServiceFaultSpec::flaky_disk(2));
        let same = (0..2000)
            .filter(|&i| a.journal_fault(i) == b.journal_fault(i))
            .count();
        assert!(same < 2000, "different seeds must produce different plans");
    }

    #[test]
    fn flaky_disk_actually_fires() {
        let inj = ServiceInjector::new(ServiceFaultSpec::flaky_disk(7));
        let fired = (0..2000)
            .filter(|&i| inj.journal_fault(i) != WriteFault::None)
            .count();
        assert!(fired > 50, "profile too quiet: {fired} faults in 2000");
    }

    #[test]
    fn stride_rules_are_deterministic() {
        let inj = ServiceInjector::new(ServiceFaultSpec::flaky_workers(3));
        assert_eq!(inj.worker_fault(5, 0, false), WorkerFault::Panic);
        assert_eq!(
            inj.worker_fault(5, 3, true),
            WorkerFault::Panic,
            "every attempt"
        );
        assert_eq!(
            inj.worker_fault(7, 0, false),
            WorkerFault::Panic,
            "transient"
        );
        // Job 7 (residue 7 mod 23) recovers on retry unless the
        // probabilistic draw also fires; with p=0.02 pick a seed where
        // it does not.
        assert_eq!(inj.worker_fault(7, 1, false), WorkerFault::None);
    }

    #[test]
    fn parked_panics_wait_for_a_boundary_and_fire_once() {
        let inj = ServiceInjector::new(ServiceFaultSpec {
            parked_panic_jobs: StrideRule {
                stride: 1,
                residue: 0,
            },
            ..ServiceFaultSpec::default()
        });
        assert_eq!(
            inj.worker_fault(4, 0, false),
            WorkerFault::None,
            "first slice"
        );
        assert_eq!(inj.worker_fault(4, 0, true), WorkerFault::Panic);
        assert_eq!(inj.worker_fault(4, 1, true), WorkerFault::None, "the retry");
    }

    #[test]
    fn torn_cut_is_a_strict_prefix() {
        let inj = ServiceInjector::new(ServiceFaultSpec::flaky_disk(11));
        for i in 0..100 {
            let cut = inj.torn_cut(i, 64);
            assert!((1..64).contains(&cut), "cut {cut} must tear the frame");
        }
    }

    #[test]
    fn kill_points_fire_exactly_at_their_index() {
        let spec = ServiceFaultSpec {
            kill_at: vec![3, 17],
            ..ServiceFaultSpec::default()
        };
        let inj = ServiceInjector::new(spec);
        assert!(inj.kill_at(3) && inj.kill_at(17));
        assert!(!inj.kill_at(4) && !inj.kill_at(0));
    }
}
