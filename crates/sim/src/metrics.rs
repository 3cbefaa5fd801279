//! Run measurements: everything the paper's figures are computed from.

use rcc_common::addr::WordAddr;
use rcc_common::snap::StateDigest;
use rcc_common::stats::{Histogram, MsgClass, TrafficStats};
use rcc_core::protocol::{L1Stats, L2Stats};
use rcc_core::ProtocolKind;
use rcc_gpu::CoreStats;
use rcc_noc::EnergyBreakdown;
use rcc_obs::{DigestWriter, ObsReport, SimProfile};

/// Telemetry of the engine's calendar queue: how many wake events were
/// posted and superseded, and how deep the queue ran. Pure engine
/// measurement — two runs with identical simulated results may differ
/// here (e.g. fast-forward on vs. off).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SchedStats {
    /// Wake events posted into the calendar queue (arms that changed a
    /// component's slot).
    pub events_posted: u64,
    /// Wakes superseded by a re-arm or disarmed before they fired.
    pub events_cancelled: u64,
    /// Median queue depth (armed slots) sampled at every post.
    pub queue_depth_p50: u64,
    /// Peak queue depth (armed slots).
    pub queue_depth_max: u64,
}

/// Aggregated measurements of one simulation run.
#[derive(Debug, Clone)]
pub struct RunMetrics {
    /// Protocol configuration that ran.
    pub kind: ProtocolKind,
    /// Workload name.
    pub workload: String,
    /// Wall-clock cycles until every warp retired.
    pub cycles: u64,
    /// Core-side statistics, merged over all cores.
    pub core: CoreStats,
    /// L1 statistics, merged.
    pub l1: L1Stats,
    /// L2 statistics, merged.
    pub l2: L2Stats,
    /// NoC traffic by message class.
    pub traffic: TrafficStats,
    /// Interconnect energy breakdown.
    pub energy: EnergyBreakdown,
    /// DRAM accesses (reads, writes) and mean read latency.
    pub dram_reads: u64,
    /// DRAM writes.
    pub dram_writes: u64,
    /// Mean DRAM read latency in cycles.
    pub dram_read_latency: f64,
    /// SC violations found by the scoreboard (0 unless checking was on
    /// and the protocol is broken — or TC-Weak, which is expected to
    /// violate write atomicity).
    pub sc_violations: usize,
    /// Runtime SC sanitizer verdict: `Some(true)` if an SC total order
    /// exists for the recorded execution, `Some(false)` if not, `None`
    /// when the sanitizer was not enabled.
    pub sanitizer_sc: Option<bool>,
    /// Timestamp rollovers performed (RCC only).
    pub rollovers: u64,
    /// Perturbations fired by the chaos harness (0 unless the run was
    /// armed with a [`rcc_chaos::ChaosSpec`]). Part of the simulated
    /// results: two runs of the same (seed, profile) must inject exactly
    /// the same perturbations, fast-forwarding or not.
    pub chaos_events: u64,
    /// Cycles the engine fast-forwarded over instead of stepping. Pure
    /// engine telemetry: simulated results are identical whether these
    /// cycles were skipped or stepped (see
    /// [`RunMetrics::same_simulated_results`]).
    pub skipped_cycles: u64,
    /// Fast-forward jumps taken (engine telemetry).
    pub ff_jumps: u64,
    /// Calendar-queue scheduler telemetry (engine telemetry, excluded
    /// from [`RunMetrics::same_simulated_results`] like the other
    /// engine counters).
    pub sched: SchedStats,
    /// Simulator self-profile: wall-clock attribution per engine phase.
    /// `None` unless profiling was armed. Host-machine measurement, not a
    /// simulated result — excluded from
    /// [`RunMetrics::same_simulated_results`].
    pub profile: Option<SimProfile>,
    /// What the attached observer recorded (time-series + trace). `None`
    /// unless an observer was armed. Observation, not simulation —
    /// excluded from [`RunMetrics::same_simulated_results`].
    pub obs: Option<ObsReport>,
    /// FNV digest of the logical final memory image: the winning write
    /// per word ordered by `(timestamp, sequence)`, which is protocol-
    /// independent for race-free programs. A simulated result (compared
    /// by [`RunMetrics::same_simulated_results`] and the differential
    /// trace-replay suite) but *not* folded into [`RunMetrics::digest`]:
    /// the golden snapshot hashes predate it and must stay stable.
    pub final_mem_digest: u64,
}

impl RunMetrics {
    /// Fraction of simulated cycles the engine skipped rather than
    /// stepped (0 when fast-forwarding is off or never fired).
    pub fn skip_ratio(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.skipped_cycles as f64 / self.cycles as f64
        }
    }

    /// Whether two runs produced bit-identical *simulated* results:
    /// every architectural measurement must match exactly; only the
    /// engine telemetry (skipped cycles / jumps) may differ. This is
    /// the fast-forward correctness contract the determinism tests
    /// enforce.
    #[allow(clippy::float_cmp)] // bit-identical is the requirement
    pub fn same_simulated_results(&self, other: &RunMetrics) -> bool {
        self.kind == other.kind
            && self.workload == other.workload
            && self.cycles == other.cycles
            && self.core == other.core
            && self.l1 == other.l1
            && self.l2 == other.l2
            && self.traffic == other.traffic
            && self.energy == other.energy
            && self.dram_reads == other.dram_reads
            && self.dram_writes == other.dram_writes
            && self.dram_read_latency == other.dram_read_latency
            && self.sc_violations == other.sc_violations
            && self.sanitizer_sc == other.sanitizer_sc
            && self.rollovers == other.rollovers
            && self.chaos_events == other.chaos_events
            && self.final_mem_digest == other.final_mem_digest
    }

    /// Instructions per cycle.
    pub fn ipc(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.core.issued as f64 / self.cycles as f64
        }
    }

    /// Speedup of this run relative to a baseline run of the same
    /// workload (the normalization of Figs. 8–10).
    pub fn speedup_over(&self, baseline: &RunMetrics) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            baseline.cycles as f64 / self.cycles as f64
        }
    }

    /// SC stall rate normalized per issued memory operation.
    pub fn sc_stalls_per_mem_op(&self) -> f64 {
        if self.core.mem_ops == 0 {
            0.0
        } else {
            self.core.sc_stall_cycles as f64 / self.core.mem_ops as f64
        }
    }

    /// Fraction of loads that found data valid-but-expired in the L1
    /// (Fig. 6 left).
    pub fn expired_load_fraction(&self) -> f64 {
        if self.l1.loads == 0 {
            0.0
        } else {
            self.l1.expired_loads as f64 / self.l1.loads as f64
        }
    }

    /// Of the expired loads, the fraction revalidated by a RENEW — i.e.
    /// premature expirations (Fig. 6 right).
    pub fn renewable_fraction(&self) -> f64 {
        if self.l1.expired_loads == 0 {
            0.0
        } else {
            self.l1.renewed_loads as f64 / self.l1.expired_loads as f64
        }
    }

    /// Seeded digest over every *simulated* field — exactly the set
    /// [`RunMetrics::same_simulated_results`] compares, so two runs are
    /// digest-equal iff they are result-equal. This is what the golden
    /// snapshot tests pin: one stable hash instead of a wall of floats.
    /// Engine telemetry (`skipped_cycles`, `ff_jumps`, `sched`) and
    /// observation (`profile`, `obs`) are deliberately not hashed.
    pub fn digest(&self, seed: u64) -> u64 {
        let mut w = DigestWriter::new(seed);
        w.write_str(&self.kind.to_string());
        w.write_str(&self.workload);
        w.write_u64(self.cycles);
        // Core stats.
        let c = &self.core;
        for v in [
            c.issued,
            c.mem_ops,
            c.sc_stall_cycles,
            c.sc_stall_cycles_prev_load,
            c.sc_stall_cycles_prev_store,
            c.sc_stall_cycles_prev_atomic,
            c.stalled_mem_ops,
            c.structural_stall_cycles,
            c.fence_stall_cycles,
            c.lock_retries,
            c.barrier_polls,
        ] {
            w.write_u64(v);
        }
        for h in [
            &c.stall_resolve,
            &c.load_latency,
            &c.store_latency,
            &c.atomic_latency,
        ] {
            digest_histogram(&mut w, h);
        }
        // L1 stats.
        let l1 = &self.l1;
        for v in [
            l1.loads,
            l1.load_hits,
            l1.expired_loads,
            l1.renewed_loads,
            l1.stores,
            l1.atomics,
            l1.self_invalidations,
            l1.rejects,
            l1.invs_received,
        ] {
            w.write_u64(v);
        }
        // L2 stats.
        let l2 = &self.l2;
        for v in [
            l2.gets,
            l2.renews_granted,
            l2.writes,
            l2.atomics,
            l2.dram_fetches,
            l2.writebacks,
            l2.invs_sent,
            l2.stalled_stores,
            l2.store_stall_cycles,
        ] {
            w.write_u64(v);
        }
        // Traffic by class.
        for class in MsgClass::ALL {
            w.write_u64(self.traffic.msgs(class));
            w.write_u64(self.traffic.flits(class));
        }
        // Energy (floats by bit pattern — bit-identical runs only).
        w.write_f64(self.energy.router_pj);
        w.write_f64(self.energy.link_pj);
        w.write_f64(self.energy.static_pj);
        w.write_u64(self.dram_reads);
        w.write_u64(self.dram_writes);
        w.write_f64(self.dram_read_latency);
        w.write_u64(self.sc_violations as u64);
        w.write_u64(match self.sanitizer_sc {
            None => 0,
            Some(false) => 1,
            Some(true) => 2,
        });
        w.write_u64(self.rollovers);
        w.write_u64(self.chaos_events);
        w.finish()
    }

    /// FNV digest of a final-memory image, exactly as
    /// [`final_mem_digest`](RunMetrics::final_mem_digest) is computed
    /// from a live system — callers holding the sorted word list can
    /// cross-check the metrics field or diff images offline.
    pub fn digest_words(words: &[(WordAddr, u64)]) -> u64 {
        let mut d = StateDigest::new();
        for &(addr, value) in words {
            d.write_u64(addr.0);
            d.write_u64(value);
        }
        d.finish()
    }

    /// Mean load latency (Fig. 1c).
    pub fn load_latency(&self) -> &Histogram {
        &self.core.load_latency
    }

    /// Mean store latency (Fig. 1c).
    pub fn store_latency(&self) -> &Histogram {
        &self.core.store_latency
    }
}

/// Folds a histogram's full state (moments + log2 buckets) into a digest.
fn digest_histogram(w: &mut DigestWriter, h: &Histogram) {
    w.write_u64(h.count());
    w.write_u64(h.sum());
    w.write_u64(h.min().unwrap_or(0));
    w.write_u64(h.max().unwrap_or(0));
    w.write_u64s(h.buckets());
}

#[cfg(test)]
mod tests {
    use super::*;
    use rcc_common::stats::TrafficStats;
    use rcc_core::protocol::{L1Stats, L2Stats};
    use rcc_gpu::CoreStats;
    use rcc_noc::EnergyBreakdown;

    fn metrics(cycles: u64, issued: u64) -> RunMetrics {
        let core = CoreStats {
            issued,
            mem_ops: issued / 2,
            ..CoreStats::default()
        };
        RunMetrics {
            kind: ProtocolKind::RccSc,
            workload: "test".into(),
            cycles,
            core,
            l1: L1Stats::default(),
            l2: L2Stats::default(),
            traffic: TrafficStats::new(),
            energy: EnergyBreakdown::default(),
            dram_reads: 0,
            dram_writes: 0,
            dram_read_latency: 0.0,
            sc_violations: 0,
            sanitizer_sc: None,
            rollovers: 0,
            chaos_events: 0,
            skipped_cycles: 0,
            ff_jumps: 0,
            sched: SchedStats::default(),
            profile: None,
            obs: None,
            final_mem_digest: 0,
        }
    }

    #[test]
    fn ipc_and_speedup() {
        let a = metrics(1000, 500);
        let b = metrics(2000, 500);
        assert!((a.ipc() - 0.5).abs() < 1e-12);
        assert!((a.speedup_over(&b) - 2.0).abs() < 1e-12);
        assert!((b.speedup_over(&a) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn zero_cycle_edge_cases() {
        let z = metrics(0, 0);
        assert_eq!(z.ipc(), 0.0);
        assert_eq!(z.speedup_over(&metrics(100, 1)), 0.0);
        assert_eq!(z.sc_stalls_per_mem_op(), 0.0);
        assert_eq!(z.expired_load_fraction(), 0.0);
        assert_eq!(z.renewable_fraction(), 0.0);
    }

    #[test]
    fn digest_tracks_simulated_fields_only() {
        let a = metrics(1000, 500);
        let mut b = metrics(1000, 500);
        assert_eq!(a.digest(1), b.digest(1));
        // Engine telemetry and observation must not move the digest —
        // digest-equality has to mean same_simulated_results.
        b.skipped_cycles = 999;
        b.ff_jumps = 3;
        b.sched = SchedStats {
            events_posted: 12,
            events_cancelled: 4,
            queue_depth_p50: 3,
            queue_depth_max: 9,
        };
        b.profile = Some(rcc_obs::SimProfile::new());
        assert_eq!(a.digest(1), b.digest(1));
        assert!(a.same_simulated_results(&b));
        // Any simulated field moves it.
        b.cycles = 1001;
        assert_ne!(a.digest(1), b.digest(1));
        assert!(!a.same_simulated_results(&b));
        // Seed matters.
        assert_ne!(a.digest(1), a.digest(2));
    }

    #[test]
    fn fractions() {
        let mut m = metrics(10, 10);
        m.l1.loads = 100;
        m.l1.expired_loads = 25;
        m.l1.renewed_loads = 20;
        assert!((m.expired_load_fraction() - 0.25).abs() < 1e-12);
        assert!((m.renewable_fraction() - 0.8).abs() < 1e-12);
        m.core.sc_stall_cycles = 50;
        assert!((m.sc_stalls_per_mem_op() - 10.0).abs() < 1e-12);
    }
}
