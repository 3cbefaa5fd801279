//! Regression tests for bugs found during development — each of these
//! caught a real protocol or witness defect at some point.

use rcc_common::GpuConfig;
use rcc_core::ProtocolKind;
use rcc_sim::runner::{simulate, SimOptions};
use rcc_workloads::{Benchmark, Scale};

/// MESI once excluded the writer's core from invalidations; a sibling
/// warp's refetch raced the write-through and kept a stale copy forever.
/// dlb seed 0/29 under MESI reproduced it.
#[test]
fn mesi_dlb_stale_sibling_copy() {
    let cfg = GpuConfig::small();
    for seed in [0, 29] {
        let wl = Benchmark::Dlb.generate(&cfg, &Scale::quick(), seed);
        let m = simulate(ProtocolKind::Mesi, &cfg, &wl, &SimOptions::checked());
        assert_eq!(m.sc_violations, 0, "seed {seed}");
    }
}

/// RCC once acked refetch-path writes with ver = mnow, tying with a
/// still-valid remote lease at exactly mnow; and loads lacked the bank
/// service slot needed to order same-version ties.
#[test]
fn rcc_dlb_refetch_and_tie_ordering() {
    let cfg = GpuConfig::small();
    for seed in [0, 23, 29] {
        let wl = Benchmark::Dlb.generate(&cfg, &Scale::quick(), seed);
        let m = simulate(ProtocolKind::RccSc, &cfg, &wl, &SimOptions::checked());
        assert_eq!(m.sc_violations, 0, "seed {seed}");
    }
}

/// TCS once let a fill evict a line with parked stores, which then
/// applied against a non-resident line (ndl at standard scale).
#[test]
fn tcs_parked_store_eviction() {
    let cfg = GpuConfig::small();
    for seed in [0, 7] {
        let wl = Benchmark::Ndl.generate(&cfg, &Scale::quick(), seed);
        let m = simulate(ProtocolKind::TcStrong, &cfg, &wl, &SimOptions::checked());
        assert_eq!(m.sc_violations, 0, "seed {seed}");
    }
}

/// SC-IDEAL once deadlocked when a load merged into an MSHR entry
/// created by an atomic (no GETS in flight) — dlb exercises it.
#[test]
fn ideal_load_merges_into_atomic_entry() {
    let cfg = GpuConfig::small();
    let wl = Benchmark::Dlb.generate(&cfg, &Scale::quick(), 17);
    let m = simulate(ProtocolKind::IdealSc, &cfg, &wl, &SimOptions::fast());
    assert!(m.cycles > 0);
}

/// MESI-WB's directory once replayed MSHR-queued requests *behind*
/// requests deferred while the fill was stalled on a recall, inverting
/// same-core arrival order: kmn seed 17 acknowledged atomic 54 before
/// atomic 53 and tripped the L1's response-order assertion.
#[test]
fn mesi_wb_fill_replay_preserves_arrival_order() {
    let cfg = GpuConfig::small();
    for seed in [0, 7, 17] {
        let wl = Benchmark::Kmn.generate(&cfg, &Scale::quick(), seed);
        let m = simulate(ProtocolKind::MesiWb, &cfg, &wl, &SimOptions::checked());
        assert_eq!(m.sc_violations, 0, "seed {seed}");
    }
}

/// MESI and MESI-WB once panicked on lud (standard scale, 16 cores,
/// seed 7): a store deferred behind the recall of its line was
/// re-dispatched after the recall evicted the line, with the L2 MSHR
/// file full. It now waits for a fill to free an entry.
#[test]
fn mesi_deferred_store_on_a_recalled_line_waits_for_an_mshr() {
    let mut cfg = GpuConfig::small();
    cfg.num_cores = 16;
    let wl = Benchmark::Lud.generate(&cfg, &Scale::standard(), 7);
    for kind in [ProtocolKind::Mesi, ProtocolKind::MesiWb] {
        let m = simulate(kind, &cfg, &wl, &SimOptions::checked());
        assert_eq!(m.sc_violations, 0, "{kind:?}");
    }
}

/// SC-IDEAL's magic invalidation once missed fetches in flight: the
/// fill re-installed pre-write data and a later load hit the stale
/// copy, showing the forbidden mp outcome under a nominally SC
/// idealization. The fill is now poisoned by a racing invalidation.
#[test]
fn ideal_inv_poisons_in_flight_fetch() {
    use rcc_sim::litmus::count_forbidden;
    let cfg = GpuConfig::small();
    let n = count_forbidden(ProtocolKind::IdealSc, &cfg, 40, |seed| {
        rcc_workloads::litmus::message_passing(cfg.num_cores, seed)
    });
    assert_eq!(n, 0, "SC-IDEAL showed the forbidden mp outcome");
}

/// Loads that merge into an in-flight fetch after the granted lease
/// window must re-request rather than complete with stale-window data;
/// high-contention runs under TCS/RCC exercise the path.
#[test]
fn late_merged_loads_refetch() {
    let cfg = GpuConfig::small();
    for kind in [ProtocolKind::TcStrong, ProtocolKind::RccSc] {
        for seed in 0..6 {
            let wl = Benchmark::Bfs.generate(&cfg, &Scale::quick(), seed);
            let m = simulate(kind, &cfg, &wl, &SimOptions::checked());
            assert_eq!(m.sc_violations, 0, "{kind} seed {seed}");
        }
    }
}
