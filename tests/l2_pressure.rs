//! Cache pressure: every protocol on machines whose caches are too small
//! for the workload.
//!
//! * An L2 whose banks have two ways and a single MSHR, so fills recall
//!   resident lines and deferred requests find the MSHR file full. Each
//!   run must finish, and the SC-capable protocols must pass the
//!   consistency scoreboard.
//! * A starved L1: two ways, one MSHR and one merge slot, so most misses
//!   and stores are refused and retried, and every merge fills the
//!   entry. The digests below pin the L1 reject and merge paths of all
//!   seven protocols, and a sound-chaos run per protocol pins the order
//!   of the MSHR squeeze draws.

use rcc_chaos::{ChaosProfile, ChaosSpec};
use rcc_repro::coherence::ProtocolKind;
use rcc_repro::common::GpuConfig;
use rcc_repro::sim::metrics::RunMetrics;
use rcc_repro::sim::runner::{try_simulate, SimOptions};
use rcc_repro::workloads::{Benchmark, Scale, Workload};

#[test]
fn every_protocol_finishes_on_a_two_way_one_mshr_l2() {
    let mut cfg = GpuConfig::small();
    cfg.l2.partition.ways = 2;
    cfg.l2.partition.mshrs = 1;
    for bench in [Benchmark::Lud, Benchmark::Vpr, Benchmark::Bh] {
        let wl = bench.generate(&cfg, &Scale::quick(), 1);
        for kind in ProtocolKind::ALL {
            if let Err(e) = try_simulate(kind, &cfg, &wl, &SimOptions::checked()) {
                panic!("{kind:?} on {bench:?}: {e}");
            }
        }
    }
}

/// `GpuConfig::small()` with a 2-way L1 that has one MSHR of one slot.
fn starved_l1() -> GpuConfig {
    let mut cfg = GpuConfig::small();
    cfg.l1.ways = 2;
    cfg.l1.mshrs = 1;
    cfg.l1.mshr_merge = 1;
    cfg
}

/// Runs `kind` checked, and returns its results digest and L1 rejects.
fn run(kind: ProtocolKind, cfg: &GpuConfig, wl: &Workload, opts: &SimOptions) -> (u64, u64) {
    let m: RunMetrics = try_simulate(kind, cfg, wl, opts)
        .unwrap_or_else(|e| panic!("{kind:?} on {}: {e}", wl.name));
    (m.digest(7), m.l1.rejects)
}

const STARVED_BENCHES: [Benchmark; 4] = [
    Benchmark::Lud,
    Benchmark::Vpr,
    Benchmark::Bh,
    Benchmark::Dlb,
];

/// `RunMetrics::digest(7)` per benchmark (rows, in `STARVED_BENCHES`
/// order) and protocol (columns, in `ProtocolKind::ALL` order).
const STARVED_DIGESTS: [[u64; 7]; 4] = [
    // lud: MESI, MESI-WB, TCS, TCW, RCC-SC, RCC-WO, SC-IDEAL
    [
        0x0d977e5dfdf32a8c,
        0x14fd92fab2641606,
        0xb78b721498a9439b,
        0xff9584bad2520f44,
        0xf34d304554ed66d2,
        0xc09bb0cc08d7d6b8,
        0x488c2f51febd5c35,
    ],
    // vpr: MESI, MESI-WB, TCS, TCW, RCC-SC, RCC-WO, SC-IDEAL
    [
        0xe9b1b36cbf550158,
        0x90f280930c8058b4,
        0xe2f1586d0cac4085,
        0x16999693c76ef207,
        0x10a1efe2876cb9f6,
        0xda21a725f0790108,
        0x421c49eb48d1420b,
    ],
    // bh: MESI, MESI-WB, TCS, TCW, RCC-SC, RCC-WO, SC-IDEAL
    [
        0x9f53210f2834cfaf,
        0x12efd6ccf8884865,
        0xf235b996009ced7f,
        0x2785cd1c56db748f,
        0xb3885c788ddd4176,
        0x815374ee3aac405a,
        0x281f764d170bd045,
    ],
    // dlb: MESI, MESI-WB, TCS, TCW, RCC-SC, RCC-WO, SC-IDEAL
    [
        0x4d40d9f26a38d82c,
        0x0b9d83fb234deb0e,
        0x2c3f2de35622ddaa,
        0xa03daf4d32bfb912,
        0xd2c56bccde32d6bb,
        0x05dd55b3a8a38cbe,
        0x8ef95093108015b9,
    ],
];

/// `RunMetrics::digest(7)` of one light-chaos `lud` run per protocol.
const STARVED_CHAOS_DIGESTS: [u64; 7] = [
    0x033425e09acf8cd2, // MESI
    0x7576ae4e0a0eabc0, // MESI-WB
    0x6ba8a35f5127d428, // TCS
    0x03847ea840dd4971, // TCW
    0x9fa8f9ac79be936f, // RCC-SC
    0xdbe0d4c3a3f6d389, // RCC-WO
    0xd3dabe6eb81b0c81, // SC-IDEAL
];

#[test]
fn every_protocol_is_pinned_on_a_starved_l1() {
    let cfg = starved_l1();
    let mut got = Vec::new();
    for bench in STARVED_BENCHES {
        let wl = bench.generate(&cfg, &Scale::quick(), 1);
        let row: Vec<u64> = ProtocolKind::ALL
            .iter()
            .map(|&kind| {
                let (digest, rejects) = run(kind, &cfg, &wl, &SimOptions::checked());
                assert!(rejects > 0, "{kind:?} on {bench:?}: no L1 reject");
                digest
            })
            .collect();
        got.push(row);
    }
    let want: Vec<Vec<u64>> = STARVED_DIGESTS.iter().map(|r| r.to_vec()).collect();
    assert_eq!(
        got, want,
        "starved-L1 digests moved (rows {STARVED_BENCHES:?}, columns ProtocolKind::ALL)"
    );
}

#[test]
fn chaos_squeeze_draws_are_pinned_on_a_starved_l1() {
    let cfg = starved_l1();
    let wl = Benchmark::Lud.generate(&cfg, &Scale::quick(), 1);
    let opts = SimOptions {
        chaos: Some(ChaosSpec::new(5, ChaosProfile::light())),
        ..SimOptions::checked()
    };
    let got: Vec<u64> = ProtocolKind::ALL
        .iter()
        .map(|&kind| run(kind, &cfg, &wl, &opts).0)
        .collect();
    assert_eq!(
        got,
        STARVED_CHAOS_DIGESTS.to_vec(),
        "starved-L1 chaos digests moved (ProtocolKind::ALL order)"
    );
}
