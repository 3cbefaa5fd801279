//! L2 pressure: every protocol on a machine whose L2 banks have two ways
//! and a single MSHR, so fills recall resident lines and deferred
//! requests find the MSHR file full. Each run must finish, and the
//! SC-capable protocols must pass the consistency scoreboard.

use rcc_repro::coherence::ProtocolKind;
use rcc_repro::common::GpuConfig;
use rcc_repro::sim::runner::{try_simulate, SimOptions};
use rcc_repro::workloads::{Benchmark, Scale};

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
