//! The due policy is invisible in the machine state: on every protocol,
//! the event-driven policy (fast-forward on) and the every-cycle policy
//! (every component runs every cycle, the reference semantics) reach the
//! same `state_digest` at every `run_until` boundary and finish with the
//! same simulated results. Also pins the digest at one boundary, so a
//! change that alters the digested state — and would stop journals and
//! checkpoints written by an earlier build from recovering — fails here.
//! A seconds-scale guard; the full lockstep matrix lives in the rcc-sim
//! `determinism` suite.

use rcc_repro::coherence::{with_protocol, ProtocolKind};
use rcc_repro::common::GpuConfig;
use rcc_repro::sim::System;
use rcc_repro::workloads::{Benchmark, Scale, Workload};

const SEED: u64 = 7;

fn dlb() -> (GpuConfig, Workload) {
    let cfg = GpuConfig::small();
    let wl = Benchmark::Dlb.generate(&cfg, &Scale::quick(), SEED);
    (cfg, wl)
}

#[test]
fn event_driven_matches_every_cycle_policy_on_every_protocol() {
    let (cfg, wl) = dlb();
    for kind in ProtocolKind::ALL {
        with_protocol!(kind, &cfg, |p| {
            let mut every = System::new(&p, &cfg, &wl, false);
            every.set_fast_forward(false);
            let mut event = System::new(&p, &cfg, &wl, false);
            event.set_fast_forward(true);
            let mut boundary = 0;
            while !(every.done() && event.done()) {
                boundary += 1_500;
                assert!(boundary < 1_000_000, "{kind}: never retired");
                every.run_until(boundary).unwrap();
                event.run_until(boundary).unwrap();
                assert_eq!(
                    every.state_digest(),
                    event.state_digest(),
                    "{kind}: due policies diverged at boundary {boundary}"
                );
            }
            assert!(boundary > 1_500, "{kind}: no mid-run boundary compared");
            assert!(
                every.metrics().same_simulated_results(&event.metrics()),
                "{kind}: final metrics diverged though every digest matched"
            );
        })
    }
}

/// `state_digest()` at cycle 5,000 (every run is still going), one per
/// protocol in `ProtocolKind::ALL` order.
const PINNED_DIGESTS: [u64; 7] = [
    0xfd720dd0da9e11ff, // MESI
    0xd5884346f09f7176, // MESI-WB
    0x3322c11c0db71053, // TCS
    0xc1bc0918e4f201b2, // TCW
    0xcb92cec7539813fe, // RCC-SC
    0xe80183c980958393, // RCC-WO
    0x6e8cac58f622f140, // SC-IDEAL
];

#[test]
fn state_digest_is_pinned_across_builds() {
    let (cfg, wl) = dlb();
    let digests = ProtocolKind::ALL.map(|kind| {
        with_protocol!(kind, &cfg, |p| {
            let mut sys = System::new(&p, &cfg, &wl, false);
            sys.run_until(5_000).unwrap();
            assert!(!sys.done(), "{kind}: the pin must be mid-run");
            sys.state_digest()
        })
    });
    assert_eq!(digests, PINNED_DIGESTS);
}
