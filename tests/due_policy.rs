//! The due policy is invisible in the machine state: on every protocol,
//! the event-driven policy (fast-forward on) and the every-cycle policy
//! (every component runs every cycle, the reference semantics) reach the
//! same `state_digest` at every `run_until` boundary and finish with the
//! same simulated results, including through an RCC timestamp rollover.
//! Two workloads: `dlb` (locks, fences, compute) and `stn`, whose
//! barriers and local waits move workgroup epochs. Also pins the digest
//! at one boundary per protocol on each and at one inside a rollover
//! drain, so a change that alters the digested state — and would stop
//! journals and checkpoints written by an earlier build from recovering
//! — fails here.
//! A seconds-scale guard; the full lockstep matrix lives in the rcc-sim
//! `determinism` suite.

use rcc_repro::coherence::{with_protocol, ProtocolKind};
use rcc_repro::common::GpuConfig;
use rcc_repro::sim::System;
use rcc_repro::workloads::{Benchmark, Scale, Workload};

const SEED: u64 = 7;

/// `bench` at quick scale on the small machine.
fn quick(bench: Benchmark) -> (GpuConfig, Workload) {
    let cfg = GpuConfig::small();
    let wl = bench.generate(&cfg, &Scale::quick(), SEED);
    (cfg, wl)
}

fn dlb() -> (GpuConfig, Workload) {
    quick(Benchmark::Dlb)
}

/// The stencil: every phase ends in an inter-workgroup `Barrier` by each
/// workgroup's lead warp and a `LocalWait` by the others, the two ops
/// that move a workgroup's barrier epoch.
fn stn() -> (GpuConfig, Workload) {
    quick(Benchmark::Stn)
}

/// Runs `wl` under both due policies on every protocol, comparing
/// `state_digest` every `step` cycles and the final metrics.
fn assert_due_policies_agree(cfg: &GpuConfig, wl: &Workload, step: u64) {
    for kind in ProtocolKind::ALL {
        with_protocol!(kind, cfg, |p| {
            let mut every = System::new(&p, cfg, wl, false);
            every.set_fast_forward(false);
            let mut event = System::new(&p, cfg, wl, false);
            event.set_fast_forward(true);
            let mut boundary = 0;
            while !(every.done() && event.done()) {
                boundary += step;
                assert!(boundary < 1_000_000, "{kind}: never retired");
                every.run_until(boundary).unwrap();
                event.run_until(boundary).unwrap();
                assert_eq!(
                    every.state_digest(),
                    event.state_digest(),
                    "{kind}: due policies diverged at boundary {boundary}"
                );
            }
            assert!(boundary > step, "{kind}: no mid-run boundary compared");
            assert!(
                every.metrics().same_simulated_results(&event.metrics()),
                "{kind}: final metrics diverged though every digest matched"
            );
        })
    }
}

#[test]
fn event_driven_matches_every_cycle_policy_on_every_protocol() {
    let (cfg, wl) = dlb();
    assert_due_policies_agree(&cfg, &wl, 1_500);
}

#[test]
fn due_policies_agree_through_barriers_and_local_waits() {
    let (cfg, wl) = stn();
    assert_due_policies_agree(&cfg, &wl, 500);
}

/// `state_digest()` at `cycle` (the run must still be going), one per
/// protocol in `ProtocolKind::ALL` order.
fn digests_at(cfg: &GpuConfig, wl: &Workload, cycle: u64) -> [u64; 7] {
    ProtocolKind::ALL.map(|kind| {
        with_protocol!(kind, cfg, |p| {
            let mut sys = System::new(&p, cfg, wl, false);
            sys.run_until(cycle).unwrap();
            assert!(!sys.done(), "{kind}: the pin must be mid-run");
            sys.state_digest()
        })
    })
}

/// `state_digest()` of [`dlb`] at cycle 5,000 (every run is still
/// going), one per protocol in `ProtocolKind::ALL` order.
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
    assert_eq!(digests_at(&cfg, &wl, 5_000), PINNED_DIGESTS);
}

/// `state_digest()` of [`stn`] at cycle 5,000, as [`PINNED_DIGESTS`].
const PINNED_STN_DIGESTS: [u64; 7] = [
    0x0c00744d0325f2e1, // MESI
    0x723f9d06452f389b, // MESI-WB
    0x1d3af36ef906aba2, // TCS
    0x100803cce02cc031, // TCW
    0x08bcf5ed188e22ec, // RCC-SC
    0x4ea5d7b743705cc9, // RCC-WO
    0xa6cf50bb55da0e86, // SC-IDEAL
];

#[test]
fn stn_state_digest_is_pinned_across_builds() {
    let (cfg, wl) = stn();
    assert_eq!(digests_at(&cfg, &wl, 5_000), PINNED_STN_DIGESTS);
}

/// RCC with a tiny rollover threshold and a fixed lease, so timestamps
/// roll over mid-run (Section III-D): the path where the engine drains
/// the machine, resets the banks and flushes every L1.
fn vpr_with_rollover() -> (GpuConfig, Workload) {
    let mut cfg = GpuConfig::small();
    cfg.rcc.rollover_threshold = 300;
    cfg.rcc.fixed_lease = Some(64);
    let wl = Benchmark::Vpr.generate(&cfg, &Scale::quick(), 23);
    (cfg, wl)
}

/// `(boundary, state_digest())` of RCC-WO on [`vpr_with_rollover`] at a
/// boundary where the rollover coordinator is draining the machine.
const PINNED_DRAIN: (u64, u64) = (17_500, 0x27cd6384f833875b);

#[test]
fn due_policies_agree_through_a_rollover() {
    let (cfg, wl) = vpr_with_rollover();
    for kind in [ProtocolKind::RccSc, ProtocolKind::RccWo] {
        with_protocol!(kind, &cfg, |p| {
            let mut every = System::new(&p, &cfg, &wl, false);
            every.set_fast_forward(false);
            let mut event = System::new(&p, &cfg, &wl, false);
            event.set_fast_forward(true);
            let mut boundary = 0;
            let mut mid_rollover = 0;
            while !(every.done() && event.done()) {
                boundary += 250;
                assert!(boundary < 1_000_000, "{kind}: never retired");
                every.run_until(boundary).unwrap();
                event.run_until(boundary).unwrap();
                let digest = event.state_digest();
                assert_eq!(
                    every.state_digest(),
                    digest,
                    "{kind}: due policies diverged at boundary {boundary}"
                );
                let phase = event.hang_dump().rollover;
                if phase != "Idle" {
                    mid_rollover += 1;
                }
                if kind == ProtocolKind::RccWo && boundary == PINNED_DRAIN.0 {
                    assert_eq!(phase, "Draining", "the pin must be inside the drain");
                    assert_eq!(digest, PINNED_DRAIN.1, "{kind}: drain digest moved");
                }
            }
            let (every, event) = (every.metrics(), event.metrics());
            assert!(event.rollovers >= 1, "{kind}: no rollover happened");
            assert!(
                mid_rollover > 0,
                "{kind}: no boundary fell inside a rollover"
            );
            assert!(
                every.same_simulated_results(&event),
                "{kind}: final metrics diverged though every digest matched"
            );
        })
    }
}
