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
//! — fails here. The pins live in the generated
//! `tests/snapshots/state_digests.rs`; a change that moves them on
//! purpose regenerates it with
//!
//! ```bash
//! UPDATE_GOLDEN=1 cargo test --test due_policy
//! ```
//! A seconds-scale guard; the full lockstep matrix lives in the rcc-sim
//! `determinism` suite.

use rcc_repro::coherence::{with_protocol, ProtocolKind};
use rcc_repro::common::GpuConfig;
use rcc_repro::sim::System;
use rcc_repro::workloads::{Benchmark, Scale, Workload};
use std::sync::Once;

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

/// Runs `wl` under both due policies on each of `kinds`, comparing
/// `state_digest` every `step` cycles and the final metrics.
fn assert_due_policies_agree(cfg: &GpuConfig, wl: &Workload, step: u64, kinds: &[ProtocolKind]) {
    for &kind in kinds {
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
    assert_due_policies_agree(&cfg, &wl, 1_500, &ProtocolKind::ALL);
}

#[test]
fn due_policies_agree_through_barriers_and_local_waits() {
    let (cfg, wl) = stn();
    assert_due_policies_agree(&cfg, &wl, 500, &ProtocolKind::ALL);
}

/// TC-Strong on a one-way L2, where a fill often finds its only way
/// pinned by a parked store and stalls: the event-driven policy sleeps
/// until a release can free the way, the every-cycle one retries the
/// fill each cycle, and both must reach the same state.
#[test]
fn due_policies_agree_through_stalled_tc_fills() {
    let mut cfg = GpuConfig::small();
    cfg.l2.partition.ways = 1;
    for bench in [Benchmark::Bfs, Benchmark::Vpr] {
        let wl = bench.generate(&cfg, &Scale::quick(), 1);
        assert_due_policies_agree(&cfg, &wl, 500, &[ProtocolKind::TcStrong]);
    }
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

/// The cycle the [`dlb`] and [`stn`] pins are taken at: every run is
/// still going.
const PIN_CYCLE: u64 = 5_000;

/// The boundary of [`vpr_with_rollover`]'s pin: RCC-WO's rollover
/// coordinator is draining the machine there.
const DRAIN_BOUNDARY: u64 = 17_500;

// `PINNED_DIGESTS`, `PINNED_STN_DIGESTS` and `PINNED_DRAIN`.
include!("snapshots/state_digests.rs");

/// Renders `snapshots/state_digests.rs` from fresh runs of every pin.
fn render_snapshot() -> String {
    use std::fmt::Write as _;
    let mut out = String::from(
        "// @generated by `UPDATE_GOLDEN=1 cargo test --test due_policy`.\n\
         // Do not edit by hand; regenerate and commit this file together with\n\
         // the change that moved the digests.\n",
    );
    for (name, what, (cfg, wl)) in [
        ("PINNED_DIGESTS", "dlb", dlb()),
        ("PINNED_STN_DIGESTS", "stn", stn()),
    ] {
        let _ = write!(
            out,
            "\n/// `state_digest()` of [`{what}`] at `PIN_CYCLE`, one per protocol in\n\
             /// `ProtocolKind::ALL` order.\n\
             const {name}: [u64; 7] = [\n"
        );
        for (kind, digest) in ProtocolKind::ALL
            .iter()
            .zip(digests_at(&cfg, &wl, PIN_CYCLE))
        {
            let _ = writeln!(out, "    0x{digest:016x}, // {}", kind.label());
        }
        out.push_str("];\n");
    }
    let (cfg, wl) = vpr_with_rollover();
    let drain = with_protocol!(ProtocolKind::RccWo, &cfg, |p| {
        let mut sys = System::new(&p, &cfg, &wl, false);
        sys.run_until(DRAIN_BOUNDARY).unwrap();
        sys.state_digest()
    });
    let _ = write!(
        out,
        "\n/// `state_digest()` of RCC-WO on [`vpr_with_rollover`] at\n\
         /// `DRAIN_BOUNDARY`.\n\
         const PINNED_DRAIN: u64 = 0x{drain:016x};\n"
    );
    out
}

/// Whether this run regenerates the pins (`UPDATE_GOLDEN` is set). The
/// first pin test to ask writes the snapshot; every pin test then skips
/// its comparison against the committed one.
fn regenerating() -> bool {
    static WRITE: Once = Once::new();
    if std::env::var("UPDATE_GOLDEN").is_err() {
        return false;
    }
    WRITE.call_once(|| {
        let path = concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/tests/snapshots/state_digests.rs"
        );
        std::fs::write(path, render_snapshot()).expect("write snapshot file");
        eprintln!("regenerated {path}");
    });
    true
}

/// The message of a moved pin.
const REPIN: &str =
    "if intentional, regenerate with `UPDATE_GOLDEN=1 cargo test --test due_policy`";

#[test]
fn state_digest_is_pinned_across_builds() {
    let (cfg, wl) = dlb();
    let got = digests_at(&cfg, &wl, PIN_CYCLE);
    if !regenerating() {
        assert!(got == PINNED_DIGESTS, "got {got:#018x?}; {REPIN}");
    }
}

#[test]
fn stn_state_digest_is_pinned_across_builds() {
    let (cfg, wl) = stn();
    let got = digests_at(&cfg, &wl, PIN_CYCLE);
    if !regenerating() {
        assert!(got == PINNED_STN_DIGESTS, "got {got:#018x?}; {REPIN}");
    }
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
                if kind == ProtocolKind::RccWo && boundary == DRAIN_BOUNDARY {
                    assert_eq!(phase, "Draining", "the pin must be inside the drain");
                    if !regenerating() {
                        assert!(
                            digest == PINNED_DRAIN,
                            "{kind}: drain digest moved to {digest:#018x}; {REPIN}"
                        );
                    }
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
