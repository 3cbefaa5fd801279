//! Due-policy determinism guard (DESIGN.md, "Simulation performance").
//!
//! The engine invariant: skipping provably idle cycles (the event-driven
//! due policy) instead of running every component every cycle may change
//! wall-clock only. Every simulated metric — cycle counts, cache and
//! core statistics, traffic, energy, DRAM activity, SC verdicts — must
//! be bit-identical with the fast-forwarder on and off, for every
//! protocol, and rerunning the same seed must reproduce the same run.

use rcc_common::GpuConfig;
use rcc_core::ProtocolKind;
use rcc_sim::runner::{simulate, SimOptions};
use rcc_workloads::{Benchmark, Scale};

const KINDS: [ProtocolKind; 7] = [
    ProtocolKind::Mesi,
    ProtocolKind::MesiWb,
    ProtocolKind::TcStrong,
    ProtocolKind::TcWeak,
    ProtocolKind::RccSc,
    ProtocolKind::RccWo,
    ProtocolKind::IdealSc,
];

fn opts(fast_forward: bool) -> SimOptions {
    let mut o = SimOptions::fast();
    o.fast_forward = fast_forward;
    o
}

#[test]
fn fast_forward_is_invisible_in_metrics() {
    // The full benchmark set: a boundary case (a warp timer expiring
    // exactly at the window floor into an ordering stall) only shows up
    // on some (protocol, workload, seed) combinations.
    let cfg = GpuConfig::small();
    for kind in KINDS {
        for bench in Benchmark::ALL {
            let wl = bench.generate(&cfg, &Scale::quick(), 7);
            let every = simulate(kind, &cfg, &wl, &opts(false));
            let skipped = simulate(kind, &cfg, &wl, &opts(true));
            assert_eq!(
                every.skipped_cycles,
                0,
                "{kind}/{}: FF off must not skip",
                bench.name()
            );
            assert!(
                every.same_simulated_results(&skipped),
                "{kind}/{}: fast-forward changed simulated results \
                 (every-cycle {} cycles, skipped {} cycles)",
                bench.name(),
                every.cycles,
                skipped.cycles,
            );
        }
    }
    // 8 cores at standard scale: two warps of one TC-Weak core each
    // self-invalidate an expired line and hit a full MSHR in consecutive
    // cycles. Equal stat deltas from two different accesses must not
    // engage the reject-spin, or the slept-through retries are charged
    // a self-invalidation each that the real retries never pay.
    let cfg = GpuConfig {
        num_cores: 8,
        ..GpuConfig::small()
    };
    let wl = Benchmark::Cl.generate(&cfg, &Scale::standard(), 204);
    let every = simulate(ProtocolKind::TcWeak, &cfg, &wl, &opts(false));
    let skipped = simulate(ProtocolKind::TcWeak, &cfg, &wl, &opts(true));
    assert_eq!(every.l1, skipped.l1, "TCW/cl-8core-standard: L1 counters");
    assert!(
        every.same_simulated_results(&skipped),
        "TCW/cl-8core-standard"
    );
}

#[test]
fn fast_forward_actually_skips() {
    // Sanity that the invariant test above is not vacuous: on at least
    // one workload the engine must find idle cycles to jump over.
    let cfg = GpuConfig::small();
    let mut total_skipped = 0;
    for kind in KINDS {
        let wl = Benchmark::Bh.generate(&cfg, &Scale::quick(), 5);
        let m = simulate(kind, &cfg, &wl, &opts(true));
        total_skipped += m.skipped_cycles;
        assert!(
            m.skipped_cycles < m.cycles,
            "{kind}: skip ratio must be < 1"
        );
    }
    assert!(total_skipped > 0, "no protocol ever fast-forwarded");
}

#[test]
fn same_seed_same_run() {
    let cfg = GpuConfig::small();
    for kind in [ProtocolKind::Mesi, ProtocolKind::RccSc] {
        let wl1 = Benchmark::Dlb.generate(&cfg, &Scale::quick(), 5);
        let wl2 = Benchmark::Dlb.generate(&cfg, &Scale::quick(), 5);
        let a = simulate(kind, &cfg, &wl1, &opts(true));
        let b = simulate(kind, &cfg, &wl2, &opts(true));
        assert!(
            a.same_simulated_results(&b),
            "{kind}: same seed must reproduce the same run"
        );
        assert_eq!(a.skipped_cycles, b.skipped_cycles);
        assert_eq!(a.ff_jumps, b.ff_jumps);
    }
}

#[test]
fn chaos_is_deterministic_under_fast_forward() {
    // Chaos draws are event-driven (one draw per message/command/access,
    // never per cycle), so skipping idle cycles must not change which
    // perturbations fire: same chaos seed ⇒ bit-identical metrics —
    // including the fired-injection count — with the fast-forwarder on
    // and off, for every sound profile.
    let cfg = GpuConfig::small();
    for profile in rcc_chaos::ChaosProfile::sound() {
        for kind in [
            ProtocolKind::RccSc,
            ProtocolKind::Mesi,
            ProtocolKind::TcWeak,
        ] {
            let wl = Benchmark::Dlb.generate(&cfg, &Scale::quick(), 7);
            let chaos = rcc_chaos::ChaosSpec::new(11, profile.clone());
            let mut every_opts = opts(false);
            every_opts.chaos = Some(chaos.clone());
            let mut ff_opts = opts(true);
            ff_opts.chaos = Some(chaos);
            let every = simulate(kind, &cfg, &wl, &every_opts);
            let skipped = simulate(kind, &cfg, &wl, &ff_opts);
            assert!(
                every.chaos_events > 0,
                "{kind}/{}: chaos never fired — test is vacuous",
                profile.name
            );
            assert!(
                every.same_simulated_results(&skipped),
                "{kind}/{}: fast-forward changed a chaos run \
                 (every-cycle {} cycles / {} events, skipped {} cycles / {} events)",
                profile.name,
                every.cycles,
                every.chaos_events,
                skipped.cycles,
                skipped.chaos_events,
            );
        }
    }
}

#[test]
fn observation_is_invisible_in_metrics() {
    // The observability layer is passive by contract: sampling, trace
    // recording and self-profiling together must not move a single
    // simulated metric. Same discipline as chaos — one branch on the hot
    // path when off, and nothing ever feeds back when on. (The sampler
    // does cap fast-forward jumps at sample boundaries, so this also
    // proves boundary-stepping changes engine telemetry only.)
    let cfg = GpuConfig::small();
    for kind in KINDS {
        let wl = Benchmark::Dlb.generate(&cfg, &Scale::quick(), 7);
        let plain = simulate(kind, &cfg, &wl, &opts(true));
        let observed = simulate(kind, &cfg, &wl, &SimOptions::observed(64));
        assert!(plain.obs.is_none(), "{kind}: unarmed run carries a report");
        let report = observed.obs.as_ref().expect("observer was armed");
        assert!(report.series.rows() > 0, "{kind}: sampler never fired");
        assert!(
            !report.trace.is_empty(),
            "{kind}: tracer recorded nothing on a full benchmark"
        );
        assert!(
            plain.same_simulated_results(&observed),
            "{kind}: observation changed simulated results \
             (plain {} cycles, observed {} cycles)",
            plain.cycles,
            observed.cycles,
        );
        assert_eq!(
            plain.digest(3),
            observed.digest(3),
            "{kind}: digest disagrees though results compare equal"
        );
    }
}

#[test]
fn observation_is_invisible_on_every_litmus_test() {
    // Same invariant over the full litmus suite: the short, racy runs
    // are where an off-by-one sample boundary or a trace-driven borrow
    // would bite timing first.
    let cfg = GpuConfig::small();
    for kind in [ProtocolKind::RccSc, ProtocolKind::TcWeak] {
        for lit in rcc_workloads::litmus::all(cfg.num_cores, 11) {
            let wl = rcc_sim::litmus::litmus_workload(&lit);
            let plain = simulate(kind, &cfg, &wl, &opts(true));
            let observed = simulate(kind, &cfg, &wl, &SimOptions::observed(16));
            assert!(
                plain.same_simulated_results(&observed),
                "{kind} on {}: observation changed a litmus run",
                lit.name
            );
        }
    }
}

// The event-driven due policy must not merely reproduce the *metrics*
// of the every-cycle policy (fast-forward off: every component runs
// every cycle, the reference semantics) — the machine state itself must
// match at every checkpoint boundary, or a checkpoint taken under one
// policy would not resume bit-identically under the other. Lockstep the
// two policies with `run_until` and compare full state digests at each
// boundary, then the final metrics.
fn lockstep_digests(
    kind: ProtocolKind,
    cfg: &GpuConfig,
    wl: &rcc_workloads::Workload,
    stride: u64,
    label: &str,
) {
    rcc_core::with_protocol!(kind, cfg, |p| {
        let mut every = rcc_sim::System::new(&p, cfg, wl, false);
        every.set_fast_forward(false);
        let mut sched = rcc_sim::System::new(&p, cfg, wl, false);
        sched.set_fast_forward(true);
        let mut boundary = 0;
        let mut boundaries = 0u32;
        while !(every.done() && sched.done()) {
            boundary += stride;
            assert!(boundary < 50_000_000, "{label}: lockstep run never retired");
            every.run_until(boundary).unwrap();
            sched.run_until(boundary).unwrap();
            boundaries += 1;
            assert_eq!(
                every.state_digest(),
                sched.state_digest(),
                "{label}: due policies diverged at checkpoint boundary {boundary}"
            );
        }
        assert!(boundaries > 0, "{label}: no boundary ever compared");
        assert!(
            every.metrics().same_simulated_results(&sched.metrics()),
            "{label}: final metrics diverged though every digest matched"
        );
    })
}

#[test]
fn event_driven_matches_every_cycle_policy_state_on_litmus() {
    // Short racy runs with a fine stride: where a wake posted one cycle
    // late would move an ordering race first.
    let cfg = GpuConfig::small();
    for kind in KINDS {
        for lit in rcc_workloads::litmus::all(cfg.num_cores, 11) {
            let wl = rcc_sim::litmus::litmus_workload(&lit);
            lockstep_digests(kind, &cfg, &wl, 64, &format!("{kind}/{}", lit.name));
        }
    }
}

#[test]
fn event_driven_matches_every_cycle_policy_state_on_benchmarks() {
    // Long runs with realistic checkpoint spacing: dlb (load balancing,
    // bursty), bh (barrier phases, idle-heavy), hsp (streaming,
    // contention-heavy).
    let cfg = GpuConfig::small();
    for kind in KINDS {
        for bench in [Benchmark::Dlb, Benchmark::Bh, Benchmark::Hsp] {
            let wl = bench.generate(&cfg, &Scale::quick(), 7);
            lockstep_digests(kind, &cfg, &wl, 2500, &format!("{kind}/{}", bench.name()));
        }
    }
    // 8 cores at standard scale: the contention that drives MESI-WB's L1
    // into reject-spins on a poisoned or full MSHR, which the small/quick
    // inputs above never reach. A rejected access may change nothing but
    // L1 counters, or the state would depend on where the spin slept.
    let cfg = GpuConfig {
        num_cores: 8,
        ..GpuConfig::small()
    };
    let wl = Benchmark::Bh.generate(&cfg, &Scale::standard(), 7);
    for kind in KINDS {
        lockstep_digests(kind, &cfg, &wl, 2000, &format!("{kind}/bh-8core-standard"));
    }
}

#[test]
fn fast_forward_passes_sc_checking() {
    // The litmus matrix runs elsewhere; here, pin that the SC scoreboard
    // and sanitizer both hold under fast-forward on a real workload.
    let cfg = GpuConfig::small();
    let wl = Benchmark::Dlb.generate(&cfg, &Scale::quick(), 5);
    let mut o = SimOptions::checked();
    o.sanitize = true;
    let m = simulate(ProtocolKind::RccSc, &cfg, &wl, &o);
    assert_eq!(m.sc_violations, 0);
    assert_eq!(m.sanitizer_sc, Some(true));
}
