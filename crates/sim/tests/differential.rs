//! Differential trace replay (DESIGN.md, "Trace capture & replay").
//!
//! The committed regression traces under `tests/traces/` are authored
//! write-race-free: loads may race (that is what the protocols differ
//! on), but every word's writes are ordered by program order, a lock, a
//! barrier, or sole ownership. Replaying such a trace must therefore
//! leave the *same logical final memory* under every protocol — the
//! write-serialization guarantee even the weak protocols keep — and
//! every SC-capable protocol must produce an execution the runtime
//! sanitizer can explain with an SC total order.
//!
//! Each trace's final image is also pinned as golden data: a protocol
//! change that moves a committed value (not just reorders internals)
//! fails here with the word and value named.

use rcc_common::addr::{Addr, WordAddr};
use rcc_common::GpuConfig;
use rcc_core::ProtocolKind;
use rcc_sim::{RunMetrics, System};
use rcc_trace::Trace;
use rcc_workloads::Workload;

const KINDS: [ProtocolKind; 7] = [
    ProtocolKind::Mesi,
    ProtocolKind::MesiWb,
    ProtocolKind::TcStrong,
    ProtocolKind::TcWeak,
    ProtocolKind::RccSc,
    ProtocolKind::RccWo,
    ProtocolKind::IdealSc,
];

/// The committed traces and their golden final images (byte address →
/// final word value; every untouched word must stay 0).
fn golden() -> Vec<(&'static str, Vec<(u64, u64)>)> {
    vec![
        ("mp", vec![(0x0, 42), (0x80, 1)]),
        ("mutex", vec![(0x0, 4), (0x200, 0)]),
        (
            "interval",
            vec![(0x0, 1), (0x80, 2), (0x100, 3), (0x180, 1)],
        ),
        (
            "barrier",
            vec![(0x0, 7), (0x80, 8), (0x100, 9), (0x180, 10), (0x400, 4)],
        ),
    ]
}

fn trace_path(name: &str) -> String {
    format!(
        "{}/../../tests/traces/{name}.trace",
        env!("CARGO_MANIFEST_DIR")
    )
}

/// Runs a workload on a live `System` so the test can read the final
/// memory image (the runner's metrics only carry its digest).
fn run_system<P: rcc_core::protocol::Protocol>(
    proto: &P,
    cfg: &GpuConfig,
    wl: &Workload,
    chaos: Option<&rcc_chaos::ChaosSpec>,
) -> (RunMetrics, Vec<(WordAddr, u64)>) {
    let mut system = System::new(proto, cfg, wl, false);
    system.enable_sanitizer();
    if let Some(spec) = chaos {
        system.set_chaos(spec);
    }
    let metrics = system.run(50_000_000).unwrap();
    (metrics, system.final_memory())
}

fn run_kind(
    kind: ProtocolKind,
    cfg: &GpuConfig,
    wl: &Workload,
    chaos: Option<&rcc_chaos::ChaosSpec>,
) -> (RunMetrics, Vec<(WordAddr, u64)>) {
    rcc_core::with_protocol!(kind, cfg, |p| run_system(&p, cfg, wl, chaos))
}

fn load(name: &str, cfg: &GpuConfig) -> Workload {
    Trace::load_any(&trace_path(name))
        .and_then(|t| t.to_workload(cfg.num_cores))
        .unwrap_or_else(|e| panic!("{name}: {e}"))
}

#[test]
fn committed_traces_agree_across_all_protocols() {
    let cfg = GpuConfig::small();
    for (name, expected) in golden() {
        let wl = load(name, &cfg);
        let mut runs = Vec::new();
        for kind in KINDS {
            let (metrics, memory) = run_kind(kind, &cfg, &wl, None);
            if kind.supports_sc() {
                assert_eq!(
                    metrics.sanitizer_sc,
                    Some(true),
                    "{kind} on {name}: no SC order explains the replay"
                );
            }
            assert_eq!(
                metrics.final_mem_digest,
                rcc_sim::RunMetrics::digest_words(&memory),
                "{kind} on {name}: metrics digest disagrees with the image it hashes"
            );
            runs.push((kind, metrics, memory));
        }
        // Golden image: the authored synchronization makes it
        // protocol-independent, so check every protocol against it.
        let want: Vec<(WordAddr, u64)> = expected
            .iter()
            .map(|&(byte, value)| (Addr(byte).word(), value))
            .collect();
        for (kind, _, memory) in &runs {
            let written: Vec<(WordAddr, u64)> = memory
                .iter()
                .copied()
                .filter(|&(_, value)| value != 0)
                .collect();
            let mut want_nonzero: Vec<(WordAddr, u64)> = want
                .iter()
                .copied()
                .filter(|&(_, value)| value != 0)
                .collect();
            want_nonzero.sort_unstable_by_key(|&(addr, _)| addr);
            assert_eq!(
                written, want_nonzero,
                "{kind} on {name}: final memory diverged from the golden image"
            );
        }
        // And pairwise: the full images (zeros included) must agree.
        let (first_kind, _, first_mem) = &runs[0];
        for (kind, metrics, memory) in &runs[1..] {
            assert_eq!(
                memory, first_mem,
                "{kind} vs {first_kind} on {name}: final memory diverged"
            );
            assert_eq!(
                metrics.final_mem_digest, runs[0].1.final_mem_digest,
                "{kind} vs {first_kind} on {name}: image digests diverged"
            );
        }
    }
}

#[test]
fn replayed_traces_survive_chaos_under_the_sanitizer() {
    // Trace fuzzing: the replay path must compose with the perturbation
    // injector — a sound chaos profile shifts timing only, so the final
    // image and the SC verdict stand.
    let cfg = GpuConfig::small();
    for (name, _) in golden() {
        let wl = load(name, &cfg);
        let baseline = run_kind(ProtocolKind::RccSc, &cfg, &wl, None);
        for profile in rcc_chaos::ChaosProfile::sound() {
            let spec = rcc_chaos::ChaosSpec::new(13, profile.clone());
            let (metrics, memory) = run_kind(ProtocolKind::RccSc, &cfg, &wl, Some(&spec));
            assert_eq!(
                metrics.sanitizer_sc,
                Some(true),
                "{name}/{}: chaos broke SC on a replayed trace",
                profile.name
            );
            assert_eq!(
                memory, baseline.1,
                "{name}/{}: chaos moved the final image",
                profile.name
            );
        }
    }
}

#[test]
fn binary_and_text_forms_replay_identically() {
    // The committed .rcct binaries are generated from the .trace text;
    // both forms must lower to the same workload and replay to the same
    // run. Guards the committed pairs against drifting apart.
    let cfg = GpuConfig::small();
    for (name, _) in golden() {
        let text = load(name, &cfg);
        let bin_path = trace_path(name).replace(".trace", ".rcct");
        let bin = Trace::load_any(&bin_path)
            .and_then(|t| t.to_workload(cfg.num_cores))
            .unwrap_or_else(|e| panic!("{name}: {e}"));
        assert_eq!(
            format!("{:?}", text.programs),
            format!("{:?}", bin.programs),
            "{name}: committed binary drifted from its text source"
        );
        let (mt, memt) = run_kind(ProtocolKind::RccSc, &cfg, &text, None);
        let (mb, memb) = run_kind(ProtocolKind::RccSc, &cfg, &bin, None);
        assert!(
            mt.same_simulated_results(&mb),
            "{name}: text and binary replays diverged"
        );
        assert_eq!(memt, memb);
    }
}
