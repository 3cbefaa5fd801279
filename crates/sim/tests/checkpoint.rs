//! Checkpoint/restore determinism: for three protocol×workload pairs,
//! with fast-forwarding and chaos each on and off, a run that writes a
//! mid-run checkpoint and a run resumed from that checkpoint both
//! produce bit-identical simulated results — metrics digest and
//! observability output — versus the uninterrupted run.

use rcc_chaos::{ChaosProfile, ChaosSpec};
use rcc_common::GpuConfig;
use rcc_core::ProtocolKind;
use rcc_sim::checkpoint::Checkpoint;
use rcc_sim::error::SimError;
use rcc_sim::runner::{resume, try_simulate, SimOptions};
use rcc_workloads::{Benchmark, Scale};

const MANIFEST_SCHEMA: &str = include_str!(concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/../../schemas/checkpoint_manifest.schema.json"
));

const PAIRS: [(ProtocolKind, Benchmark); 3] = [
    (ProtocolKind::RccSc, Benchmark::Dlb),
    (ProtocolKind::Mesi, Benchmark::Hsp),
    (ProtocolKind::TcWeak, Benchmark::Cl),
];

fn tmp(name: &str) -> String {
    std::path::Path::new(env!("CARGO_TARGET_TMPDIR"))
        .join(name)
        .to_str()
        .expect("utf-8 tmp path")
        .to_string()
}

fn opts(fast_forward: bool, chaos: bool) -> SimOptions {
    let mut o = SimOptions::observed(128);
    o.profile = false; // host-side timing; irrelevant to bit-identity
    o.fast_forward = fast_forward;
    if chaos {
        o.chaos = Some(ChaosSpec::new(5, ChaosProfile::light()));
    }
    o
}

/// Asserts simulated results AND observability output are bit-identical.
fn assert_identical(label: &str, a: &rcc_sim::RunMetrics, b: &rcc_sim::RunMetrics) {
    assert!(
        a.same_simulated_results(b),
        "{label}: simulated results diverged"
    );
    assert_eq!(a.digest(1), b.digest(1), "{label}: metrics digest diverged");
    let (oa, ob) = (
        a.obs.as_ref().expect("obs recorded"),
        b.obs.as_ref().expect("obs recorded"),
    );
    assert_eq!(
        oa.series.to_json(),
        ob.series.to_json(),
        "{label}: time-series diverged"
    );
    assert_eq!(
        oa.trace.to_chrome_json(),
        ob.trace.to_chrome_json(),
        "{label}: trace diverged"
    );
}

#[test]
fn resume_is_bit_identical_across_protocols_ff_and_chaos() {
    let cfg = GpuConfig::small();
    for (kind, bench) in PAIRS {
        let wl = bench.generate(&cfg, &Scale::quick(), 3);
        for ff in [true, false] {
            for chaos in [true, false] {
                let label = format!("{kind:?}/{bench:?} ff={ff} chaos={chaos}");
                let base = opts(ff, chaos);
                let uninterrupted =
                    try_simulate(kind, &cfg, &wl, &base).expect("uninterrupted run");

                // Checkpoint roughly mid-run, derived from the run's own
                // length so the boundary always lands inside it.
                let path = tmp(&format!("ck-{kind:?}-{bench:?}-{ff}-{chaos}"));
                let mut ck_opts = base.clone();
                ck_opts.quantum = (uninterrupted.cycles / 2).max(1);
                ck_opts.checkpoint = Some(path.clone());
                let checkpointed =
                    try_simulate(kind, &cfg, &wl, &ck_opts).expect("checkpointed run");
                assert_identical(
                    &format!("{label} [checkpointing]"),
                    &uninterrupted,
                    &checkpointed,
                );

                // The snapshot and its manifest exist; the manifest obeys
                // the in-repo schema and names the run.
                let ck = Checkpoint::load(&path).expect("snapshot readable");
                assert!(ck.cycle > 0 && ck.cycle < uninterrupted.cycles);
                let manifest = std::fs::read_to_string(format!("{path}.manifest.json"))
                    .expect("manifest sidecar written");
                let errs = rcc_obs::schema::validate_text(MANIFEST_SCHEMA, &manifest)
                    .expect("manifest parses");
                assert!(
                    errs.is_empty(),
                    "{label}: manifest schema violations: {errs:?}"
                );
                assert!(
                    manifest.contains(wl.name),
                    "{label}: manifest names workload"
                );

                // Resume replays to the checkpointed cycle (verifying the
                // state digest) and finishes bit-identically.
                let resumed = resume(&path).expect("resumed run");
                assert_identical(&format!("{label} [resume]"), &uninterrupted, &resumed);
            }
        }
    }
}

#[test]
fn corrupt_and_missing_checkpoints_are_typed_errors() {
    let cfg = GpuConfig::small();
    let wl = Benchmark::Dlb.generate(&cfg, &Scale::quick(), 3);
    let path = tmp("ck-corrupt");
    let probe =
        try_simulate(ProtocolKind::RccSc, &cfg, &wl, &SimOptions::fast()).expect("probe run");
    let mut o = SimOptions::fast();
    o.quantum = (probe.cycles / 2).max(1);
    o.checkpoint = Some(path.clone());
    try_simulate(ProtocolKind::RccSc, &cfg, &wl, &o).expect("checkpointed run");

    // Flip a byte in the middle of the payload: decode must fail closed.
    let mut bytes = std::fs::read(&path).expect("snapshot readable");
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0xff;
    let corrupt_path = tmp("ck-corrupt.flipped");
    std::fs::write(&corrupt_path, &bytes).expect("write corrupted copy");
    let err = resume(&corrupt_path).expect_err("corrupted snapshot must not resume");
    assert!(
        matches!(err, SimError::Checkpoint(_)),
        "expected Checkpoint error, got: {err}"
    );

    let err = resume(&tmp("ck-does-not-exist")).expect_err("missing file");
    assert!(matches!(err, SimError::Checkpoint(_)), "got: {err}");
}
