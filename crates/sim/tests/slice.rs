//! The cooperative slice entry points: a run chopped into checkpoint
//! quanta is bit-identical to the uninterrupted run, and a corrupted
//! in-memory snapshot fails typed instead of resuming wrong state.

use rcc_common::GpuConfig;
use rcc_core::ProtocolKind;
use rcc_sim::runner::{resume_slice, try_simulate, try_simulate_slice, SimOptions};
use rcc_sim::{SimError, SliceOutcome};
use rcc_workloads::{Benchmark, Scale, Workload};

const SEED: u64 = 7;

fn dlb_quick() -> (GpuConfig, Workload) {
    let cfg = GpuConfig::small();
    let wl = Benchmark::Dlb.generate(&cfg, &Scale::quick(), SEED);
    (cfg, wl)
}

fn sliced_metrics(
    kind: ProtocolKind,
    cfg: &GpuConfig,
    wl: &Workload,
    quantum: u64,
) -> (rcc_sim::RunMetrics, u64) {
    let opts = SimOptions {
        quantum,
        ..SimOptions::fast()
    };
    let mut slices = 0u64;
    let mut out = try_simulate_slice(kind, cfg, wl, &opts).expect("first slice");
    loop {
        slices += 1;
        match out {
            SliceOutcome::Finished(m) => return (*m, slices),
            SliceOutcome::Preempted { ck, progress } => {
                assert_eq!(ck.cycle, progress.cycle, "checkpoint sits at the yield");
                assert!(slices < 1000, "slicing must terminate");
                out = resume_slice(&ck).expect("resume");
            }
        }
    }
}

#[test]
fn slice_chain_is_bit_identical_to_uninterrupted_run() {
    let (cfg, wl) = dlb_quick();
    // 8 cores at standard scale drive MESI-WB's L1 into reject-spins on
    // a poisoned or full MSHR. Every resume replays to its checkpoint
    // and checks the state digest, so this chain finishes only if the
    // architectural state is independent of where each earlier slice
    // paused the run (a rejected access may change nothing but L1
    // counters).
    let cfg8 = GpuConfig {
        num_cores: 8,
        ..GpuConfig::small()
    };
    let bh8 = Benchmark::Bh.generate(&cfg8, &Scale::standard(), SEED);
    for (kind, cfg, wl, quantum) in [
        (ProtocolKind::RccSc, &cfg, &wl, 4_000),
        (ProtocolKind::MesiWb, &cfg8, &bh8, 30_000),
    ] {
        let direct = try_simulate(kind, cfg, wl, &SimOptions::fast()).expect("direct run");
        let (chained, slices) = sliced_metrics(kind, cfg, wl, quantum);
        assert!(
            slices > 3,
            "{kind}: quantum small enough to actually preempt"
        );
        assert_eq!(chained.cycles, direct.cycles, "{kind}");
        assert_eq!(
            chained.digest(SEED),
            direct.digest(SEED),
            "{kind}: full field set"
        );
    }
}

#[test]
fn zero_quantum_finishes_in_one_slice() {
    let (cfg, wl) = dlb_quick();
    let (m, slices) = sliced_metrics(ProtocolKind::RccSc, &cfg, &wl, 0);
    assert_eq!(slices, 1);
    assert!(m.cycles > 0);
}

#[test]
fn quantum_past_the_run_length_never_yields() {
    let (cfg, wl) = dlb_quick();
    let (m, slices) = sliced_metrics(ProtocolKind::RccSc, &cfg, &wl, u64::MAX);
    assert_eq!(slices, 1);
    assert!(m.cycles > 0);
}

#[test]
fn corrupted_snapshot_is_a_typed_checkpoint_error() {
    let (cfg, wl) = dlb_quick();
    let opts = SimOptions {
        quantum: 4_000,
        ..SimOptions::fast()
    };
    let out = try_simulate_slice(ProtocolKind::RccSc, &cfg, &wl, &opts).expect("first slice");
    let SliceOutcome::Preempted { mut ck, .. } = out else {
        panic!("quantum 4000 must preempt dlb-quick");
    };
    ck.state_digest ^= 1;
    match resume_slice(&ck) {
        Err(SimError::Checkpoint(msg)) => {
            assert!(msg.contains("digest"), "names the mismatch: {msg}")
        }
        other => panic!("corrupted snapshot must fail typed, got {other:?}"),
    }
}
