//! The cooperative slice entry points: a run chopped into checkpoint
//! quanta is bit-identical to the uninterrupted run — whether the
//! machine stays parked between slices or is rebuilt by replay at every
//! resume — and a corrupted in-memory snapshot fails typed instead of
//! resuming wrong state.

use rcc_common::GpuConfig;
use rcc_core::ProtocolKind;
use rcc_sim::runner::{resume_slice, try_simulate, try_simulate_slice, SimOptions};
use rcc_sim::{Checkpoint, RunMetrics, SimError, SliceOutcome, SliceRun};
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

/// Drives a slice chain to completion: `next` is called with the last
/// boundary's checkpoint (`None` first) and yields the next slice.
/// Returns the final metrics and every boundary checkpoint in order.
fn chain(
    mut next: impl FnMut(Option<&Checkpoint>) -> Result<SliceOutcome, SimError>,
) -> (RunMetrics, Vec<Checkpoint>) {
    let mut boundaries: Vec<Checkpoint> = Vec::new();
    loop {
        match next(boundaries.last()).expect("slice") {
            SliceOutcome::Finished(m) => return (*m, boundaries),
            SliceOutcome::Preempted { ck, progress } => {
                assert_eq!(ck.cycle, progress.cycle, "checkpoint sits at the yield");
                assert!(boundaries.len() < 1000, "slicing must terminate");
                boundaries.push(*ck);
            }
        }
    }
}

/// One live machine, parked between slices.
fn parked_chain(run: &mut SliceRun) -> (RunMetrics, Vec<Checkpoint>) {
    chain(|_| run.next_slice())
}

/// The replay chain: every slice after the first rebuilds the machine
/// from the previous boundary's checkpoint.
fn replay_chain(
    kind: ProtocolKind,
    cfg: &GpuConfig,
    wl: &Workload,
    opts: &SimOptions,
) -> (RunMetrics, Vec<Checkpoint>) {
    chain(|ck| match ck {
        None => try_simulate_slice(kind, cfg, wl, opts),
        Some(ck) => resume_slice(ck),
    })
}

fn series_csv(m: &RunMetrics) -> Option<String> {
    m.obs.as_ref().map(|o| o.series.to_csv())
}

/// Parking is not replay: a chain of `SliceRun::next_slice` calls on one
/// live machine matches the direct run's digest, the replay chain's
/// boundary checkpoints byte for byte, and a replay resumed from any of
/// its boundaries. With sampling armed, the parked run's final series
/// equals the direct run's row for row (taking the observer off a
/// parked machine would drop the rows sampled before the boundary).
#[test]
fn parked_run_is_bit_identical_to_direct_and_replayed_runs() {
    let (cfg, wl) = dlb_quick();
    let cfg8 = GpuConfig {
        num_cores: 8,
        ..GpuConfig::small()
    };
    let bh8 = Benchmark::Bh.generate(&cfg8, &Scale::standard(), SEED);
    let quantum = |q: u64| SimOptions {
        quantum: q,
        ..SimOptions::fast()
    };
    let mut cases: Vec<(ProtocolKind, &GpuConfig, &Workload, SimOptions)> = ProtocolKind::ALL
        .into_iter()
        .map(|kind| (kind, &cfg, &wl, quantum(2_000)))
        .collect();
    // The perfbench/NOTES.md reproducer, a TC-Weak input whose result
    // depended on where a run paused (a reject-spin engaged on two
    // different warps' rejects), and a sampled input.
    let cl8 = Benchmark::Cl.generate(&cfg8, &Scale::standard(), 204);
    cases.push((ProtocolKind::MesiWb, &cfg8, &bh8, quantum(30_000)));
    cases.push((ProtocolKind::TcWeak, &cfg8, &cl8, quantum(30_000)));
    cases.push((
        ProtocolKind::RccSc,
        &cfg,
        &wl,
        SimOptions {
            sample_every: 1_000,
            ..quantum(4_000)
        },
    ));
    for (kind, cfg, wl, opts) in cases {
        let direct = try_simulate(kind, cfg, wl, &opts).expect("direct run");
        let mut run = SliceRun::start(kind, cfg, wl.clone(), &opts);
        let (parked, boundaries) = parked_chain(&mut run);
        assert!(
            boundaries.len() > 3,
            "{kind}: quantum must actually preempt"
        );
        assert_eq!(parked.digest(SEED), direct.digest(SEED), "{kind}: parked");
        assert_eq!(series_csv(&parked), series_csv(&direct), "{kind}: series");

        let (replayed, replay_boundaries) = replay_chain(kind, cfg, wl, &opts);
        assert_eq!(
            replayed.digest(SEED),
            direct.digest(SEED),
            "{kind}: replayed"
        );
        assert_eq!(boundaries.len(), replay_boundaries.len(), "{kind}");
        for (a, b) in boundaries.iter().zip(&replay_boundaries) {
            assert_eq!(a.encode(), b.encode(), "{kind}: boundary {}", a.cycle);
        }

        for ck in &boundaries {
            let mut resumed = SliceRun::resume(ck).expect("replay to the boundary");
            let (m, _) = parked_chain(&mut resumed);
            assert_eq!(
                m.digest(SEED),
                direct.digest(SEED),
                "{kind}: resumed from {}",
                ck.cycle
            );
        }
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

/// A corrupted snapshot fails typed on both resume paths: the replay
/// that rebuilds the machine, and the check a parked run passes before
/// it goes on.
#[test]
fn corrupted_snapshot_is_a_typed_checkpoint_error() {
    let (cfg, wl) = dlb_quick();
    let opts = SimOptions {
        quantum: 4_000,
        ..SimOptions::fast()
    };
    let mut run = SliceRun::start(ProtocolKind::RccSc, &cfg, wl, &opts);
    let SliceOutcome::Preempted { mut ck, .. } = run.next_slice().expect("first slice") else {
        panic!("quantum 4000 must preempt dlb-quick");
    };
    run.verify(&ck)
        .expect("the parked run is the checkpointed machine");
    ck.state_digest ^= 1;
    for got in [resume_slice(&ck).map(|_| ()), run.verify(&ck)] {
        match got {
            Err(SimError::Checkpoint(msg)) => {
                assert!(msg.contains("digest"), "names the mismatch: {msg}")
            }
            other => panic!("corrupted snapshot must fail typed, got {other:?}"),
        }
    }
}

/// A parked run attests only the boundary it parked at: after a further
/// slice, an earlier boundary's checkpoint fails typed on the cycle.
#[test]
fn an_earlier_boundary_fails_verify_on_the_cycle() {
    let (cfg, wl) = dlb_quick();
    let opts = SimOptions {
        quantum: 4_000,
        ..SimOptions::fast()
    };
    let mut run = SliceRun::start(ProtocolKind::RccSc, &cfg, wl, &opts);
    let mut boundary = || match run.next_slice().expect("slice") {
        SliceOutcome::Preempted { ck, .. } => ck,
        SliceOutcome::Finished(_) => panic!("quantum 4000 must preempt dlb-quick"),
    };
    let (first, second) = (boundary(), boundary());
    run.verify(&second)
        .expect("the parked run is the latest boundary");
    match run.verify(&first) {
        Err(SimError::Checkpoint(msg)) => assert!(
            msg.contains(&format!("at cycle {}", first.cycle))
                && msg.contains(&format!("at cycle {}", second.cycle)),
            "names both cycles: {msg}"
        ),
        other => panic!("a stale boundary must fail typed, got {other:?}"),
    }
}
