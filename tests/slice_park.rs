//! Parking a run between slices is invisible in its results: on every
//! protocol, a chain of `SliceRun::next_slice` calls on one live machine
//! finishes with the direct run's metrics digest, yields the same
//! boundary checkpoints as the replay chain (`try_simulate_slice`, then
//! `resume_slice` on each checkpoint), and a replay resumed from its
//! middle boundary finishes the same way. Every parked boundary passes
//! `SliceRun::verify`, which in a debug build also re-hashes the machine
//! against the digest it took when it parked. A seconds-scale guard; the
//! full matrix lives in the rcc-sim `slice` suite.

use rcc_repro::coherence::ProtocolKind;
use rcc_repro::common::GpuConfig;
use rcc_repro::sim::runner::{resume_slice, try_simulate, try_simulate_slice, SimOptions};
use rcc_repro::sim::{Checkpoint, RunMetrics, SliceOutcome, SliceRun};
use rcc_repro::workloads::{Benchmark, Scale};

const SEED: u64 = 5;

/// Runs `next` until the run finishes; returns the metrics and the
/// boundary checkpoints in order.
fn chain(
    mut next: impl FnMut(Option<&Checkpoint>) -> SliceOutcome,
) -> (RunMetrics, Vec<Checkpoint>) {
    let mut boundaries: Vec<Checkpoint> = Vec::new();
    loop {
        match next(boundaries.last()) {
            SliceOutcome::Finished(m) => return (*m, boundaries),
            SliceOutcome::Preempted { ck, .. } => boundaries.push(*ck),
        }
    }
}

#[test]
fn parked_slices_match_direct_and_replayed_runs_on_every_protocol() {
    let cfg = GpuConfig::small();
    let wl = Benchmark::Hsp.generate(&cfg, &Scale::quick(), SEED);
    let opts = SimOptions {
        quantum: 1_500,
        ..SimOptions::fast()
    };
    for kind in ProtocolKind::ALL {
        let direct = try_simulate(kind, &cfg, &wl, &opts).expect("direct run");
        let mut run = SliceRun::start(kind, &cfg, wl.clone(), &opts);
        let (parked, boundaries) = chain(|_| {
            let out = run.next_slice().expect("parked slice");
            if let SliceOutcome::Preempted { ck, .. } = &out {
                run.verify(ck).expect("the parked run is its checkpoint");
            }
            out
        });
        assert!(boundaries.len() >= 2, "{kind}: the quantum must preempt");
        assert_eq!(parked.digest(SEED), direct.digest(SEED), "{kind}: parked");

        let (replayed, replay_boundaries) = chain(|ck| {
            match ck {
                None => try_simulate_slice(kind, &cfg, &wl, &opts),
                Some(ck) => resume_slice(ck),
            }
            .expect("replayed slice")
        });
        assert_eq!(replayed.digest(SEED), direct.digest(SEED), "{kind}");
        let bytes = |cks: &[Checkpoint]| cks.iter().map(Checkpoint::encode).collect::<Vec<_>>();
        assert_eq!(bytes(&boundaries), bytes(&replay_boundaries), "{kind}");

        let mid = &boundaries[boundaries.len() / 2];
        let mut resumed = SliceRun::resume(mid).expect("replay to the middle boundary");
        let (m, _) = chain(|_| resumed.next_slice().expect("resumed slice"));
        assert_eq!(m.digest(SEED), direct.digest(SEED), "{kind}: resumed");
    }
}
