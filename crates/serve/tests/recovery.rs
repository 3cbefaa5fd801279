//! The crash-recovery soak: "kill -9" the live service at seeded
//! journal-record indices across a 300-job run, restart it from the
//! journal alone, and assert the durability contract:
//!
//! - every accepted job reaches a terminal state **exactly once**
//!   across the whole killed-and-restarted history (the final journal
//!   carries exactly one terminal record per job),
//! - every finished job's summary is **byte-identical** to a direct
//!   `try_simulate` of the same canonical spec — preemption, crashes,
//!   and restarts are invisible in the results,
//! - resubmits with the same `dedup_key` are idempotent across
//!   restarts (same id back, nothing double-run),
//! - a graceful drain journals every in-flight checkpoint, writes the
//!   manifest, and closes the journal with a `Drained` marker.
//!
//! The kill switch lives in the durable layer ([`rcc_chaos::service`]):
//! at the seeded record index the journal writes a torn prefix of the
//! frame and every later durable write is silently dropped, so recovery
//! can only rely on what a real `kill -9` would have left on disk.

use rcc_chaos::service::{ServiceFaultSpec, StrideRule};
use rcc_serve::journal::{replay_bytes, Journal, Record};
use rcc_serve::spec::JobSpec;
use rcc_serve::store::{JobError, JobState, ResultSummary};
use rcc_serve::{Server, ServerConfig, Submission};
use rcc_sim::{SliceOutcome, SliceRun};
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::AtomicBool;
use std::sync::Arc;
use std::time::{Duration, Instant};

const JOBS: usize = 300;
const SEED: u64 = 0x0dd5_eed5;

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("rcc-recovery-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("temp dir");
    dir
}

/// The 300-job soak mix: litmus-heavy (cheap), every protocol, a few
/// deliberate deadlocks, all four priorities, every job dedup-keyed.
fn soak_spec(i: usize) -> String {
    const PROTOCOLS: &[&str] = &["mesi", "mesi-wb", "tcs", "tcw", "rcc", "rcc-wo", "ideal"];
    const LITMUS: &[&str] = &[
        "mp", "mp+fence", "sb", "sb+fence", "lb", "wrc", "corr", "iriw",
    ];
    let protocol = PROTOCOLS[i % PROTOCOLS.len()];
    let priority = i % 4;
    let workload = if i % 29 == 7 {
        // Deliberate deadlocks: typed failures must also be exactly-once.
        r#"{"kind": "hang"}"#.to_string()
    } else {
        format!(
            r#"{{"kind": "litmus", "name": "{}", "seed": {}}}"#,
            LITMUS[i % LITMUS.len()],
            3 + (i / 97) as u64
        )
    };
    format!(
        r#"{{"version": 1, "protocol": "{protocol}", "workload": {workload}, "options": {{"priority": {priority}}}, "dedup_key": "soak-{i}"}}"#
    )
}

/// What a direct run of a canonical spec produces: the summary bytes,
/// or the typed error kind.
fn direct_twin(canonical: &str) -> Result<String, &'static str> {
    let spec = JobSpec::parse(canonical).expect("canonical spec re-validates");
    let (kind, cfg, wl, opts) = spec.inputs();
    match rcc_sim::try_simulate(kind, &cfg, &wl, &opts) {
        Ok(m) => Ok(ResultSummary::from_metrics(&m).to_json()),
        Err(e) => Err(JobError::from_sim(&e).kind),
    }
}

fn base_config(dir: &Path) -> ServerConfig {
    ServerConfig {
        workers: 3,
        quantum: 3_000,
        results_dir: Some(dir.join("results")),
        journal: Some(dir.join("soak.rccj")),
        // The kill switch emulates the dead process; data integrity
        // comes from the codec, so skipping fsync just speeds the soak.
        fsync: false,
        ..ServerConfig::default()
    }
}

#[test]
fn kill9_soak_300_jobs_exactly_once_and_byte_identical() {
    let dir = temp_dir("soak");
    let journal_path = dir.join("soak.rccj");
    let specs: Vec<String> = (0..JOBS).map(soak_spec).collect();

    let mut kills = 0usize;
    let mut phases = 0usize;
    loop {
        phases += 1;
        assert!(phases <= 200, "soak did not converge");
        // Seed the next kill ~80 records past what is durable now, so
        // every phase dies mid-run until the work is done.
        let durable_records = std::fs::read(&journal_path)
            .map(|b| replay_bytes(&b).expect("journal replays").records)
            .unwrap_or_default();
        let durable = durable_records.len();
        // Submits are journaled in id order, so the durable ones are
        // exactly ids 0..durable_submits.
        let durable_submits = durable_records
            .iter()
            .filter(|r| matches!(r, Record::Submitted { .. }))
            .count();
        let mut cfg = base_config(&dir);
        cfg.backoff_ms = 1;
        cfg.faults = Some(ServiceFaultSpec {
            seed: SEED + phases as u64,
            kill_at: vec![durable as u64 + 80],
            // Ids 13, 114, 215 panic on every attempt (crash-loop →
            // quarantine, persisting across kills via Retried records);
            // ids 11, 108, 205 panic once and recover on retry.
            panic_jobs: StrideRule {
                stride: 101,
                residue: 13,
            },
            transient_panic_jobs: StrideRule {
                stride: 97,
                residue: 11,
            },
            ..ServiceFaultSpec::default()
        });
        let server = Server::start(cfg).expect("recovery from journal succeeds");

        // Idempotent (re)submission of the whole batch, every phase.
        for (i, text) in specs.iter().enumerate() {
            match server.submit_json(text) {
                Submission::Accepted { id, duplicate } => {
                    assert_eq!(id, i as u64, "dedup key maps back to the original id");
                    // A job whose Submitted record survived the last kill
                    // MUST come back as a duplicate; one whose record the
                    // kill swallowed is legitimately admitted fresh (and
                    // gets the same dense id, since we resubmit in order).
                    assert_eq!(
                        duplicate,
                        i < durable_submits,
                        "job {i}: durable_submits={durable_submits}"
                    );
                }
                other => panic!("job {i} not accepted: {other:?}"),
            }
        }
        // Invalid specs ride along every phase: typed rejection before
        // anything touches the queue or the journal.
        match server.submit_json("{not json at all") {
            Submission::Rejected { kind, .. } => assert_eq!(kind, "schema"),
            other => panic!("garbage accepted: {other:?}"),
        }
        match server.submit_json(
            r#"{"version": 1, "protocol": "rcc", "workload": {"kind": "bench", "name": "doom"}}"#,
        ) {
            Submission::Rejected { kind, .. } => assert_eq!(kind, "workload"),
            other => panic!("unknown bench accepted: {other:?}"),
        }

        // Run until the kill point fires or the batch drains.
        let deadline = Instant::now() + Duration::from_secs(120);
        let killed = loop {
            assert!(Instant::now() < deadline, "phase {phases} wedged");
            if server.stats().killed {
                break true;
            }
            let c = server.counts();
            if c.queued + c.running == 0 {
                break false;
            }
            std::thread::sleep(Duration::from_millis(5));
        };
        server.request_shutdown();
        let _ = server.shutdown();
        if killed {
            kills += 1;
        } else {
            break;
        }
    }
    assert!(
        kills >= 8,
        "soak must die at least 8 times to mean anything (died {kills} across {phases} phases)"
    );

    // The final process exited cleanly: drain one more server to get
    // the clean manifest + Drained marker.
    let server = Server::start(base_config(&dir)).expect("final recovery");
    server.wait_idle();
    server.shutdown().expect("graceful drain");

    // --- Exactly-once, from the journal alone. ---
    let bytes = std::fs::read(&journal_path).expect("journal exists");
    let replay = replay_bytes(&bytes).expect("final journal replays clean");
    let mut terminal_per_job: HashMap<u64, usize> = HashMap::new();
    for rec in &replay.records {
        if rec.is_terminal() {
            *terminal_per_job.entry(rec.job_id().unwrap()).or_insert(0) += 1;
        }
    }
    assert_eq!(
        terminal_per_job.len(),
        JOBS,
        "every job reached a terminal state"
    );
    for (id, n) in &terminal_per_job {
        assert_eq!(*n, 1, "job {id} must be terminal exactly once, saw {n}");
    }
    assert_eq!(
        replay
            .records
            .iter()
            .filter(|r| matches!(r, Record::Submitted { .. }))
            .count(),
        JOBS,
        "dedup admitted each job exactly once across every resubmission"
    );
    assert!(
        matches!(replay.records.last(), Some(Record::Drained)),
        "clean shutdown closes the journal with a Drained marker"
    );

    // --- Byte-identity against direct simulation. ---
    let mut twins: HashMap<String, Result<String, &'static str>> = HashMap::new();
    let server = Server::start(base_config(&dir)).expect("replay for verification");
    let mut preempted = 0usize;
    for i in 0..JOBS {
        let rec = server.status(i as u64).expect("job recovered");
        assert!(rec.state.terminal());
        if i % 101 == 13 {
            // Crash-looping jobs quarantine with their forensics, and
            // the attempt count survives the kills via Retried records.
            assert_eq!(rec.state, JobState::Quarantined, "job {i}");
            assert_eq!(rec.attempts, 3, "job {i}");
            let err = rec.error.expect("quarantined job carries its error");
            assert_eq!(err.kind, "panic");
            assert!(err.detail.contains("injected worker panic"), "{err:?}");
            continue;
        }
        if i % 97 == 11 {
            assert!(rec.attempts >= 1, "job {i} recovered from its panic");
        }
        if rec.preemptions > 0 {
            preempted += 1;
        }
        let twin = twins
            .entry(rec.spec_json.clone())
            .or_insert_with(|| direct_twin(&rec.spec_json));
        match (rec.state, &*twin) {
            (JobState::Done, Ok(expect)) => {
                let got = rec.summary.expect("done has summary").to_json();
                assert_eq!(&got, expect, "job {i} diverged across kills");
            }
            (JobState::Failed, Err(kind)) => {
                assert_eq!(rec.error.expect("failed has error").kind, *kind, "job {i}");
            }
            (state, twin) => panic!("job {i}: state {state:?} vs twin {twin:?}"),
        }
        // The artifact a crash swallowed was re-persisted on recovery.
        let artifact = dir.join("results").join(format!("job-{i}.json"));
        assert!(artifact.exists(), "job {i} artifact missing after recovery");
    }
    assert!(
        preempted > 0,
        "quantum too large: nothing exercised resume-from-checkpoint"
    );
    let _ = server.shutdown();
    assert!(dir.join("results").join("manifest.json").exists());
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn dedup_key_is_idempotent_across_restart_and_conflicts_are_typed() {
    let dir = temp_dir("dedup");
    let cfg = || ServerConfig {
        workers: 1,
        journal: Some(dir.join("dedup.rccj")),
        fsync: false,
        ..ServerConfig::default()
    };
    let spec = r#"{"version": 1, "protocol": "rcc", "workload": {"kind": "litmus", "name": "mp", "seed": 3}, "dedup_key": "the-one"}"#;
    let server = Server::start(cfg()).expect("start");
    let id = match server.submit_json(spec) {
        Submission::Accepted { id, duplicate } => {
            assert!(!duplicate);
            id
        }
        other => panic!("{other:?}"),
    };
    // Same key, same spec, same server: duplicate, same id.
    assert_eq!(
        server.submit_json(spec),
        Submission::Accepted {
            id,
            duplicate: true
        }
    );
    server.wait_idle();
    let summary = server.wait(id).unwrap().summary.expect("done").to_json();
    server.shutdown().expect("drain");

    // Across a restart the key still resolves — without re-running.
    let server = Server::start(cfg()).expect("recovery");
    assert_eq!(
        server.submit_json(spec),
        Submission::Accepted {
            id,
            duplicate: true
        }
    );
    let rec = server.status(id).unwrap();
    assert_eq!(rec.state, JobState::Done);
    assert_eq!(
        rec.summary.unwrap().to_json(),
        summary,
        "recovered result is the original"
    );
    // Same key with a different spec: typed conflict, nothing queued.
    let conflicting = spec.replace("\"seed\": 3", "\"seed\": 11");
    match server.submit_json(&conflicting) {
        Submission::Rejected { kind, .. } => assert_eq!(kind, "dedup"),
        other => panic!("conflicting spec not rejected: {other:?}"),
    }
    assert_eq!(server.counts().total(), 1);
    server.shutdown().expect("drain");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn graceful_drain_parks_inflight_work_on_journaled_checkpoints() {
    let dir = temp_dir("drain");
    let cfg = || ServerConfig {
        workers: 2,
        quantum: 2_000,
        journal: Some(dir.join("drain.rccj")),
        fsync: false,
        ..ServerConfig::default()
    };
    let server = Server::start(cfg()).expect("start");
    for i in 0..6 {
        let spec = format!(
            r#"{{"version": 1, "protocol": "rcc", "workload": {{"kind": "bench", "name": "dlb", "scale": "quick", "seed": 3}}, "options": {{"priority": {}}}, "dedup_key": "drain-{i}"}}"#,
            i % 4
        );
        assert!(matches!(
            server.submit_json(&spec),
            Submission::Accepted { .. }
        ));
    }
    // Drain immediately: whatever was mid-quantum parks at its next
    // checkpoint and the journal carries it.
    server.shutdown().expect("drain");
    let replay = replay_bytes(&std::fs::read(dir.join("drain.rccj")).unwrap()).unwrap();
    assert!(matches!(replay.records.last(), Some(Record::Drained)));

    // Restart: the batch finishes from journaled state, bit-identical.
    let server = Server::start(cfg()).expect("recovery");
    server.wait_idle();
    let mut twins: HashMap<String, Result<String, &'static str>> = HashMap::new();
    for i in 0..6u64 {
        let rec = server.wait(i).unwrap();
        assert_eq!(rec.state, JobState::Done, "job {i}: {:?}", rec.error);
        let twin = twins
            .entry(rec.spec_json.clone())
            .or_insert_with(|| direct_twin(&rec.spec_json));
        assert_eq!(&rec.summary.unwrap().to_json(), twin.as_ref().unwrap());
    }
    server.shutdown().expect("drain");
    let _ = std::fs::remove_dir_all(&dir);
}

/// A journal replays whichever way it recorded a job's boundaries:
/// earlier builds wrote `Preempted` records that embed the checkpoint's
/// RCCK bytes, the live service writes `Parked` records that name the
/// boundary's cycle and digest. A restart from either finishes with the
/// uninterrupted run's summary, slices and preemptions, and the live
/// service's own journal holds no RCCK bytes at all.
#[test]
fn legacy_and_by_reference_journals_both_replay_to_the_twin() {
    const QUANTUM: u64 = 2_000;
    let dir = temp_dir("by-reference");
    let spec_json = r#"{"version": 1, "protocol": "rcc", "workload": {"kind": "bench", "name": "dlb", "scale": "quick", "seed": 3}}"#;
    let spec = JobSpec::parse(spec_json).expect("valid spec");
    let cfg = |journal: &str| ServerConfig {
        workers: 1,
        quantum: QUANTUM,
        journal: Some(dir.join(journal)),
        fsync: false,
        ..ServerConfig::default()
    };

    // The uninterrupted twin, journaled live.
    let server = Server::start(cfg("live.rccj")).expect("start");
    let Submission::Accepted { id, .. } = server.submit_spec(spec.clone()) else {
        panic!("not accepted");
    };
    let twin = server.wait(id).expect("job exists");
    server.shutdown().expect("drain");
    assert_eq!(twin.state, JobState::Done, "{:?}", twin.error);
    assert!(twin.preemptions >= 4, "the quantum must preempt repeatedly");
    let summary = twin.summary.clone().expect("summary");
    assert_eq!(Ok(summary.to_json()), direct_twin(&twin.spec_json));
    let live = replay_bytes(&std::fs::read(dir.join("live.rccj")).unwrap()).unwrap();
    assert!(
        !live
            .records
            .iter()
            .any(|r| matches!(r, Record::Preempted { .. })),
        "the live service journals no RCCK bytes"
    );
    let parked = live
        .records
        .iter()
        .filter(|r| matches!(r, Record::Parked { .. }))
        .count();
    assert_eq!(parked as u64, twin.preemptions, "one Parked per boundary");

    // The job's boundary checkpoints, as the service parks them.
    let (kind, gpu, wl, mut opts) = spec.inputs();
    opts.quantum = QUANTUM;
    let mut run = SliceRun::start(kind, &gpu, wl, &opts);
    let mut boundaries = Vec::new();
    while let SliceOutcome::Preempted { ck, .. } = run.next_slice().expect("slice") {
        boundaries.push(ck);
    }
    assert_eq!(boundaries.len() as u64, twin.preemptions);

    // Two journals cut at the same mid-run boundary, one per format.
    let cut = boundaries.len() / 2;
    let legacy = |n: usize| Record::Preempted {
        id: 0,
        slices: n as u64 + 1,
        preemptions: n as u64 + 1,
        checkpoint: boundaries[n].encode(),
    };
    let by_reference = |n: usize| Record::Parked {
        id: 0,
        slices: n as u64 + 1,
        preemptions: n as u64 + 1,
        cycle: boundaries[n].cycle,
        state_digest: boundaries[n].state_digest,
    };
    for (name, boundary) in [
        ("legacy.rccj", &legacy as &dyn Fn(usize) -> Record),
        ("parked.rccj", &by_reference),
    ] {
        let killed = Arc::new(AtomicBool::new(false));
        let (mut journal, _) = Journal::open(&dir.join(name), false, None, killed).unwrap();
        journal
            .append(&Record::Submitted {
                id: 0,
                priority: spec.priority,
                spec_json: spec.to_canonical_json(),
                dedup_key: None,
            })
            .unwrap();
        journal
            .append(&Record::Started { id: 0, attempt: 0 })
            .unwrap();
        for n in 0..=cut {
            journal.append(&boundary(n)).unwrap();
        }
        drop(journal);

        let server = Server::start(cfg(name)).expect("recovery from the journal");
        let rec = server.wait(0).expect("job recovered");
        server.shutdown().expect("drain");
        assert_eq!(rec.state, JobState::Done, "{name}: {:?}", rec.error);
        assert_eq!(rec.summary.as_ref(), Some(&summary), "{name}");
        assert_eq!(
            (rec.slices, rec.preemptions),
            (twin.slices, twin.preemptions),
            "{name}"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// The upgrade contract. A build whose `state_digest` differs from the
/// one that wrote a journal produces none of its parked digests, so to
/// it every `Parked` boundary looks like this test's: the right cycle
/// with a digest it does not produce there. On restart that job fails
/// once, with a typed `checkpoint` error that names both digests. It is
/// not retried or quarantined and consumes no attempt, because replaying
/// the same inputs reproduces the same mismatch. The journal's other
/// jobs finish. A service is therefore drained before such an upgrade.
#[test]
fn a_parked_digest_from_another_build_fails_its_job_once_as_checkpoint() {
    const QUANTUM: u64 = 2_000;
    let dir = temp_dir("upgrade");
    let spec_json = r#"{"version": 1, "protocol": "rcc", "workload": {"kind": "bench", "name": "dlb", "scale": "quick", "seed": 3}}"#;
    let spec = JobSpec::parse(spec_json).expect("valid spec");
    let (kind, gpu, wl, mut opts) = spec.inputs();
    opts.quantum = QUANTUM;
    let mut run = SliceRun::start(kind, &gpu, wl, &opts);
    let Ok(SliceOutcome::Preempted { ck, .. }) = run.next_slice() else {
        panic!("the quantum must preempt");
    };
    let (cycle, ours) = (ck.cycle, ck.state_digest);
    let theirs = ours ^ 0x0123_4567_89ab_cdef;

    let killed = Arc::new(AtomicBool::new(false));
    let path = dir.join("upgrade.rccj");
    let (mut journal, _) = Journal::open(&path, false, None, killed).unwrap();
    // Job 0 parked by the other build, job 1 parked by this one, job 2
    // only admitted.
    for (id, parked) in [(0, Some(theirs)), (1, Some(ours)), (2, None)] {
        journal
            .append(&Record::Submitted {
                id,
                priority: spec.priority,
                spec_json: spec.to_canonical_json(),
                dedup_key: None,
            })
            .unwrap();
        if let Some(state_digest) = parked {
            journal.append(&Record::Started { id, attempt: 0 }).unwrap();
            journal
                .append(&Record::Parked {
                    id,
                    slices: 1,
                    preemptions: 1,
                    cycle,
                    state_digest,
                })
                .unwrap();
        }
    }
    drop(journal);

    let server = Server::start(ServerConfig {
        workers: 1,
        quantum: QUANTUM,
        journal: Some(path.clone()),
        fsync: false,
        ..ServerConfig::default()
    })
    .expect("recovery from the journal");
    let [failed, resumed, fresh] = [0, 1, 2].map(|id| server.wait(id).expect("job recovered"));
    server.shutdown().expect("drain");

    assert_eq!(failed.state, JobState::Failed);
    let error = failed.error.expect("a typed error");
    assert_eq!(error.kind, "checkpoint", "{}", error.detail);
    for digest in [ours, theirs] {
        let hex = format!("{digest:016x}");
        assert!(
            error.detail.contains(&hex),
            "{hex} unnamed: {}",
            error.detail
        );
    }
    assert_eq!(failed.attempts, 0, "a mismatch consumes no attempt");
    let twin = direct_twin(&failed.spec_json);
    for rec in [&resumed, &fresh] {
        assert_eq!(rec.state, JobState::Done, "{:?}", rec.error);
        let summary = rec.summary.as_ref().expect("summary").to_json();
        assert_eq!(Ok(summary), twin);
    }
    let records = replay_bytes(&std::fs::read(&path).unwrap())
        .unwrap()
        .records;
    let of_job_0: Vec<&Record> = records.iter().filter(|r| r.job_id() == Some(0)).collect();
    assert!(
        !of_job_0
            .iter()
            .any(|r| matches!(r, Record::Retried { .. } | Record::Quarantined { .. })),
        "no retry, no quarantine: {of_job_0:?}"
    );
    let terminal = of_job_0
        .iter()
        .filter(|r| matches!(r, Record::Failed { .. }))
        .count();
    assert_eq!(terminal, 1, "fails exactly once: {of_job_0:?}");
    let _ = std::fs::remove_dir_all(&dir);
}
