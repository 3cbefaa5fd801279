//! Worker supervision under injected faults: crash-looping jobs are
//! quarantined typed, transient panics recover on a retry with a
//! byte-identical result (also after a park, by replaying the journaled
//! boundary), wedged workers are abandoned by the wall-clock
//! watchdog and replaced, and a full queue answers with typed overload
//! and priority-shedding replies instead of blocking or dropping work.

use rcc_chaos::service::{ServiceFaultSpec, StrideRule};
use rcc_serve::journal::{replay_bytes, Record};
use rcc_serve::spec::JobSpec;
use rcc_serve::store::{JobError, JobState, ResultSummary};
use rcc_serve::{Server, ServerConfig, Submission};
use std::collections::HashMap;
use std::time::{Duration, Instant};

fn litmus_spec(i: usize) -> String {
    const LITMUS: &[&str] = &["mp", "sb", "lb", "wrc", "corr"];
    format!(
        r#"{{"version": 1, "protocol": "rcc", "workload": {{"kind": "litmus", "name": "{}", "seed": 3}}}}"#,
        LITMUS[i % LITMUS.len()]
    )
}

fn submit(server: &Server, spec: &str) -> u64 {
    match server.submit_json(spec) {
        Submission::Accepted { id, .. } => id,
        other => panic!("not accepted: {other:?}"),
    }
}

fn direct_twin(canonical: &str) -> Result<String, &'static str> {
    let spec = JobSpec::parse(canonical).expect("canonical spec re-validates");
    let (kind, cfg, wl, opts) = spec.inputs();
    match rcc_sim::try_simulate(kind, &cfg, &wl, &opts) {
        Ok(m) => Ok(ResultSummary::from_metrics(&m).to_json()),
        Err(e) => Err(JobError::from_sim(&e).kind),
    }
}

/// Jobs that panic on every attempt exhaust `max_attempts` and land in
/// quarantine with the typed `panic` error and the last panic payload;
/// their neighbors on the same workers finish untouched.
#[test]
fn crash_looping_jobs_are_quarantined_typed() {
    let server = Server::start(ServerConfig {
        workers: 2,
        max_attempts: 3,
        backoff_ms: 1,
        faults: Some(ServiceFaultSpec {
            seed: 1,
            // Ids 2, 7, 12, ... panic on every attempt.
            panic_jobs: StrideRule {
                stride: 5,
                residue: 2,
            },
            ..ServiceFaultSpec::default()
        }),
        ..ServerConfig::default()
    })
    .expect("server starts");
    let ids: Vec<u64> = (0..20).map(|i| submit(&server, &litmus_spec(i))).collect();
    server.wait_idle();

    let mut quarantined = 0usize;
    for id in ids {
        let rec = server.status(id).expect("job exists");
        if id % 5 == 2 {
            assert_eq!(rec.state, JobState::Quarantined, "job {id}");
            assert_eq!(rec.attempts, 3, "job {id} exhausted its attempts");
            let err = rec.error.expect("quarantined job carries its error");
            assert_eq!(err.kind, "panic");
            assert!(
                err.detail.contains("injected worker panic"),
                "last panic payload survives: {err:?}"
            );
            quarantined += 1;
        } else {
            assert_eq!(rec.state, JobState::Done, "job {id}: {:?}", rec.error);
            assert_eq!(rec.attempts, 0, "healthy jobs never retried");
        }
    }
    assert_eq!(quarantined, 4);
    assert_eq!(server.counts().quarantined, 4);
    server.shutdown().expect("clean shutdown");
}

/// A first-attempt-only panic is retried after backoff and succeeds —
/// and the retried result is byte-identical to a direct run, because
/// the retry replays from the job's parked checkpoint.
#[test]
fn transient_panic_recovers_on_retry_byte_identical() {
    let server = Server::start(ServerConfig {
        workers: 2,
        max_attempts: 3,
        backoff_ms: 1,
        faults: Some(ServiceFaultSpec {
            seed: 2,
            // Every id panics once, then runs clean.
            transient_panic_jobs: StrideRule {
                stride: 1,
                residue: 0,
            },
            ..ServiceFaultSpec::default()
        }),
        ..ServerConfig::default()
    })
    .expect("server starts");
    let ids: Vec<u64> = (0..10).map(|i| submit(&server, &litmus_spec(i))).collect();
    server.wait_idle();

    let mut twins: HashMap<String, Result<String, &'static str>> = HashMap::new();
    for id in ids {
        let rec = server.status(id).expect("job exists");
        assert_eq!(rec.state, JobState::Done, "job {id}: {:?}", rec.error);
        assert_eq!(rec.attempts, 1, "job {id} recovered on its first retry");
        let twin = twins
            .entry(rec.spec_json.clone())
            .or_insert_with(|| direct_twin(&rec.spec_json));
        let got = rec.summary.expect("done has summary").to_json();
        assert_eq!(&got, twin.as_ref().expect("twin runs clean"), "job {id}");
    }
    assert_eq!(server.counts().quarantined, 0);
    server.shutdown().expect("clean shutdown");
}

/// A crash after a park: the job's first attempt parks, then panics on
/// the slice that goes on from its boundary, which drops the live
/// machine. The crash is journaled `Retried`, the retry rebuilds the
/// journaled boundary from the spec and replays to it, and the result
/// equals a direct run.
#[test]
fn a_crash_after_a_park_resumes_from_the_journaled_boundary() {
    let dir = std::env::temp_dir().join(format!("rcc-supervise-parked-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("temp dir");
    let journal = dir.join("parked.rccj");
    let server = Server::start(ServerConfig {
        workers: 1,
        quantum: 2_000,
        max_attempts: 3,
        backoff_ms: 1,
        journal: Some(journal.clone()),
        faults: Some(ServiceFaultSpec {
            seed: 4,
            parked_panic_jobs: StrideRule {
                stride: 1,
                residue: 0,
            },
            ..ServiceFaultSpec::default()
        }),
        ..ServerConfig::default()
    })
    .expect("server starts");
    let id = submit(
        &server,
        r#"{"version": 1, "protocol": "rcc", "workload": {"kind": "bench", "name": "dlb", "scale": "quick", "seed": 3}}"#,
    );
    let rec = server.wait(id).expect("job exists");
    assert_eq!(rec.state, JobState::Done, "error: {:?}", rec.error);
    assert_eq!(rec.attempts, 1, "one crash, one retry");
    let got = rec.summary.expect("done has summary").to_json();
    let twin = direct_twin(&rec.spec_json).expect("twin runs clean");
    assert_eq!(got, twin);
    server.shutdown().expect("clean shutdown");

    let bytes = std::fs::read(&journal).expect("journal");
    let records = replay_bytes(&bytes).expect("journal replays").records;
    let parked_at = |r: &Record| match r {
        Record::Parked { cycle, .. } => Some(*cycle),
        _ => None,
    };
    let crash = records
        .iter()
        .position(|r| matches!(r, Record::Retried { attempts: 1, .. }))
        .expect("the crash is journaled");
    let before = records[..crash]
        .iter()
        .rev()
        .find_map(parked_at)
        .expect("the job parked before it crashed");
    let after = records[crash..]
        .iter()
        .find_map(parked_at)
        .expect("the retry parks again");
    // A retry that started over would park first at the boundary the
    // job had already reached.
    assert!(
        after > before,
        "the retry went on from cycle {before}, so its next boundary is past it, got {after}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// A wedged slice trips the wall-clock watchdog: the worker is
/// abandoned and replaced, the job quarantines with a typed `hang`
/// error carrying the wedge dump, and the replacement worker keeps
/// serving new jobs.
#[test]
fn watchdog_abandons_wedged_workers_and_replaces_them() {
    let server = Server::start(ServerConfig {
        workers: 1,
        max_attempts: 2,
        backoff_ms: 1,
        wedge_timeout_ms: 50,
        faults: Some(ServiceFaultSpec {
            seed: 3,
            // Only job 0 wedges.
            wedge_jobs: StrideRule {
                stride: 1 << 32,
                residue: 0,
            },
            ..ServiceFaultSpec::default()
        }),
        ..ServerConfig::default()
    })
    .expect("server starts");
    let wedged = submit(&server, &litmus_spec(0));
    assert_eq!(wedged, 0);
    let rec = server.wait(wedged).expect("job exists");
    assert_eq!(rec.state, JobState::Quarantined);
    assert_eq!(rec.attempts, 2, "each attempt wedged and was abandoned");
    let err = rec.error.expect("quarantined job carries its error");
    assert_eq!(err.kind, "hang");
    let dump = err.hang_dump.expect("watchdog attaches its dump");
    assert!(dump.contains("\"kind\": \"wedge\""), "dump: {dump}");
    assert!(dump.contains("waited_ms"), "dump: {dump}");

    // The replacement worker is alive: fresh jobs still complete.
    let after = submit(&server, &litmus_spec(1));
    let rec = server.wait(after).expect("job exists");
    assert_eq!(rec.state, JobState::Done, "replacement worker serves");
    server.shutdown().expect("clean shutdown");
}

/// Bounded admission: past `max_queue` the submit gets a typed
/// overloaded reply with a retry-after hint; past `shed_queue`,
/// priority-3 (batch) jobs are shed first; a duplicate dedup-keyed
/// submit is still answered idempotently while overloaded.
#[test]
fn overload_replies_are_typed_and_priority_3_sheds_first() {
    let server = Server::start(ServerConfig {
        workers: 1,
        max_queue: 4,
        shed_queue: 3,
        // The lone worker wedges on its first job and there is no
        // watchdog, so the queue depth is fully deterministic.
        wedge_timeout_ms: 0,
        faults: Some(ServiceFaultSpec {
            seed: 4,
            wedge_jobs: StrideRule {
                stride: 1 << 32,
                residue: 0,
            },
            ..ServiceFaultSpec::default()
        }),
        ..ServerConfig::default()
    })
    .expect("server starts");
    let plug = r#"{"version": 1, "protocol": "rcc", "workload": {"kind": "litmus", "name": "mp", "seed": 3}, "dedup_key": "plug"}"#.to_string();
    let plug_id = submit(&server, &plug);
    // Wait until the wedged job is running (off the queue).
    let deadline = Instant::now() + Duration::from_secs(10);
    while server.counts().running == 0 {
        assert!(Instant::now() < deadline, "plug job never started");
        std::thread::sleep(Duration::from_millis(2));
    }

    // Fill the queue to shed_queue with priority-0 jobs...
    for i in 0..3 {
        submit(&server, &litmus_spec(i));
    }
    // ...now priority 3 is shed, priority 0 still admitted.
    let batch = r#"{"version": 1, "protocol": "rcc", "workload": {"kind": "litmus", "name": "sb", "seed": 3}, "options": {"priority": 3}}"#;
    match server.submit_json(batch) {
        Submission::Overloaded {
            queued,
            retry_after_ms,
            shed,
        } => {
            assert!(shed, "priority 3 is shed before the hard bound");
            assert_eq!(queued, 3);
            assert!(retry_after_ms >= 100);
        }
        other => panic!("batch job not shed: {other:?}"),
    }
    submit(&server, &litmus_spec(3));

    // The hard bound: queue is at max_queue, every priority is refused.
    match server.submit_json(&litmus_spec(4)) {
        Submission::Overloaded {
            queued,
            retry_after_ms,
            shed,
        } => {
            assert!(!shed, "past max_queue is overload, not shedding");
            assert_eq!(queued, 4);
            assert!(retry_after_ms >= 100);
        }
        other => panic!("overload not typed: {other:?}"),
    }
    // Idempotent resubmission is not new load: still answered.
    assert_eq!(
        server.submit_json(&plug),
        Submission::Accepted {
            id: plug_id,
            duplicate: true
        }
    );
    server.request_shutdown();
    let _ = server.shutdown();
}

/// The flaky-disk chaos profile: typed IO errors, torn writes, and
/// skipped fsyncs on the durable path never corrupt in-memory results —
/// every accepted job still terminates with the correct outcome, and
/// the faults surface only as typed rejections or counted journal
/// errors.
#[test]
fn flaky_disk_degrades_durability_never_correctness() {
    let dir = std::env::temp_dir().join(format!("rcc-flaky-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("temp dir");
    let server = Server::start(ServerConfig {
        workers: 2,
        journal: Some(dir.join("flaky.rccj")),
        fsync: false,
        faults: Some(ServiceFaultSpec::flaky_disk(0x5eed)),
        ..ServerConfig::default()
    })
    .expect("server starts");

    let mut accepted: Vec<u64> = Vec::new();
    let mut journal_rejections = 0usize;
    for i in 0..80 {
        match server.submit_json(&litmus_spec(i)) {
            Submission::Accepted { id, .. } => accepted.push(id),
            Submission::Rejected { kind, .. } => {
                assert_eq!(kind, "journal", "admission fails closed, typed");
                journal_rejections += 1;
            }
            other => panic!("unexpected reply: {other:?}"),
        }
    }
    server.wait_idle();

    let mut twins: HashMap<String, Result<String, &'static str>> = HashMap::new();
    for id in &accepted {
        let rec = server.status(*id).expect("job exists");
        assert_eq!(rec.state, JobState::Done, "job {id}: {:?}", rec.error);
        let twin = twins
            .entry(rec.spec_json.clone())
            .or_insert_with(|| direct_twin(&rec.spec_json));
        let got = rec.summary.expect("done has summary").to_json();
        assert_eq!(&got, twin.as_ref().expect("twin runs clean"), "job {id}");
    }
    let stats = server.stats();
    assert!(
        journal_rejections + stats.journal_errors as usize > 0,
        "the flaky-disk profile must actually fire"
    );
    assert!(!stats.killed);
    server.shutdown().expect("drain survives a flaky disk");
    let _ = std::fs::remove_dir_all(&dir);
}
