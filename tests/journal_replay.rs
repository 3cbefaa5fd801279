//! Tier-1 slice of the rcc-serve recovery suite: preempting jobs on
//! three protocols run through a `Server` with an fsync'd journal, the
//! service dies at a journal kill point mid-run (a torn frame, then
//! every later durable write dropped, as `kill -9` leaves the disk), and
//! a restart on the same journal finishes every job with the results of
//! a direct `try_simulate`. Parked jobs come back from `Parked` records:
//! the checkpoint is rebuilt from the submitted spec and replayed to the
//! journaled digest. A crash-looping job killed between a crash and its
//! retry comes back with the attempt the crash consumed. The 300-job
//! soak lives in rcc-serve's `recovery` suite.

use rcc_chaos::service::{ServiceFaultSpec, StrideRule};
use rcc_serve::journal::{replay_bytes, Record};
use rcc_serve::spec::JobSpec;
use rcc_serve::store::{JobState, ResultSummary};
use rcc_serve::{Server, ServerConfig, Submission};
use std::path::Path;
use std::time::{Duration, Instant};

const PROTOCOLS: [&str; 3] = ["mesi", "tcs", "rcc"];
/// Record index the first process dies at: past every job's first
/// boundary, well short of the batch's end.
const KILL_AT: u64 = 14;

fn spec(protocol: &str) -> String {
    format!(
        r#"{{"version": 1, "protocol": "{protocol}", "workload": {{"kind": "bench", "name": "dlb", "scale": "quick", "seed": 3}}, "dedup_key": "replay-{protocol}"}}"#
    )
}

fn config(journal: &Path, faults: Option<ServiceFaultSpec>) -> ServerConfig {
    ServerConfig {
        workers: 1,
        quantum: 2_000,
        journal: Some(journal.to_path_buf()),
        fsync: true,
        faults,
        ..ServerConfig::default()
    }
}

/// Submits the batch (idempotently, by dedup key) in protocol order.
fn submit_all(server: &Server) {
    for (i, protocol) in PROTOCOLS.iter().enumerate() {
        match server.submit_json(&spec(protocol)) {
            Submission::Accepted { id, .. } => assert_eq!(id, i as u64),
            other => panic!("{protocol} not accepted: {other:?}"),
        }
    }
}

#[test]
fn a_killed_service_replays_its_journal_to_the_direct_results() {
    let dir = std::env::temp_dir().join(format!("rcc-journal-replay-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("temp dir");
    let journal = dir.join("replay.rccj");

    let faults = ServiceFaultSpec {
        kill_at: vec![KILL_AT],
        ..ServiceFaultSpec::default()
    };
    let server = Server::start(config(&journal, Some(faults))).expect("start");
    submit_all(&server);
    let deadline = Instant::now() + Duration::from_secs(60);
    while !server.stats().killed {
        assert!(Instant::now() < deadline, "the kill point never fired");
        std::thread::sleep(Duration::from_millis(2));
    }
    let _ = server.shutdown();

    // What the dead process left: the batch submitted, jobs parked by
    // reference, nothing finished.
    let durable = replay_bytes(&std::fs::read(&journal).expect("journal")).expect("replays");
    assert!(durable.torn_tail, "the kill tears the last frame");
    assert_eq!(durable.records.len() as u64, KILL_AT);
    assert!(durable
        .records
        .iter()
        .any(|r| matches!(r, Record::Parked { .. })));
    assert!(!durable.records.iter().any(Record::is_terminal));

    let server = Server::start(config(&journal, None)).expect("recovery");
    submit_all(&server);
    for (i, protocol) in PROTOCOLS.iter().enumerate() {
        let rec = server.wait(i as u64).expect("job recovered");
        assert_eq!(rec.state, JobState::Done, "{protocol}: {:?}", rec.error);
        assert!(rec.preemptions > 0, "{protocol}: the quantum must preempt");
        let (kind, cfg, wl, opts) = JobSpec::parse(&spec(protocol)).expect("spec").inputs();
        let direct = rcc_sim::try_simulate(kind, &cfg, &wl, &opts).expect("direct run");
        assert_eq!(
            rec.summary.expect("summary").to_json(),
            ResultSummary::from_metrics(&direct).to_json(),
            "{protocol}: the recovered result is the direct run's"
        );
    }
    server.shutdown().expect("drain");
    let _ = std::fs::remove_dir_all(&dir);
}

fn durable_records(journal: &Path) -> Vec<Record> {
    replay_bytes(&std::fs::read(journal).expect("journal"))
        .expect("replays")
        .records
}

/// A restart between a crash and its retry keeps the attempt the crash
/// consumed: a job that panics on every attempt runs at most
/// `max_attempts` of them across the kill, and the restarted service
/// goes on with the attempt the killed one was starting.
#[test]
fn a_restart_between_a_crash_and_its_retry_keeps_the_consumed_attempt() {
    const MAX_ATTEMPTS: u32 = 2;
    let dir = std::env::temp_dir().join(format!("rcc-crash-replay-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("temp dir");
    let litmus = r#"{"version": 1, "protocol": "rcc", "workload": {"kind": "litmus", "name": "mp", "seed": 3}}"#;
    let config = |journal: &Path, kill_at: Vec<u64>| ServerConfig {
        workers: 1,
        max_attempts: MAX_ATTEMPTS,
        backoff_ms: 1,
        journal: Some(journal.to_path_buf()),
        fsync: true,
        faults: Some(ServiceFaultSpec {
            // Every attempt of every job panics.
            panic_jobs: StrideRule {
                stride: 1,
                residue: 0,
            },
            kill_at,
            ..ServiceFaultSpec::default()
        }),
        ..ServerConfig::default()
    };
    let run = |journal: &Path, kill_at: Vec<u64>, submit: bool| {
        let server = Server::start(config(journal, kill_at)).expect("start");
        if submit {
            assert!(matches!(
                server.submit_json(litmus),
                Submission::Accepted { id: 0, .. }
            ));
        }
        let rec = server.wait(0).expect("job exists");
        let killed = server.stats().killed;
        let _ = server.shutdown();
        (rec, killed)
    };

    // An uninterrupted twin names the record the kill tears: the retry's
    // `Started`, the first record after the crash was taken.
    let twin = dir.join("twin.rccj");
    let (rec, _) = run(&twin, Vec::new(), true);
    assert_eq!(rec.state, JobState::Quarantined);
    assert_eq!(rec.attempts, MAX_ATTEMPTS);
    let twin = durable_records(&twin);
    let kill = twin
        .iter()
        .position(|r| matches!(r, Record::Started { attempt: 1, .. }))
        .expect("the crash is retried");
    let Record::Started { attempt: live, .. } = twin[kill] else {
        unreachable!()
    };

    // Die there, then restart on the same journal with the same faults.
    let journal = dir.join("killed.rccj");
    let (_, killed) = run(&journal, vec![kill as u64], true);
    assert!(killed, "the kill point fired");
    assert_eq!(durable_records(&journal).len(), kill);
    let (rec, _) = run(&journal, Vec::new(), false);
    assert_eq!(rec.state, JobState::Quarantined);
    assert_eq!(rec.attempts, MAX_ATTEMPTS);

    let records = durable_records(&journal);
    let Record::Started {
        attempt: recovered, ..
    } = records[kill]
    else {
        panic!("the restart begins with a Started record: {records:?}");
    };
    assert_eq!(
        recovered, live,
        "the restart goes on with the attempt the killed service was starting: {records:?}"
    );
    let started = records
        .iter()
        .filter(|r| matches!(r, Record::Started { .. }))
        .count();
    assert!(
        started <= MAX_ATTEMPTS as usize,
        "{started} attempts ran, the budget is {MAX_ATTEMPTS}: {records:?}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}
