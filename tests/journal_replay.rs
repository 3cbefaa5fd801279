//! Tier-1 slice of the rcc-serve recovery suite: preempting jobs on
//! three protocols run through a `Server` with an fsync'd journal, the
//! service dies at a journal kill point mid-run (a torn frame, then
//! every later durable write dropped, as `kill -9` leaves the disk), and
//! a restart on the same journal finishes every job with the results of
//! a direct `try_simulate`. Parked jobs come back from `Parked` records:
//! the checkpoint is rebuilt from the submitted spec and replayed to the
//! journaled digest. The 300-job soak lives in rcc-serve's `recovery`
//! suite.

use rcc_chaos::service::ServiceFaultSpec;
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
