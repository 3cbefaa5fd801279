//! The journal-prefix property: the durable state [`apply`] rebuilds
//! from any prefix of the journal equals the live service's durable
//! state right after it appended that prefix's last record. Recovery
//! applies the same records through the same function, so a restart at
//! any record boundary resumes exactly where the live service was.

use super::*;
use crate::journal::replay_bytes;
use rcc_chaos::service::StrideRule;

/// A service's durable state: every job's record (the Running/Queued
/// scheduling flip folded to Queued, which only the live path knows)
/// and parked boundary, plus the dedup map.
#[derive(Debug, Clone, PartialEq)]
pub(super) struct Durable {
    jobs: Vec<(JobRecord, Option<(u64, u64)>)>,
    dedup: BTreeMap<String, u64>,
}

pub(super) fn durable(st: &State) -> Durable {
    Durable {
        jobs: st
            .jobs
            .iter()
            .map(|j| {
                let mut record = j.record.clone();
                if !record.state.terminal() {
                    record.state = JobState::Queued;
                }
                (record, j.parked)
            })
            .collect(),
        dedup: st.dedup.clone(),
    }
}

/// A state with nothing applied yet, as [`Server::start`] builds it.
fn empty_state() -> State {
    State {
        jobs: Vec::new(),
        sched: Sched::new(4),
        deferred: Vec::new(),
        dedup: BTreeMap::new(),
        workers: Vec::new(),
        journal: None,
        journal_errors: 0,
        store_errors: 0,
        shutdown: false,
        addr: None,
        committed: Vec::new(),
    }
}

/// Job `i` of the mix: litmus tests, quick benchmarks that the quantum
/// preempts, a deadlocking `hang` job, and dedup keys on every other job.
fn spec(i: usize) -> String {
    const LITMUS: &[&str] = &["mp", "sb", "lb", "wrc", "corr"];
    let workload = match i {
        4 | 9 => r#"{"kind": "bench", "name": "dlb", "scale": "quick", "seed": 3}"#.to_string(),
        7 => r#"{"kind": "hang"}"#.to_string(),
        _ => format!(
            r#"{{"kind": "litmus", "name": "{}", "seed": 3}}"#,
            LITMUS[i % LITMUS.len()]
        ),
    };
    let dedup = if i.is_multiple_of(2) {
        format!(r#", "dedup_key": "prefix-{i}""#)
    } else {
        String::new()
    };
    format!(
        r#"{{"version": 1, "protocol": "rcc", "workload": {workload}, "options": {{"priority": {}}}{dedup}}}"#,
        i % 4
    )
}

#[test]
fn every_journal_prefix_applies_to_the_live_durable_state() {
    let dir = std::env::temp_dir().join(format!("rcc-serve-prefix-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join("prefix.rccj");
    let server = Server::start(ServerConfig {
        workers: 2,
        quantum: 2_000,
        journal: Some(path.clone()),
        fsync: false,
        max_attempts: 3,
        backoff_ms: 2,
        faults: Some(ServiceFaultSpec {
            seed: 0x5eed,
            // Jobs 3 and 10 panic on every attempt; 1, 6 and 11 once.
            panic_jobs: StrideRule {
                stride: 7,
                residue: 3,
            },
            transient_panic_jobs: StrideRule {
                stride: 5,
                residue: 1,
            },
            ..ServiceFaultSpec::default()
        }),
        ..ServerConfig::default()
    })
    .expect("server starts");
    for i in 0..12 {
        let first = server.submit_json(&spec(i));
        assert!(matches!(first, Submission::Accepted { .. }), "{first:?}");
        // A dedup-keyed resubmit is answered from the dedup map and
        // journals nothing.
        if i.is_multiple_of(2) {
            let again = server.submit_json(&spec(i));
            assert!(
                matches!(
                    again,
                    Submission::Accepted {
                        duplicate: true,
                        ..
                    }
                ),
                "{again:?}"
            );
        }
    }
    server.wait_idle();
    server.shutdown().expect("drain");
    let committed = std::mem::take(&mut server.inner.state.lock().unwrap().committed);

    let journal = replay_bytes(&std::fs::read(&path).expect("journal")).expect("replays");
    let records: Vec<&Record> = committed.iter().map(|(rec, _)| rec).collect();
    assert_eq!(
        journal.records.iter().collect::<Vec<_>>(),
        records,
        "the journal holds every committed record, in commit order"
    );
    for kind in [
        "Parked",
        "Retried",
        "Quarantined",
        "Failed",
        "Finished",
        "Drained",
    ] {
        assert!(
            records.iter().any(|r| format!("{r:?}").starts_with(kind)),
            "the run journals no {kind} record"
        );
    }
    let mut st = empty_state();
    for (n, (rec, live)) in committed.iter().enumerate() {
        apply(&mut st, rec).expect("a journaled record applies");
        assert_eq!(
            &durable(&st),
            live,
            "the first {} records ({rec:?} last) replay to the live state",
            n + 1
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}
