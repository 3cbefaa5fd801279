//! Preemption fidelity: a long job chopped into many checkpoint quanta
//! must be indistinguishable — in its persisted result — from the same
//! spec run uninterrupted, and a corrupted mid-quantum snapshot must
//! fail that job typed, without wedging the worker that hits it.

use rcc_serve::spec::JobSpec;
use rcc_serve::store::{JobState, ResultSummary};
use rcc_serve::{Server, ServerConfig, Submission};

const LONG_JOB: &str = r#"{"version": 1, "protocol": "rcc",
    "workload": {"kind": "bench", "name": "hsp", "scale": "standard", "seed": 7},
    "options": {"sample_every": 4096}}"#;

const SHORT_JOB: &str = r#"{"version": 1, "protocol": "rcc",
    "workload": {"kind": "litmus", "name": "mp", "seed": 3}}"#;

fn submit(server: &Server, spec: &str) -> u64 {
    match server.submit_json(spec) {
        Submission::Accepted { id, .. } => id,
        other => panic!("not accepted: {other:?}"),
    }
}

/// The same long job with trace recording on: it is preempted like any
/// other job, and its recording must be the uninterrupted run's.
const LONG_TRACE_JOB: &str = r#"{"version": 1, "protocol": "rcc",
    "workload": {"kind": "bench", "name": "hsp", "scale": "standard", "seed": 7},
    "options": {"sample_every": 4096, "record_trace": true}}"#;

/// The acceptance-criteria test: N-times-preempted long run ==
/// uninterrupted run, byte for byte and digest for digest — for a trace
/// job, its recording included.
#[test]
fn preempted_long_job_matches_uninterrupted_twin() {
    for spec_json in [LONG_JOB, LONG_TRACE_JOB] {
        let spec = JobSpec::parse(spec_json).expect("valid spec");
        // Trace recording needs a results dir to write into.
        let dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("preempt-twin");
        let _ = std::fs::remove_dir_all(&dir);
        let server = Server::start(ServerConfig {
            workers: 1,
            quantum: 20_000,
            results_dir: spec.record_trace.then(|| dir.clone()),
            ..ServerConfig::default()
        })
        .expect("server starts");
        let long = submit(&server, spec_json);
        // Short jobs behind it in the queue force real interleaving: every
        // time the long job parks, a short one runs on the same worker.
        let shorts: Vec<u64> = (0..4).map(|_| submit(&server, SHORT_JOB)).collect();

        let rec = server.wait(long).expect("job exists");
        assert_eq!(rec.state, JobState::Done, "error: {:?}", rec.error);
        assert!(
            rec.preemptions >= 3,
            "hsp-standard (~150k cycles) under a 20k quantum must park repeatedly, got {}",
            rec.preemptions
        );
        assert_eq!(rec.slices, rec.preemptions + 1);

        // Progress events are monotone in cycle and sourced from the
        // sampler the spec armed.
        let events = server.progress(long).expect("job exists");
        assert_eq!(events.len() as u64, rec.preemptions);
        for pair in events.windows(2) {
            assert!(pair[0].cycle < pair[1].cycle, "progress is monotone");
        }
        assert!(
            events.last().expect("nonempty").samples > 0,
            "sample_every was set, so the sampler fed the progress stream"
        );

        // The direct twin: same resolved inputs, plain driver call.
        let (kind, cfg, wl, mut opts) = spec.inputs();
        let direct_trace = dir.join("direct.rcct");
        if spec.record_trace {
            opts.record_trace = Some(direct_trace.display().to_string());
        }
        let direct = rcc_sim::try_simulate(kind, &cfg, &wl, &opts).expect("direct run");
        let twin = ResultSummary::from_metrics(&direct);
        let got = rec.summary.expect("done job has a summary");
        assert_eq!(
            got.to_json(),
            twin.to_json(),
            "preempted result must be byte-identical to the uninterrupted twin"
        );
        assert_eq!(got.metrics_digest, twin.metrics_digest);
        if spec.record_trace {
            let served = std::fs::read(dir.join(format!("trace-{long}.rcct"))).expect("job trace");
            let direct = std::fs::read(&direct_trace).expect("direct trace");
            assert!(
                served == direct,
                "a preempted trace job must record the uninterrupted run's bytes"
            );
        }

        for id in shorts {
            let rec = server.wait(id).expect("job exists");
            assert_eq!(rec.state, JobState::Done);
        }
        server.shutdown().expect("clean shutdown");
    }
}

/// A corrupted mid-quantum snapshot fails the job with a typed
/// `checkpoint` error; the worker survives and keeps serving.
#[test]
fn corrupted_snapshot_fails_typed_and_worker_survives() {
    let server = Server::start(ServerConfig {
        workers: 1,
        quantum: 20_000,
        ..ServerConfig::default()
    })
    .expect("server starts");
    let victim = submit(&server, LONG_JOB);
    assert!(
        server.corrupt_checkpoint(victim),
        "job must still be live when the fault is injected"
    );
    let rec = server.wait(victim).expect("job exists");
    assert_eq!(rec.state, JobState::Failed);
    let err = rec.error.expect("failed job carries its error");
    assert_eq!(err.kind, "checkpoint");
    assert!(err.detail.contains("digest"), "names the mismatch: {err:?}");

    // Same worker, next job: alive and correct.
    let after = submit(&server, SHORT_JOB);
    let rec = server.wait(after).expect("job exists");
    assert_eq!(rec.state, JobState::Done, "worker survived the corruption");
    server.shutdown().expect("clean shutdown");
}

/// Preemption with persistence: the artifact on disk for a preempted
/// job validates against the schema and embeds the identical summary.
#[test]
fn preempted_artifact_persists_and_validates() {
    let dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("preempt-store");
    let _ = std::fs::remove_dir_all(&dir);
    let server = Server::start(ServerConfig {
        workers: 1,
        quantum: 20_000,
        results_dir: Some(dir.clone()),
        ..ServerConfig::default()
    })
    .expect("server starts");
    let id = submit(&server, LONG_JOB);
    let rec = server.wait(id).expect("job exists");
    assert_eq!(rec.state, JobState::Done);
    server.shutdown().expect("clean shutdown");

    let artifact = std::fs::read_to_string(dir.join(format!("job-{id}.json"))).expect("artifact");
    rcc_bench::report::check_schema(
        "persisted job",
        rcc_bench::report::schemas::JOB_RESULT,
        &artifact,
    )
    .expect("artifact validates");
    let summary = rec.summary.expect("summary");
    assert!(
        artifact.contains(&format!("{:016x}", summary.metrics_digest)),
        "artifact embeds the metrics digest"
    );
    let manifest = std::fs::read_to_string(dir.join("manifest.json")).expect("manifest");
    rcc_bench::report::check_schema(
        "manifest",
        rcc_bench::report::schemas::JOB_MANIFEST,
        &manifest,
    )
    .expect("manifest validates");
}
