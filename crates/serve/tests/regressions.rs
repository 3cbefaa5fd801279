//! Specs that once failed a job: each must run to `Done` through the
//! service, preempted, with the result of the uninterrupted direct run.

use rcc_serve::spec::JobSpec;
use rcc_serve::store::{JobState, ResultSummary};
use rcc_serve::{Server, ServerConfig, Submission};

/// MESI and MESI-WB panicked on `lud`: a store deferred behind the
/// recall of its line was re-dispatched after the recall had evicted the
/// line, with the L2 MSHR file full. The worker retried the panicking job
/// and then quarantined it.
#[test]
fn mesi_lud_standard_16_cores_seed_7_runs_to_done() {
    let server = Server::start(ServerConfig {
        workers: 1,
        quantum: 30_000,
        ..ServerConfig::default()
    })
    .expect("server starts");
    for protocol in ["mesi", "mesi-wb"] {
        let spec = format!(
            r#"{{"version": 1, "protocol": "{protocol}", "workload": {{"kind": "bench",
                "name": "lud", "scale": "standard", "cores": 16, "seed": 7}}}}"#
        );
        let id = match server.submit_json(&spec) {
            Submission::Accepted { id, .. } => id,
            other => panic!("{protocol}: not accepted: {other:?}"),
        };
        let rec = server.wait(id).expect("job exists");
        assert_eq!(rec.state, JobState::Done, "{protocol}: {:?}", rec.error);
        let (kind, cfg, wl, opts) = JobSpec::parse(&spec).expect("valid spec").inputs();
        let direct = rcc_sim::try_simulate(kind, &cfg, &wl, &opts).expect("direct run");
        let served = rec.summary.expect("done job has a summary");
        assert_eq!(
            served.to_json(),
            ResultSummary::from_metrics(&direct).to_json(),
            "{protocol}"
        );
    }
}
