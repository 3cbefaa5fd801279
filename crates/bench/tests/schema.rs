//! The report contracts, end to end: real runs produce artifacts the
//! in-repo schemas accept, and the schemas still have teeth.
//!
//! The unit tests in `report.rs` cover the builders against hand-built
//! sample reports; these tests exercise the actual producers — an
//! observed litmus run and an observed benchmark run — so schema drift
//! in either the producers or `schemas/*.json` fails here first.

use rcc_bench::report::{check_schema, schemas, ProtocolRow, SchedSummary, SimReport};
use rcc_common::ids::WorkgroupId;
use rcc_common::GpuConfig;
use rcc_core::ProtocolKind;
use rcc_gpu::{MemOp, WarpProgram};
use rcc_obs::ObsConfig;
use rcc_obs::SimProfile;
use rcc_sim::error::SimError;
use rcc_sim::litmus::run_litmus_observed;
use rcc_sim::runner::{simulate, try_simulate, SimOptions};
use rcc_workloads::{litmus, Benchmark, Scale, Sharing, Workload};

/// One observed litmus run: its exported Chrome trace and sampled
/// series validate against the schemas shipped in `schemas/`.
#[test]
fn observed_litmus_artifacts_match_their_schemas() {
    let cfg = GpuConfig::small();
    let suite = litmus::all(cfg.num_cores, 3);
    let lit = suite.iter().find(|l| l.name == "mp").expect("mp in suite");
    let (out, report) = run_litmus_observed(
        ProtocolKind::RccSc,
        &cfg,
        lit,
        None,
        Some(&ObsConfig::full(32)),
    )
    .expect("litmus run succeeds");
    assert!(!out.forbidden);
    let report = report.expect("observer was armed");
    check_schema(
        "litmus trace",
        schemas::TRACE,
        &report.trace.to_chrome_json(),
    )
    .expect("trace validates");
    check_schema(
        "litmus series",
        schemas::TIMESERIES,
        &report.series.to_json(),
    )
    .expect("series validates");
}

/// One observed benchmark run, exactly as `--trace-out`/`--series-out`
/// would export it.
#[test]
fn observed_benchmark_artifacts_match_their_schemas() {
    let cfg = GpuConfig::small();
    let wl = Benchmark::Dlb.generate(&cfg, &Scale::quick(), 5);
    let m = simulate(ProtocolKind::RccSc, &cfg, &wl, &SimOptions::observed(64));
    let obs = m.obs.as_ref().expect("observer was armed");
    check_schema("bench trace", schemas::TRACE, &obs.trace.to_chrome_json())
        .expect("trace validates");
    check_schema("bench series", schemas::TIMESERIES, &obs.series.to_json())
        .expect("series validates");
}

/// The schemas reject structurally broken documents — they are real
/// contracts, not rubber stamps.
#[test]
fn schemas_reject_malformed_documents() {
    // A trace event with an unknown phase type.
    let bad_trace = r#"{"traceEvents": [{"ph": "X", "pid": 1}]}"#;
    assert!(check_schema("trace", schemas::TRACE, bad_trace).is_err());
    // A trace event missing the required pid.
    let no_pid = r#"{"traceEvents": [{"ph": "i"}]}"#;
    assert!(check_schema("trace", schemas::TRACE, no_pid).is_err());
    // A series dump whose column kind is not delta/gauge.
    let bad_series =
        r#"{"schema": [{"name": "x", "kind": "rate"}], "rows": 0, "cycles": [], "columns": []}"#;
    assert!(check_schema("series", schemas::TIMESERIES, bad_series).is_err());
    // A sim report with the wrong type for a required field.
    let report = SimReport {
        baseline_wall_s: 2.0,
        optimized_wall_s: 1.0,
        speedup: 2.0,
        jobs: 4,
        runs: 1,
        deterministic: true,
        protocols: vec![ProtocolRow {
            protocol: "RCC-SC".to_string(),
            sim_cycles: 100,
            sim_cycles_per_sec: 50.0,
            skipped_cycles: 10,
            skip_ratio: 0.1,
        }],
        scheduler: SchedSummary {
            events_posted: 1000,
            events_cancelled: 50,
            cancel_ratio: 0.05,
            queue_depth_p50_mean: 12.0,
            queue_depth_max: 40,
        },
        self_profile: SimProfile::new(),
    };
    let good = report.to_json();
    assert!(check_schema("sim", schemas::BENCH_SIM, &good).is_ok());
    let drifted = good.replace("\"deterministic\": true", "\"deterministic\": \"yes\"");
    assert!(check_schema("sim", schemas::BENCH_SIM, &drifted).is_err());
}

/// A real watchdog-produced hang-dump and a real checkpoint manifest
/// validate against their schemas, exactly as the driver writes them.
#[test]
fn crash_artifacts_match_their_schemas() {
    let mut cfg = GpuConfig::small();
    cfg.watchdog_cycles = 10_000;
    // One warp waits for a barrier epoch nobody ever reaches.
    let wl = Workload {
        name: "schema-deadlock",
        category: Sharing::IntraWorkgroup,
        programs: vec![vec![WarpProgram::new(
            WorkgroupId(0),
            vec![MemOp::LocalWait { epoch: 1 }],
        )]],
        warps_per_workgroup: 2,
    };
    let ck_path = std::path::Path::new(env!("CARGO_TARGET_TMPDIR"))
        .join("schema-hang.ck")
        .to_str()
        .expect("utf-8 tmp path")
        .to_string();
    let mut opts = SimOptions::fast();
    opts.checkpoint = Some(ck_path.clone());
    let err = try_simulate(ProtocolKind::RccSc, &cfg, &wl, &opts).expect_err("deadlock");
    let SimError::Deadlock(dump) = err else {
        panic!("expected Deadlock, got: {err}");
    };
    check_schema("hang-dump", schemas::HANGDUMP, &dump.to_json()).expect("hang-dump validates");
    let manifest = std::fs::read_to_string(format!("{ck_path}.hang.manifest.json"))
        .expect("auto-checkpoint manifest written");
    check_schema("manifest", schemas::CHECKPOINT_MANIFEST, &manifest).expect("manifest validates");
}

/// The crash-artifact schemas reject malformed documents too.
#[test]
fn crash_schemas_reject_malformed_documents() {
    // Hang-dump with no components (a hung machine always has some) and
    // missing the suspects list.
    let bad_dump = r#"{"protocol": "RCC-SC", "workload": "x", "cycle": 5, "last_progress": 1,
        "watchdog_cycles": 4, "mem_pending": 0, "rollover": "Idle",
        "state_digest": "00", "checkpoint": null, "components": [], "blocked_warps": []}"#;
    assert!(check_schema("hang-dump", schemas::HANGDUMP, bad_dump).is_err());
    // Manifest whose state digest is a bare integer instead of hex text.
    let bad_manifest = r#"{"version": 1, "protocol": "RCC-SC", "workload": "x", "cycle": 5,
        "state_digest": 7, "fast_forward": true, "sanitize": false, "max_cycles": 10,
        "chaos_profile": null, "chaos_seed": null, "cores": 4, "l2_partitions": 2}"#;
    assert!(check_schema("manifest", schemas::CHECKPOINT_MANIFEST, bad_manifest).is_err());
}

/// A real recorded trace's manifest sidecar — written by the runner
/// next to every `.rcct` — and the committed regression-trace manifests
/// all validate against `schemas/trace_manifest.schema.json`.
#[test]
fn trace_manifests_match_their_schema() {
    let cfg = GpuConfig::small();
    let wl = Benchmark::Dlb.generate(&cfg, &Scale::quick(), 5);
    let path = std::path::Path::new(env!("CARGO_TARGET_TMPDIR"))
        .join("schema-trace.rcct")
        .to_str()
        .expect("utf-8 tmp path")
        .to_string();
    let mut opts = SimOptions::fast();
    opts.record_trace = Some(path.clone());
    simulate(ProtocolKind::RccSc, &cfg, &wl, &opts);
    let manifest =
        std::fs::read_to_string(format!("{path}.manifest.json")).expect("sidecar written");
    check_schema("trace manifest", schemas::TRACE_MANIFEST, &manifest)
        .expect("recorded manifest validates");
    for name in ["mp", "mutex", "interval", "barrier"] {
        let committed = format!(
            "{}/../../tests/traces/{name}.rcct.manifest.json",
            env!("CARGO_MANIFEST_DIR")
        );
        let text = std::fs::read_to_string(&committed).expect("committed manifest present");
        check_schema("committed trace manifest", schemas::TRACE_MANIFEST, &text)
            .unwrap_or_else(|e| panic!("{name}: {e}"));
        // The sidecar must describe the trace next to it.
        let trace = rcc_trace::Trace::load(&committed.replace(".manifest.json", ""))
            .expect("committed binary loads");
        assert_eq!(text, trace.manifest_json(), "{name}: manifest drifted");
    }
}

/// The trace-manifest schema rejects malformed documents.
#[test]
fn trace_manifest_schema_rejects_malformed_documents() {
    // Missing the required op counts.
    let missing = r#"{"format": "RCCT", "version": 1, "name": "x", "category": "inter",
        "warps_per_workgroup": 1, "source_protocol": null, "source_cycles": null,
        "cores": 1, "warps": 1}"#;
    assert!(check_schema("trace manifest", schemas::TRACE_MANIFEST, missing).is_err());
    // Version with the wrong type.
    let bad_version = r#"{"format": "RCCT", "version": "one", "name": "x", "category": "inter",
        "warps_per_workgroup": 1, "source_protocol": null, "source_cycles": null,
        "cores": 1, "warps": 1, "ops": 0, "memory_ops": 0, "annotated_ops": 0}"#;
    assert!(check_schema("trace manifest", schemas::TRACE_MANIFEST, bad_version).is_err());
}

/// The transition matrix `rcc-lint --matrix-out` writes, produced from
/// the real workspace, validates against `schemas/lint.schema.json`.
#[test]
fn lint_matrix_matches_its_schema() {
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .canonicalize()
        .expect("workspace root");
    let out = rcc_lint::run(&rcc_lint::LintConfig {
        root,
        coverage: None,
    })
    .expect("lint runs");
    assert_eq!(out.controllers.len(), 7, "one table per controller file");
    check_schema("lint matrix", schemas::LINT, &out.matrix_json).expect("matrix validates");
}

/// The lint schema still has teeth: wrong version, missing controllers,
/// and a bogus arm status are each rejected.
#[test]
fn lint_schema_rejects_malformed_matrices() {
    let wrong_version = r#"{"version": 2, "generated_by": "rcc-lint", "enums": {}, "controllers": [{"protocol": "rcc", "controller": "l1", "file": "f.rs", "states": [], "tables": []}]}"#;
    assert!(check_schema("wrong version", schemas::LINT, wrong_version).is_err());

    let no_controllers = r#"{"version": 1, "generated_by": "rcc-lint", "enums": {}}"#;
    assert!(check_schema("no controllers", schemas::LINT, no_controllers).is_err());

    let bad_status = r#"{"version": 1, "generated_by": "rcc-lint", "enums": {}, "controllers": [{"protocol": "rcc", "controller": "l1", "file": "f.rs", "states": [], "tables": [{"enum": "ReqPayload", "wildcard": false, "arms": [{"variant": "Gets", "status": "shrugged", "line": 3}]}]}]}"#;
    assert!(check_schema("bad status", schemas::LINT, bad_status).is_err());
}

/// The `rcc-serve` job schemas accept well-formed specs/artifacts and
/// reject the shapes the service must fail closed on.
#[test]
fn job_schemas_accept_and_reject() {
    // A minimal valid submission and a fully-optioned one.
    let minimal = r#"{"version": 1, "protocol": "rcc",
        "workload": {"kind": "litmus", "name": "mp", "seed": 3}}"#;
    check_schema("job minimal", schemas::JOB, minimal).expect("minimal job validates");
    let full = r#"{"version": 1, "protocol": "mesi-wb",
        "workload": {"kind": "bench", "name": "dlb", "scale": "quick", "cores": 4, "seed": 9},
        "options": {"max_cycles": 200000, "fast_forward": true, "sanitize": false,
                    "record_trace": false, "sample_every": 64, "priority": 2,
                    "chaos": {"profile": "light", "seed": 11}}}"#;
    check_schema("job full", schemas::JOB, full).expect("full job validates");

    // Unknown protocol, unknown workload kind, out-of-range priority,
    // chaos missing its seed, and a stray field are each rejected.
    for (label, bad) in [
        (
            "protocol",
            r#"{"version": 1, "protocol": "moesi", "workload": {"kind": "litmus"}}"#,
        ),
        (
            "kind",
            r#"{"version": 1, "protocol": "rcc", "workload": {"kind": "fuzz"}}"#,
        ),
        (
            "priority",
            r#"{"version": 1, "protocol": "rcc", "workload": {"kind": "litmus"},
                "options": {"priority": 7}}"#,
        ),
        (
            "chaos",
            r#"{"version": 1, "protocol": "rcc", "workload": {"kind": "litmus"},
                "options": {"chaos": {"profile": "light"}}}"#,
        ),
        (
            "stray",
            r#"{"version": 1, "protocol": "rcc", "workload": {"kind": "litmus"},
                "turbo": true}"#,
        ),
    ] {
        assert!(
            check_schema(label, schemas::JOB, bad).is_err(),
            "{label} should be rejected"
        );
    }

    // A persisted result artifact for a finished job and a failed one.
    let done = r#"{"version": 1, "job_id": 4, "state": "done",
        "spec": {"protocol": "rcc"},
        "result": {"protocol": "RCC-SC", "workload": "mp", "cycles": 913,
                   "issued": 40, "mem_ops": 12, "sc_violations": 0,
                   "metrics_digest": "00c0ffee00c0ffee"},
        "error": null,
        "service": {"priority": 1, "slices": 3, "preemptions": 2, "attempts": 1}}"#;
    check_schema("job result done", schemas::JOB_RESULT, done).expect("done artifact validates");
    let failed = r#"{"version": 1, "job_id": 7, "state": "failed",
        "spec": {"protocol": "tcw"},
        "result": null,
        "error": {"kind": "deadlock", "detail": "watchdog fired",
                  "hang_dump": {"any": "shape"}},
        "service": {"priority": 0, "slices": 1, "preemptions": 0, "attempts": 2}}"#;
    check_schema("job result failed", schemas::JOB_RESULT, failed)
        .expect("failed artifact validates");
    // Result object missing its digest is rejected.
    let no_digest = r#"{"version": 1, "job_id": 4, "state": "done",
        "spec": {},
        "result": {"protocol": "RCC-SC", "workload": "mp", "cycles": 913,
                   "issued": 40, "mem_ops": 12, "sc_violations": 0},
        "error": null,
        "service": {"priority": 1, "slices": 1, "preemptions": 0, "attempts": 1}}"#;
    assert!(check_schema("no digest", schemas::JOB_RESULT, no_digest).is_err());

    // The manifest indexes artifacts; a bogus state is rejected.
    let manifest = r#"{"version": 1, "jobs": 3, "done": 1, "failed": 1, "quarantined": 1,
        "entries": [{"job_id": 0, "state": "done", "path": "job-0.json"},
                    {"job_id": 1, "state": "failed", "path": "job-1.json"},
                    {"job_id": 2, "state": "quarantined", "path": "job-2.json"}]}"#;
    check_schema("job manifest", schemas::JOB_MANIFEST, manifest).expect("manifest validates");
    let bad_state = r#"{"version": 1, "jobs": 1, "done": 0, "failed": 0, "quarantined": 0,
        "entries": [{"job_id": 0, "state": "queued", "path": "job-0.json"}]}"#;
    assert!(check_schema("bad state", schemas::JOB_MANIFEST, bad_state).is_err());
}
