//! Builders for the JSON artifacts the bench binaries export.
//!
//! Serialization is hand-rolled (the workspace carries no registry
//! dependencies) and the shapes are pinned by the schemas committed under
//! `schemas/`: the artifact tests validate every builder's output against
//! its schema, and the binaries re-validate at export time via
//! [`check_schema`], so a drifting field fails in CI rather than in a
//! downstream notebook.

use rcc_obs::json::escape;
use rcc_obs::{schema, SimPhase, SimProfile};
use std::fmt::Write as _;

/// The JSON schemas the exported artifacts are pinned by, embedded at
/// compile time from `schemas/` at the repository root.
pub mod schemas {
    /// Shape of `BENCH_sim.json` (perfsmoke).
    pub const BENCH_SIM: &str = include_str!(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../schemas/bench_sim.schema.json"
    ));
    /// Shape of `BENCH_chaos.json` (chaos sweep).
    pub const BENCH_CHAOS: &str = include_str!(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../schemas/bench_chaos.schema.json"
    ));
    /// Shape of a Chrome-trace export (`--trace-out`, obs smoke).
    pub const TRACE: &str = include_str!(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../schemas/trace.schema.json"
    ));
    /// Shape of a time-series JSON dump (`--series-out`, obs smoke).
    pub const TIMESERIES: &str = include_str!(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../schemas/timeseries.schema.json"
    ));
    /// Shape of a forensic hang-dump (`HangDump::to_json`, written by the
    /// driver when the watchdog fires).
    pub const HANGDUMP: &str = include_str!(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../schemas/hangdump.schema.json"
    ));
    /// Shape of the checkpoint manifest sidecar (`<path>.manifest.json`).
    pub const CHECKPOINT_MANIFEST: &str = include_str!(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../schemas/checkpoint_manifest.schema.json"
    ));
    /// Shape of the `rcc-lint` transition matrix (`--matrix-out`).
    pub const LINT: &str = include_str!(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../schemas/lint.schema.json"
    ));
    /// Shape of a memory-access trace manifest sidecar
    /// (`Trace::manifest_json`, written next to every recorded `.rcct`).
    pub const TRACE_MANIFEST: &str = include_str!(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../schemas/trace_manifest.schema.json"
    ));
    /// Shape of an `rcc-serve` job submission (the `spec` payload of a
    /// `submit` request).
    pub const JOB: &str = include_str!(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../schemas/job.schema.json"
    ));
    /// Shape of a per-job result artifact persisted by the `rcc-serve`
    /// job store (`job-<id>.json`).
    pub const JOB_RESULT: &str = include_str!(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../schemas/job_result.schema.json"
    ));
    /// Shape of the `rcc-serve` results-directory manifest
    /// (`manifest.json`, indexing every persisted job artifact).
    pub const JOB_MANIFEST: &str = include_str!(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../schemas/job_manifest.schema.json"
    ));
}

/// Validates `doc` against `schema_text`; `Err` carries every violation,
/// prefixed with `name` so multi-artifact binaries report legibly.
pub fn check_schema(name: &str, schema_text: &str, doc: &str) -> Result<(), String> {
    match schema::validate_text(schema_text, doc) {
        Ok(errs) if errs.is_empty() => Ok(()),
        Ok(errs) => Err(format!(
            "{name}: schema violations:\n  {}",
            errs.join("\n  ")
        )),
        Err(e) => Err(format!("{name}: {e}")),
    }
}

/// One per-protocol row of `BENCH_sim.json`.
#[derive(Debug, Clone)]
pub struct ProtocolRow {
    /// Protocol label (`ProtocolKind::label`).
    pub protocol: String,
    /// Total simulated cycles across the protocol's runs.
    pub sim_cycles: u64,
    /// Simulated cycles per wall-clock second.
    pub sim_cycles_per_sec: f64,
    /// Cycles the engine fast-forwarded over.
    pub skipped_cycles: u64,
    /// `skipped_cycles / sim_cycles`.
    pub skip_ratio: f64,
}

/// Calendar-queue telemetry merged over every run of the optimized
/// pass (the `scheduler` object of `BENCH_sim.json`).
#[derive(Debug, Clone)]
pub struct SchedSummary {
    /// Wake events posted into the calendar queue, summed over runs.
    pub events_posted: u64,
    /// Wakes superseded by a re-arm or disarmed before they fired,
    /// summed.
    pub events_cancelled: u64,
    /// `events_cancelled / events_posted` (0 when nothing was posted).
    pub cancel_ratio: f64,
    /// Mean over runs of each run's median queue depth (armed slots)
    /// at post time.
    pub queue_depth_p50_mean: f64,
    /// Peak queue depth over every run.
    pub queue_depth_max: u64,
}

/// `BENCH_sim.json`: the perf-smoke report (engine wall-clock, per-
/// protocol rates, and the simulator's self-profile).
#[derive(Debug, Clone)]
pub struct SimReport {
    /// Wall-clock of the baseline pass (no FF, sequential).
    pub baseline_wall_s: f64,
    /// Wall-clock of the optimized pass (FF + job pool).
    pub optimized_wall_s: f64,
    /// `baseline_wall_s / optimized_wall_s`.
    pub speedup: f64,
    /// Worker threads used by the optimized pass.
    pub jobs: usize,
    /// Runs per pass.
    pub runs: usize,
    /// Whether every run's simulated results matched across passes.
    pub deterministic: bool,
    /// Per-protocol aggregates from the optimized pass.
    pub protocols: Vec<ProtocolRow>,
    /// Calendar-queue telemetry merged over the optimized pass.
    pub scheduler: SchedSummary,
    /// Self-profile merged over every run of the optimized pass.
    pub self_profile: SimProfile,
}

impl SimReport {
    /// Serializes in the `schemas/bench_sim.schema.json` shape.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n");
        let _ = writeln!(out, "  \"baseline_wall_s\": {:.3},", self.baseline_wall_s);
        let _ = writeln!(out, "  \"optimized_wall_s\": {:.3},", self.optimized_wall_s);
        let _ = writeln!(out, "  \"speedup\": {:.3},", self.speedup);
        let _ = writeln!(out, "  \"jobs\": {},", self.jobs);
        let _ = writeln!(out, "  \"runs\": {},", self.runs);
        let _ = writeln!(out, "  \"deterministic\": {},", self.deterministic);
        out.push_str("  \"protocols\": [\n");
        for (i, p) in self.protocols.iter().enumerate() {
            let _ = write!(
                out,
                "    {{\"protocol\": \"{}\", \"sim_cycles\": {}, \
                 \"sim_cycles_per_sec\": {:.0}, \"skipped_cycles\": {}, \
                 \"skip_ratio\": {:.4}}}",
                p.protocol, p.sim_cycles, p.sim_cycles_per_sec, p.skipped_cycles, p.skip_ratio
            );
            out.push_str(if i + 1 < self.protocols.len() {
                ",\n"
            } else {
                "\n"
            });
        }
        out.push_str("  ],\n");
        let s = &self.scheduler;
        let _ = writeln!(
            out,
            "  \"scheduler\": {{\"events_posted\": {}, \"events_cancelled\": {}, \
             \"cancel_ratio\": {:.4}, \"queue_depth_p50_mean\": {:.2}, \
             \"queue_depth_max\": {}}},",
            s.events_posted,
            s.events_cancelled,
            s.cancel_ratio,
            s.queue_depth_p50_mean,
            s.queue_depth_max
        );
        out.push_str("  \"self_profile\": ");
        push_profile(&mut out, &self.self_profile, "  ");
        out.push_str("\n}\n");
        out
    }
}

/// Serializes a [`SimProfile`] as the `self_profile` object.
fn push_profile(out: &mut String, p: &SimProfile, indent: &str) {
    let _ = write!(
        out,
        "{{\n{indent}  \"steps\": {},\n{indent}  \"total_nanos\": {},\n{indent}  \"phases\": [\n",
        p.steps,
        p.total_nanos()
    );
    for (i, ph) in SimPhase::ALL.into_iter().enumerate() {
        let _ = write!(
            out,
            "{indent}    {{\"phase\": \"{}\", \"nanos\": {}, \"share\": {:.6}}}",
            ph.label(),
            p.nanos(ph),
            p.share(ph)
        );
        out.push_str(if i + 1 < SimPhase::ALL.len() {
            ",\n"
        } else {
            "\n"
        });
    }
    let _ = write!(out, "{indent}  ]\n{indent}}}");
}

/// One violating (profile, seed, protocol, litmus) tuple.
#[derive(Debug, Clone)]
pub struct ViolationRow {
    /// Chaos profile name.
    pub profile: String,
    /// Chaos seed.
    pub seed: u64,
    /// Protocol label.
    pub protocol: String,
    /// Litmus test name.
    pub litmus: String,
    /// Probed values of the violating run.
    pub values: Vec<u64>,
    /// The sanitizer's verdict on that run.
    pub sanitizer_sc: bool,
}

/// Canary-pass summary of `BENCH_chaos.json`.
#[derive(Debug, Clone)]
pub struct CanarySummary {
    /// Seeds swept.
    pub seeds: u64,
    /// Seeds on which the sanitizer flagged the planted bug.
    pub caught: u64,
    /// Fewest litmus runs any seed needed before being flagged.
    pub earliest_caught_after_runs: Option<u64>,
    /// Forbidden outcomes the sanitizer failed to flag (must be 0).
    pub forbidden_unflagged: u64,
}

/// One benchmark-smoke row of `BENCH_chaos.json`.
#[derive(Debug, Clone)]
pub struct BenchRow {
    /// Chaos profile name.
    pub profile: String,
    /// Protocol label.
    pub protocol: String,
    /// Benchmark name.
    pub benchmark: String,
    /// Simulated cycles.
    pub cycles: u64,
    /// Perturbations fired.
    pub chaos_events: u64,
    /// Sanitizer verdict.
    pub sanitizer_sc: bool,
}

/// One job of a sweep that returned an error or panicked: reported in
/// the JSON instead of aborting the harness, so a single bad seed is a
/// row, not a lost sweep.
#[derive(Debug, Clone)]
pub struct FailedJobRow {
    /// Sweep pass the job belonged to (`"litmus"`, `"canary"`, `"bench"`).
    pub pass: String,
    /// Submission index of the job within its pass.
    pub index: u64,
    /// Attempts made (1: a simulation is deterministic, so a rerun
    /// would fail the same way).
    pub attempts: u64,
    /// Failure reason (the error or panic message).
    pub reason: String,
}

/// `BENCH_chaos.json`: the chaos-sweep report.
#[derive(Debug, Clone)]
pub struct ChaosReport {
    /// Chaos seeds per (profile, protocol) cell.
    pub seeds: u64,
    /// Sound profiles swept.
    pub profiles: Vec<String>,
    /// Protocols swept.
    pub protocols: Vec<String>,
    /// Total litmus runs in the sweep.
    pub litmus_runs: u64,
    /// Every violation found (the JSON details at most the first 20).
    pub violations: Vec<ViolationRow>,
    /// Canary-pass summary.
    pub canary: CanarySummary,
    /// Benchmark-smoke rows.
    pub benchmarks: Vec<BenchRow>,
    /// Jobs that failed (empty on a clean sweep).
    pub failed_jobs: Vec<FailedJobRow>,
}

impl ChaosReport {
    /// Serializes in the `schemas/bench_chaos.schema.json` shape.
    pub fn to_json(&self) -> String {
        let quote = |v: &[String]| {
            v.iter()
                .map(|s| format!("\"{s}\""))
                .collect::<Vec<_>>()
                .join(", ")
        };
        let mut out = String::from("{\n");
        let _ = writeln!(out, "  \"seeds\": {},", self.seeds);
        let _ = writeln!(out, "  \"profiles\": [{}],", quote(&self.profiles));
        let _ = writeln!(out, "  \"protocols\": [{}],", quote(&self.protocols));
        let _ = writeln!(out, "  \"litmus_runs\": {},", self.litmus_runs);
        let _ = writeln!(out, "  \"violations\": {},", self.violations.len());
        out.push_str("  \"violation_detail\": [\n");
        let detail: Vec<&ViolationRow> = self.violations.iter().take(20).collect();
        for (i, v) in detail.iter().enumerate() {
            let _ = write!(
                out,
                "    {{\"profile\": \"{}\", \"seed\": {}, \"protocol\": \"{}\", \
                 \"litmus\": \"{}\", \"values\": {:?}, \"sanitizer_sc\": {}}}",
                v.profile, v.seed, v.protocol, v.litmus, v.values, v.sanitizer_sc
            );
            out.push_str(if i + 1 < detail.len() { ",\n" } else { "\n" });
        }
        out.push_str("  ],\n");
        let _ = writeln!(
            out,
            "  \"canary\": {{\"seeds\": {}, \"caught\": {}, \
             \"earliest_caught_after_runs\": {}, \"forbidden_unflagged\": {}}},",
            self.canary.seeds,
            self.canary.caught,
            self.canary
                .earliest_caught_after_runs
                .map_or("null".to_string(), |r| r.to_string()),
            self.canary.forbidden_unflagged,
        );
        out.push_str("  \"benchmarks\": [\n");
        for (i, b) in self.benchmarks.iter().enumerate() {
            let _ = write!(
                out,
                "    {{\"profile\": \"{}\", \"protocol\": \"{}\", \"benchmark\": \"{}\", \
                 \"cycles\": {}, \"chaos_events\": {}, \"sanitizer_sc\": {}}}",
                b.profile, b.protocol, b.benchmark, b.cycles, b.chaos_events, b.sanitizer_sc
            );
            out.push_str(if i + 1 < self.benchmarks.len() {
                ",\n"
            } else {
                "\n"
            });
        }
        out.push_str("  ],\n");
        out.push_str("  \"failed_jobs\": [\n");
        for (i, j) in self.failed_jobs.iter().enumerate() {
            let _ = write!(
                out,
                "    {{\"pass\": \"{}\", \"index\": {}, \"attempts\": {}, \"reason\": \"{}\"}}",
                escape(&j.pass),
                j.index,
                j.attempts,
                escape(&j.reason)
            );
            out.push_str(if i + 1 < self.failed_jobs.len() {
                ",\n"
            } else {
                "\n"
            });
        }
        out.push_str("  ]\n}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    pub(crate) fn sample_sim_report() -> SimReport {
        let mut p = SimProfile::new();
        p.steps = 100;
        p.charge(SimPhase::Core, Duration::from_nanos(600));
        p.charge(SimPhase::Dram, Duration::from_nanos(400));
        SimReport {
            baseline_wall_s: 2.5,
            optimized_wall_s: 1.0,
            speedup: 2.5,
            jobs: 4,
            runs: 60,
            deterministic: true,
            protocols: vec![ProtocolRow {
                protocol: "rcc".to_string(),
                sim_cycles: 123456,
                sim_cycles_per_sec: 1.5e6,
                skipped_cycles: 1000,
                skip_ratio: 0.0081,
            }],
            scheduler: SchedSummary {
                events_posted: 54321,
                events_cancelled: 321,
                cancel_ratio: 0.0059,
                queue_depth_p50_mean: 38.5,
                queue_depth_max: 71,
            },
            self_profile: p,
        }
    }

    #[test]
    fn sim_report_matches_its_schema() {
        let json = sample_sim_report().to_json();
        check_schema("BENCH_sim.json", schemas::BENCH_SIM, &json).unwrap();
    }

    #[test]
    fn chaos_report_matches_its_schema() {
        let report = ChaosReport {
            seeds: 8,
            profiles: vec!["light".into(), "heavy".into()],
            protocols: vec!["rcc".into()],
            litmus_runs: 144,
            violations: vec![ViolationRow {
                profile: "heavy".into(),
                seed: 3,
                protocol: "rcc".into(),
                litmus: "mp".into(),
                values: vec![1, 0],
                sanitizer_sc: false,
            }],
            canary: CanarySummary {
                seeds: 8,
                caught: 8,
                earliest_caught_after_runs: Some(1),
                forbidden_unflagged: 0,
            },
            benchmarks: vec![BenchRow {
                profile: "light".into(),
                protocol: "rcc".into(),
                benchmark: "Hsp".into(),
                cycles: 20000,
                chaos_events: 12,
                sanitizer_sc: true,
            }],
            failed_jobs: vec![FailedJobRow {
                pass: "litmus".into(),
                index: 17,
                attempts: 2,
                reason: "deadlock: no progress for 2000000 cycles (\"mp\")".into(),
            }],
        };
        check_schema("BENCH_chaos.json", schemas::BENCH_CHAOS, &report.to_json()).unwrap();
        // The canary's "never caught" state serializes as a JSON null.
        let mut none = report;
        none.canary.earliest_caught_after_runs = None;
        assert!(none
            .to_json()
            .contains("\"earliest_caught_after_runs\": null"));
        check_schema("BENCH_chaos.json", schemas::BENCH_CHAOS, &none.to_json()).unwrap();
    }

    #[test]
    fn schema_catches_a_drifted_field() {
        let json = sample_sim_report()
            .to_json()
            .replace("\"speedup\"", "\"speed\"");
        let err = check_schema("BENCH_sim.json", schemas::BENCH_SIM, &json).unwrap_err();
        assert!(err.contains("speedup"), "{err}");
        assert!(err.contains("speed"), "{err}");
    }
}
