//! Job-request validation and resolution.
//!
//! A submission is checked in two passes, failing closed on the first
//! violation: structural validation against `schemas/job.schema.json`
//! (unknown fields, wrong types, out-of-range values), then semantic
//! validation (a benchmark or litmus test that actually exists, chaos
//! profiles by name, option combinations the service can honor). A
//! valid spec resolves — via [`JobSpec::inputs`] — into the exact
//! `(ProtocolKind, GpuConfig, Workload, SimOptions)` a direct
//! [`rcc_sim::try_simulate`] call would use, which is what makes the
//! stress suite's byte-identity check against the driver possible.

use rcc_chaos::{ChaosProfile, ChaosSpec};
use rcc_common::ids::WorkgroupId;
use rcc_common::GpuConfig;
use rcc_core::ProtocolKind;
use rcc_gpu::{MemOp, WarpProgram};
use rcc_obs::json::JsonValue;
use rcc_sim::SimOptions;
use rcc_workloads::{litmus, Benchmark, Scale, Sharing, Workload};

/// Current job-spec version (the `version` field of the schema).
pub const SPEC_VERSION: u64 = 1;

/// Watchdog budget for deliberate-deadlock (`hang`) jobs: small enough
/// that a hang job fails fast, large enough that the dump is a real
/// no-progress detection.
pub const HANG_WATCHDOG: u64 = 10_000;

/// A typed validation failure: `kind` names the layer that rejected
/// (`schema`, `protocol`, `workload`, `options`), `detail` says why.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpecError {
    /// Rejection category.
    pub kind: &'static str,
    /// Human-readable reason.
    pub detail: String,
}

impl SpecError {
    fn new(kind: &'static str, detail: impl Into<String>) -> Self {
        SpecError {
            kind,
            detail: detail.into(),
        }
    }
}

/// Workload scale, mirroring the driver's `--scale` knob.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScaleKind {
    /// `Scale::quick()` — test sizing.
    Quick,
    /// `Scale::standard()` — evaluation sizing.
    Standard,
    /// `Scale::full()` — every warp context busy.
    Full,
}

impl ScaleKind {
    fn parse(s: &str) -> Option<ScaleKind> {
        Some(match s {
            "quick" => ScaleKind::Quick,
            "standard" => ScaleKind::Standard,
            "full" => ScaleKind::Full,
            _ => return None,
        })
    }

    fn name(self) -> &'static str {
        match self {
            ScaleKind::Quick => "quick",
            ScaleKind::Standard => "standard",
            ScaleKind::Full => "full",
        }
    }

    fn scale(self) -> Scale {
        match self {
            ScaleKind::Quick => Scale::quick(),
            ScaleKind::Standard => Scale::standard(),
            ScaleKind::Full => Scale::full(),
        }
    }
}

/// What to simulate.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WorkloadSpec {
    /// A Table IV benchmark.
    Bench {
        /// Which benchmark.
        bench: Benchmark,
        /// Sizing.
        scale: ScaleKind,
        /// Cores on the scaled-down test machine.
        cores: usize,
        /// Workload generation seed.
        seed: u64,
    },
    /// A litmus test from the `rcc-workloads` suite.
    Litmus {
        /// Test name (`mp`, `sb`, `iriw`, ...).
        name: String,
        /// Cores on the scaled-down test machine.
        cores: usize,
        /// Address/interleaving seed.
        seed: u64,
    },
    /// A deliberate deadlock: one warp waits on a barrier epoch nobody
    /// else will ever reach, under a short watchdog. Exercises the
    /// service's typed-failure path end to end.
    Hang,
}

/// A validated, fully-resolved job request.
#[derive(Debug, Clone, PartialEq)]
pub struct JobSpec {
    /// Protocol under test.
    pub protocol: ProtocolKind,
    /// What to run.
    pub workload: WorkloadSpec,
    /// Cycle budget (defaults to the `SimOptions::fast` budget).
    pub max_cycles: u64,
    /// Idle-cycle fast-forwarding (default on; results identical).
    pub fast_forward: bool,
    /// Attach the runtime SC sanitizer.
    pub sanitize: bool,
    /// Record the run's memory-access trace into the results dir
    /// (`trace-<id>.rcct`). Trace jobs are preempted like any other: a
    /// replayed run re-records from cycle 0, so the artifact is the
    /// uninterrupted run's.
    pub record_trace: bool,
    /// Time-series sampling period in cycles (0 = off); feeds the
    /// per-slice progress events the service streams.
    pub sample_every: u64,
    /// Priority class, 0 (urgent) to `queue::CLASSES - 1`.
    pub priority: u8,
    /// Deterministic perturbation injection.
    pub chaos: Option<ChaosSpec>,
    /// Client-supplied idempotency key: a resubmission carrying the
    /// same key returns the original job id instead of double-enqueuing
    /// (the retry-after-dropped-connection safety net). Purely
    /// host-side; does not affect simulation inputs.
    pub dedup_key: Option<String>,
}

fn protocol_by_cli_name(s: &str) -> Option<ProtocolKind> {
    Some(match s {
        "mesi" => ProtocolKind::Mesi,
        "mesi-wb" => ProtocolKind::MesiWb,
        "tcs" => ProtocolKind::TcStrong,
        "tcw" => ProtocolKind::TcWeak,
        "rcc" => ProtocolKind::RccSc,
        "rcc-wo" => ProtocolKind::RccWo,
        "ideal" => ProtocolKind::IdealSc,
        _ => return None,
    })
}

fn cli_name(kind: ProtocolKind) -> &'static str {
    match kind {
        ProtocolKind::Mesi => "mesi",
        ProtocolKind::MesiWb => "mesi-wb",
        ProtocolKind::TcStrong => "tcs",
        ProtocolKind::TcWeak => "tcw",
        ProtocolKind::RccSc => "rcc",
        ProtocolKind::RccWo => "rcc-wo",
        ProtocolKind::IdealSc => "ideal",
    }
}

/// Default seed, shared with the bench harness so a bare spec matches
/// the artifacts the harness produces.
const DEFAULT_SEED: u64 = 7;

fn get_u64(obj: &JsonValue, key: &str) -> Option<u64> {
    obj.get(key).and_then(JsonValue::as_u64)
}

impl JobSpec {
    /// Parses and validates a job spec from text. Fails closed: schema
    /// violations first, then semantic ones.
    pub fn parse(text: &str) -> Result<JobSpec, SpecError> {
        let v = rcc_obs::json::parse(text)
            .map_err(|e| SpecError::new("schema", format!("not JSON: {e}")))?;
        JobSpec::from_value(&v)
    }

    /// Validates an already-parsed submission.
    pub fn from_value(v: &JsonValue) -> Result<JobSpec, SpecError> {
        let schema = rcc_obs::json::parse(rcc_bench::report::schemas::JOB)
            .map_err(|e| SpecError::new("schema", format!("job schema unreadable: {e}")))?;
        let violations = rcc_obs::schema::validate(&schema, v);
        if !violations.is_empty() {
            return Err(SpecError::new("schema", violations.join("; ")));
        }
        if get_u64(v, "version") != Some(SPEC_VERSION) {
            return Err(SpecError::new(
                "schema",
                format!("unsupported spec version (want {SPEC_VERSION})"),
            ));
        }
        let proto_name = v
            .get("protocol")
            .and_then(JsonValue::as_str)
            .unwrap_or_default();
        let protocol = protocol_by_cli_name(proto_name)
            .ok_or_else(|| SpecError::new("protocol", format!("unknown protocol {proto_name}")))?;

        let wl = v.get("workload").expect("schema guarantees workload");
        let kind = wl.get("kind").and_then(JsonValue::as_str).unwrap_or("");
        let cores = get_u64(wl, "cores")
            .map(|c| c as usize)
            .unwrap_or(GpuConfig::small().num_cores);
        if cores > 16 {
            return Err(SpecError::new(
                "workload",
                format!("cores {cores} exceeds the 16-core machine cap"),
            ));
        }
        let seed = get_u64(wl, "seed").unwrap_or(DEFAULT_SEED);
        let name = wl.get("name").and_then(JsonValue::as_str);
        let workload = match kind {
            "bench" => {
                let name =
                    name.ok_or_else(|| SpecError::new("workload", "bench jobs need a name"))?;
                let bench = Benchmark::ALL
                    .into_iter()
                    .find(|b| b.name() == name)
                    .ok_or_else(|| {
                        SpecError::new("workload", format!("unknown benchmark {name}"))
                    })?;
                let scale = match wl.get("scale").and_then(JsonValue::as_str) {
                    None => ScaleKind::Quick,
                    Some(s) => ScaleKind::parse(s)
                        .ok_or_else(|| SpecError::new("workload", format!("unknown scale {s}")))?,
                };
                WorkloadSpec::Bench {
                    bench,
                    scale,
                    cores,
                    seed,
                }
            }
            "litmus" => {
                let name =
                    name.ok_or_else(|| SpecError::new("workload", "litmus jobs need a name"))?;
                if !litmus::all(cores.max(2), seed)
                    .iter()
                    .any(|l| l.name == name)
                {
                    return Err(SpecError::new(
                        "workload",
                        format!("unknown litmus test {name}"),
                    ));
                }
                WorkloadSpec::Litmus {
                    name: name.to_string(),
                    cores,
                    seed,
                }
            }
            "hang" => {
                if name.is_some() {
                    return Err(SpecError::new("workload", "hang jobs take no name"));
                }
                WorkloadSpec::Hang
            }
            other => {
                return Err(SpecError::new(
                    "workload",
                    format!("unknown workload kind {other}"),
                ))
            }
        };

        let empty = JsonValue::Obj(Default::default());
        let opts = v.get("options").unwrap_or(&empty);
        let chaos = match opts.get("chaos") {
            None => None,
            Some(c) => {
                let profile = c.get("profile").and_then(JsonValue::as_str).unwrap_or("");
                let seed = get_u64(c, "seed").unwrap_or(0);
                let profile = ChaosProfile::by_name(profile).ok_or_else(|| {
                    SpecError::new("options", format!("unknown chaos profile {profile}"))
                })?;
                Some(ChaosSpec::new(seed, profile))
            }
        };
        let dedup_key = v
            .get("dedup_key")
            .and_then(JsonValue::as_str)
            .map(str::to_string);
        if let Some(k) = &dedup_key {
            // The in-repo validator has no minLength/maxLength keyword;
            // the schema documents the bound, this enforces it.
            if k.is_empty() || k.len() > 128 {
                return Err(SpecError::new(
                    "schema",
                    format!("dedup_key must be 1..=128 bytes, got {}", k.len()),
                ));
            }
        }
        Ok(JobSpec {
            protocol,
            workload,
            max_cycles: get_u64(opts, "max_cycles").unwrap_or(SimOptions::fast().max_cycles),
            fast_forward: opts
                .get("fast_forward")
                .and_then(JsonValue::as_bool)
                .unwrap_or(true),
            sanitize: opts
                .get("sanitize")
                .and_then(JsonValue::as_bool)
                .unwrap_or(false),
            record_trace: opts
                .get("record_trace")
                .and_then(JsonValue::as_bool)
                .unwrap_or(false),
            sample_every: get_u64(opts, "sample_every").unwrap_or(0),
            priority: get_u64(opts, "priority").unwrap_or(1) as u8,
            chaos,
            dedup_key,
        })
    }

    /// Resolves the spec into exactly what the driver would hand to
    /// `try_simulate`: machine, generated workload, and options.
    /// Host-side service knobs (quantum, trace paths) are layered on by
    /// the server afterwards.
    pub fn inputs(&self) -> (ProtocolKind, GpuConfig, Workload, SimOptions) {
        let mut cfg = GpuConfig::small();
        let mut opts = SimOptions {
            fast_forward: self.fast_forward,
            sanitize: self.sanitize,
            sample_every: self.sample_every,
            chaos: self.chaos.clone(),
            ..SimOptions::fast()
        };
        opts.max_cycles = self.max_cycles;
        let wl = match &self.workload {
            WorkloadSpec::Bench {
                bench,
                scale,
                cores,
                seed,
            } => {
                cfg.num_cores = (*cores).max(1);
                bench.generate(&cfg, &scale.scale(), *seed)
            }
            WorkloadSpec::Litmus { name, cores, seed } => {
                cfg.num_cores = (*cores).max(2);
                let suite = litmus::all(cfg.num_cores, *seed);
                let lit = suite
                    .iter()
                    .find(|l| l.name == name.as_str())
                    .expect("validated at parse time");
                rcc_sim::litmus::litmus_workload(lit)
            }
            WorkloadSpec::Hang => {
                cfg.watchdog_cycles = HANG_WATCHDOG;
                Workload {
                    name: "crafted-deadlock",
                    category: Sharing::IntraWorkgroup,
                    programs: vec![vec![WarpProgram::new(
                        WorkgroupId(0),
                        vec![MemOp::LocalWait { epoch: 1 }],
                    )]],
                    warps_per_workgroup: 2,
                }
            }
        };
        (self.protocol, cfg, wl, opts)
    }

    /// Deterministic normalized re-serialization: defaults filled in,
    /// fields in a fixed order. Equal canonical strings ⇒ equal
    /// simulation inputs, which the stress suite exploits to memoize
    /// its direct-simulation twins. The output itself validates against
    /// `schemas/job.schema.json`.
    pub fn to_canonical_json(&self) -> String {
        use std::fmt::Write;
        let mut s = String::new();
        let _ = write!(
            s,
            "{{\"version\": {SPEC_VERSION}, \"protocol\": \"{}\", \"workload\": ",
            cli_name(self.protocol)
        );
        match &self.workload {
            WorkloadSpec::Bench {
                bench,
                scale,
                cores,
                seed,
            } => {
                let _ = write!(
                    s,
                    "{{\"kind\": \"bench\", \"name\": \"{}\", \"scale\": \"{}\", \
                     \"cores\": {cores}, \"seed\": {seed}}}",
                    bench.name(),
                    scale.name()
                );
            }
            WorkloadSpec::Litmus { name, cores, seed } => {
                let _ = write!(
                    s,
                    "{{\"kind\": \"litmus\", \"name\": \"{}\", \"cores\": {cores}, \
                     \"seed\": {seed}}}",
                    crate::wire::esc(name)
                );
            }
            WorkloadSpec::Hang => s.push_str("{\"kind\": \"hang\"}"),
        }
        let _ = write!(
            s,
            ", \"options\": {{\"max_cycles\": {}, \"fast_forward\": {}, \"sanitize\": {}, \
             \"record_trace\": {}, \"sample_every\": {}, \"priority\": {}",
            self.max_cycles,
            self.fast_forward,
            self.sanitize,
            self.record_trace,
            self.sample_every,
            self.priority
        );
        if let Some(chaos) = &self.chaos {
            let _ = write!(
                s,
                ", \"chaos\": {{\"profile\": \"{}\", \"seed\": {}}}",
                chaos.profile.name, chaos.seed
            );
        }
        s.push('}');
        if let Some(key) = &self.dedup_key {
            let _ = write!(s, ", \"dedup_key\": \"{}\"", crate::wire::esc(key));
        }
        s.push('}');
        s
    }

    /// The canonical spec with the host-side idempotency key stripped:
    /// equal strings ⇒ equal *simulation inputs*, which is the
    /// memoization key byte-identity suites want.
    pub fn to_canonical_json_no_dedup(&self) -> String {
        let mut clone = self.clone();
        clone.dedup_key = None;
        clone.to_canonical_json()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn canonical_json_round_trips_and_validates() {
        let text = r#"{"version": 1, "protocol": "tcw",
            "workload": {"kind": "bench", "name": "hsp", "scale": "quick"},
            "options": {"sample_every": 64, "priority": 2,
                        "chaos": {"profile": "light", "seed": 3}}}"#;
        let spec = JobSpec::parse(text).expect("valid spec");
        let canon = spec.to_canonical_json();
        let reparsed = JobSpec::parse(&canon).expect("canonical form re-validates");
        assert_eq!(spec, reparsed);
        assert_eq!(canon, reparsed.to_canonical_json(), "canonical fixpoint");
    }

    #[test]
    fn dedup_key_round_trips_and_strips() {
        let text = r#"{"version": 1, "protocol": "rcc",
            "workload": {"kind": "litmus", "name": "mp"},
            "dedup_key": "client-42"}"#;
        let spec = JobSpec::parse(text).expect("valid spec");
        assert_eq!(spec.dedup_key.as_deref(), Some("client-42"));
        let canon = spec.to_canonical_json();
        let reparsed = JobSpec::parse(&canon).expect("canonical re-validates");
        assert_eq!(spec, reparsed);
        assert_eq!(canon, reparsed.to_canonical_json(), "canonical fixpoint");
        // The stripped form equals the same spec submitted without a key.
        let bare = JobSpec::parse(
            r#"{"version": 1, "protocol": "rcc",
                "workload": {"kind": "litmus", "name": "mp"}}"#,
        )
        .unwrap();
        assert_eq!(spec.to_canonical_json_no_dedup(), bare.to_canonical_json());
        // Schema rejects an empty key.
        let empty = r#"{"version": 1, "protocol": "rcc",
            "workload": {"kind": "litmus", "name": "mp"}, "dedup_key": ""}"#;
        assert_eq!(JobSpec::parse(empty).unwrap_err().kind, "schema");
    }

    #[test]
    fn semantic_rejections_are_typed() {
        let bad_bench = r#"{"version": 1, "protocol": "rcc",
            "workload": {"kind": "bench", "name": "nosuch"}}"#;
        assert_eq!(JobSpec::parse(bad_bench).unwrap_err().kind, "workload");
        let bad_litmus = r#"{"version": 1, "protocol": "rcc",
            "workload": {"kind": "litmus", "name": "mp+teleport"}}"#;
        assert_eq!(JobSpec::parse(bad_litmus).unwrap_err().kind, "workload");
        let stray = r#"{"version": 1, "protocol": "rcc",
            "workload": {"kind": "litmus", "name": "mp"}, "nope": 1}"#;
        assert_eq!(JobSpec::parse(stray).unwrap_err().kind, "schema");
    }

    #[test]
    fn hang_spec_resolves_to_short_watchdog() {
        let spec =
            JobSpec::parse(r#"{"version": 1, "protocol": "rcc", "workload": {"kind": "hang"}}"#)
                .expect("valid");
        let (_, cfg, wl, _) = spec.inputs();
        assert_eq!(cfg.watchdog_cycles, HANG_WATCHDOG);
        assert_eq!(wl.name, "crafted-deadlock");
    }
}
