//! The metric catalogue, per-layer accounting shared by the workloads
//! (engine and simulated statistics from `RunMetrics`, the six headline
//! ratios), and the traced replay that pushes every job of a serve
//! workload through each layer's public function once (wire → spec →
//! inputs → slice chain → checkpoint → journal → store), since the
//! server's internals are not visible from outside.

use crate::spans::Tracer;
use crate::stats::{median, Metrics};
use rcc_core::ProtocolKind;
use rcc_obs::SimPhase;
use rcc_serve::journal::{Journal, Record};
use rcc_serve::store::{JobError, JobRecord, JobState, ResultSummary, Store};
use rcc_serve::wire::{self, Request};
use rcc_serve::JobSpec;
use rcc_sim::{RunMetrics, SimError, SimOptions, SliceOutcome};
use rcc_workloads::Benchmark;
use std::collections::BTreeMap;
use std::path::Path;
use std::sync::atomic::AtomicBool;
use std::sync::Arc;
use std::time::Instant;

/// End-to-end metrics every untraced run prints, with their units.
pub const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("turnaround_p50_ms", "ms"),
    ("turnaround_tail_ms", "ms"),
    ("peak_rss_mb", "MiB"),
    ("repro_err", "1"),
];

/// Per-layer metrics every traced run prints, with their units. A layer
/// a workload leaves idle reports 0 there (see NOTES.md).
pub const PER_LAYER: [(&str, &str); 62] = [
    ("workloads.generate_s", "s"),
    ("sim.wall_s.mesi", "s"),
    ("sim.wall_s.mesi-wb", "s"),
    ("sim.wall_s.tcs", "s"),
    ("sim.wall_s.tcw", "s"),
    ("sim.wall_s.rcc", "s"),
    ("sim.wall_s.rcc-wo", "s"),
    ("sim.wall_s.ideal", "s"),
    ("sim.steps", "count"),
    ("sim.events_posted", "count"),
    ("sim.events_cancelled", "count"),
    ("sim.cancel_ratio", "1"),
    ("sim.queue_depth_max", "count"),
    ("sim.skip_ratio", "1"),
    ("sim.ns_per_step", "ns"),
    ("sim.phase.fast_forward_s", "s"),
    ("sim.phase.core_s", "s"),
    ("sim.phase.l1_s", "s"),
    ("sim.phase.l2_s", "s"),
    ("sim.phase.rollover_s", "s"),
    ("sim.phase.noc_s", "s"),
    ("sim.phase.dram_s", "s"),
    ("sim.cycles", "count"),
    ("gpu.mem_ops", "count"),
    ("core.l1_hit_ratio", "1"),
    ("core.expired_loads", "count"),
    ("core.renewed_loads", "count"),
    ("core.rollovers", "count"),
    ("noc.flits", "count"),
    ("dram.reads", "count"),
    ("dram.writes", "count"),
    ("repro.ideal_vs_mesi", "1"),
    ("repro.tcs_vs_mesi", "1"),
    ("repro.tcw_vs_mesi", "1"),
    ("repro.rcc_vs_mesi", "1"),
    ("repro.rccwo_vs_rcc", "1"),
    ("repro.tcw_vs_rcc", "1"),
    ("slice.first_ms", "ms"),
    ("slice.resume_ms", "ms"),
    ("slice.replayed_cycles", "count"),
    ("slice.useful_cycle_ratio", "1"),
    ("checkpoint.bytes", "B"),
    ("checkpoint.encode_ms", "ms"),
    ("serve.slices_per_job", "count"),
    ("serve.preemptions_per_job", "count"),
    ("serve.retries", "count"),
    ("serve.submit_ms", "ms"),
    ("serve.direct_s", "s"),
    ("serve.overhead_x", "1"),
    ("serve.rejected", "count"),
    ("serve.failed_typed", "count"),
    ("journal.records", "count"),
    ("journal.bytes", "B"),
    ("journal.append_ms", "ms"),
    ("store.bytes", "B"),
    ("store.persist_ms", "ms"),
    ("wire.submit_rtt_ms", "ms"),
    ("wire.watch_ms", "ms"),
    ("wire.parse_us", "us"),
    ("spec.validate_us", "us"),
    ("trace.overhead", "1"),
    ("trace.coverage", "1"),
];

/// Orders `m` by `catalogue`, filling a metric the workload did not
/// produce with 0. A produced metric missing from the catalogue, or one
/// with another unit, is a bug in the benchmark.
pub fn complete(
    m: &Metrics,
    catalogue: &[(&'static str, &'static str)],
) -> Result<Metrics, String> {
    for (name, _, unit) in &m.0 {
        match catalogue.iter().find(|(n, _)| n == name) {
            None => return Err(format!("metric {name} is not in the catalogue")),
            Some((_, u)) if u != unit => {
                return Err(format!("metric {name} in {unit}, catalogue says {u}"))
            }
            Some(_) => {}
        }
    }
    let mut out = Metrics::default();
    for &(name, unit) in catalogue {
        out.put(name, m.get(name).unwrap_or(0.0), unit);
    }
    Ok(out)
}

/// The protocol names job specs use.
pub fn proto_name(kind: ProtocolKind) -> &'static str {
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

/// Engine telemetry and simulated statistics summed over a workload's
/// simulations.
#[derive(Debug, Default)]
pub struct Engine {
    wall_s: BTreeMap<&'static str, f64>,
    cycles: u64,
    mem_ops: u64,
    loads: u64,
    load_hits: u64,
    expired: u64,
    renewed: u64,
    rollovers: u64,
    flits: u64,
    dram_reads: u64,
    dram_writes: u64,
    steps: u64,
    posted: u64,
    cancelled: u64,
    queue_max: u64,
    skipped: u64,
    phase_ns: [u64; 8],
}

impl Engine {
    pub fn add(&mut self, m: &RunMetrics, wall_s: f64) {
        *self.wall_s.entry(proto_name(m.kind)).or_default() += wall_s;
        self.cycles += m.cycles;
        self.mem_ops += m.core.mem_ops;
        self.loads += m.l1.loads;
        self.load_hits += m.l1.load_hits;
        self.expired += m.l1.expired_loads;
        self.renewed += m.l1.renewed_loads;
        self.rollovers += m.rollovers;
        self.flits += m.traffic.total_flits();
        self.dram_reads += m.dram_reads;
        self.dram_writes += m.dram_writes;
        self.posted += m.sched.events_posted;
        self.cancelled += m.sched.events_cancelled;
        self.queue_max = self.queue_max.max(m.sched.queue_depth_max);
        self.skipped += m.skipped_cycles;
        if let Some(p) = &m.profile {
            self.steps += p.steps;
            for (i, ph) in SimPhase::ALL.into_iter().enumerate() {
                self.phase_ns[i] += p.nanos(ph);
            }
        }
    }

    /// The counts that must repeat bit-for-bit at a fixed seed, profiled
    /// or not (`sim.steps` exists only under the profiler).
    pub fn exact(&self) -> [u64; 14] {
        [
            self.cycles,
            self.mem_ops,
            self.loads,
            self.load_hits,
            self.expired,
            self.renewed,
            self.rollovers,
            self.flits,
            self.dram_reads,
            self.dram_writes,
            self.posted,
            self.cancelled,
            self.queue_max,
            self.skipped,
        ]
    }

    pub fn put(&self, out: &mut Metrics) {
        for k in ProtocolKind::ALL {
            let name = proto_name(k);
            let wall = self.wall_s.get(name).copied().unwrap_or(0.0);
            out.put(format!("sim.wall_s.{name}"), wall, "s");
        }
        let ratio = |a: u64, b: u64| if b == 0 { 0.0 } else { a as f64 / b as f64 };
        let wall: f64 = self.wall_s.values().sum();
        out.put("sim.steps", self.steps as f64, "count");
        out.put("sim.events_posted", self.posted as f64, "count");
        out.put("sim.events_cancelled", self.cancelled as f64, "count");
        out.put("sim.cancel_ratio", ratio(self.cancelled, self.posted), "1");
        out.put("sim.queue_depth_max", self.queue_max as f64, "count");
        out.put("sim.skip_ratio", ratio(self.skipped, self.cycles), "1");
        out.put(
            "sim.ns_per_step",
            wall * 1e9 / self.steps.max(1) as f64,
            "ns",
        );
        for (i, ph) in SimPhase::ALL.into_iter().enumerate() {
            if ph != SimPhase::Sample {
                out.put(
                    format!("sim.phase.{}_s", ph.label()),
                    self.phase_ns[i] as f64 / 1e9,
                    "s",
                );
            }
        }
        out.put("sim.cycles", self.cycles as f64, "count");
        out.put("gpu.mem_ops", self.mem_ops as f64, "count");
        out.put("core.l1_hit_ratio", ratio(self.load_hits, self.loads), "1");
        out.put("core.expired_loads", self.expired as f64, "count");
        out.put("core.renewed_loads", self.renewed as f64, "count");
        out.put("core.rollovers", self.rollovers as f64, "count");
        out.put("noc.flits", self.flits as f64, "count");
        out.put("dram.reads", self.dram_reads as f64, "count");
        out.put("dram.writes", self.dram_writes as f64, "count");
    }
}

/// The six headline ratios (inter-workgroup gmean speedups), with the
/// paper's values: SC-IDEAL, TCS, TCW and RCC-SC over MESI, then RCC-WO
/// and TCW over RCC-SC.
pub const REPRO: [(&str, ProtocolKind, ProtocolKind, f64); 6] = [
    (
        "repro.ideal_vs_mesi",
        ProtocolKind::IdealSc,
        ProtocolKind::Mesi,
        1.6,
    ),
    (
        "repro.tcs_vs_mesi",
        ProtocolKind::TcStrong,
        ProtocolKind::Mesi,
        1.36,
    ),
    (
        "repro.tcw_vs_mesi",
        ProtocolKind::TcWeak,
        ProtocolKind::Mesi,
        1.88,
    ),
    (
        "repro.rcc_vs_mesi",
        ProtocolKind::RccSc,
        ProtocolKind::Mesi,
        1.76,
    ),
    (
        "repro.rccwo_vs_rcc",
        ProtocolKind::RccWo,
        ProtocolKind::RccSc,
        1.07,
    ),
    (
        "repro.tcw_vs_rcc",
        ProtocolKind::TcWeak,
        ProtocolKind::RccSc,
        1.07,
    ),
];

/// EXPERIMENTS.md's measured column for the same six ratios (GTX 480,
/// standard scale, seed 7), which fig-grid must reproduce at seed 7.
pub const EXPERIMENTS_SEED7: [f64; 6] = [1.58, 0.95, 1.08, 1.04, 1.12, 1.04];

/// Simulated cycles per (benchmark name, protocol name).
pub type Cycles = BTreeMap<(String, &'static str), u64>;

/// The six ratios over the inter-workgroup benchmarks, or `None` when a
/// needed run is missing.
pub fn ratios(cycles: &Cycles) -> Option<[f64; 6]> {
    let mut out = [0.0; 6];
    for (slot, &(_, x, base, _)) in out.iter_mut().zip(&REPRO) {
        let mut speedups = Vec::new();
        for b in Benchmark::inter_workgroup() {
            let c = |k| cycles.get(&(b.name().to_string(), proto_name(k))).copied();
            speedups.push(c(base)? as f64 / c(x)? as f64);
        }
        *slot = rcc_common::stats::gmean(speedups)?;
    }
    Some(out)
}

/// Mean |ln(measured / paper)| over the six ratios.
pub fn repro_err(r: &[f64; 6]) -> f64 {
    r.iter()
        .zip(&REPRO)
        .map(|(m, &(_, _, _, paper))| (m / paper).ln().abs())
        .sum::<f64>()
        / 6.0
}

pub fn put_ratios(out: &mut Metrics, r: &[f64; 6]) {
    for (v, &(name, ..)) in r.iter().zip(&REPRO) {
        out.put(name, *v, "1");
    }
}

/// Spec JSON for a benchmark job.
pub fn bench_spec(
    kind: ProtocolKind,
    bench: Benchmark,
    scale: &str,
    cores: usize,
    seed: u64,
) -> String {
    format!(
        "{{\"version\": 1, \"protocol\": \"{}\", \"workload\": {{\"kind\": \"bench\", \
         \"name\": \"{}\", \"scale\": \"{scale}\", \"cores\": {cores}, \"seed\": {seed}}}}}",
        proto_name(kind),
        bench.name()
    )
}

/// Per-layer samples gathered by [`replay`].
#[derive(Default)]
pub struct Replay {
    pub engine: Engine,
    pub generate_s: f64,
    /// Preemptions of each job's slice chain, by job index (`None` for a
    /// rejected spec); must match what the live service recorded.
    pub preemptions: Vec<Option<u64>>,
    parse_us: Vec<f64>,
    validate_us: Vec<f64>,
    first_ms: Vec<f64>,
    resume_ms: Vec<f64>,
    encode_ms: Vec<f64>,
    append_ms: Vec<f64>,
    persist_ms: Vec<f64>,
    replayed: u64,
    useful: u64,
    ck_bytes: u64,
    store_bytes: u64,
    journal_records: u64,
    journal_bytes: u64,
}

impl Replay {
    pub fn put(&self, out: &mut Metrics) {
        let ms = |v: &[f64]| if v.is_empty() { 0.0 } else { median(v) };
        out.put("slice.first_ms", ms(&self.first_ms), "ms");
        out.put("slice.resume_ms", ms(&self.resume_ms), "ms");
        out.put("slice.replayed_cycles", self.replayed as f64, "count");
        let total = (self.useful + self.replayed).max(1) as f64;
        out.put("slice.useful_cycle_ratio", self.useful as f64 / total, "1");
        out.put("checkpoint.bytes", self.ck_bytes as f64, "B");
        out.put("checkpoint.encode_ms", ms(&self.encode_ms), "ms");
        out.put("journal.records", self.journal_records as f64, "count");
        out.put("journal.bytes", self.journal_bytes as f64, "B");
        out.put("journal.append_ms", ms(&self.append_ms), "ms");
        out.put("store.bytes", self.store_bytes as f64, "B");
        out.put("store.persist_ms", ms(&self.persist_ms), "ms");
        out.put("wire.parse_us", ms(&self.parse_us), "us");
        out.put("spec.validate_us", ms(&self.validate_us), "us");
    }
}

fn timed<T>(samples: &mut Vec<f64>, scale: f64, f: impl FnOnce() -> T) -> T {
    let t = Instant::now();
    let out = f();
    samples.push(t.elapsed().as_secs_f64() * scale);
    out
}

/// Replays every job's layer calls directly, under spans, into a fresh
/// fsync'd journal and results directory inside `dir`, cutting each
/// slice chain at `quantum` cycles as the service does. Each job also
/// runs once unsliced under the self-profiler to feed [`Engine`].
pub fn replay(
    specs: &[String],
    quantum: u64,
    dir: &Path,
    tracer: &Tracer,
) -> Result<Replay, String> {
    let mut r = Replay::default();
    let journal_path = dir.join("replay.rccj");
    let (mut journal, _) =
        Journal::open(&journal_path, true, None, Arc::new(AtomicBool::new(false)))
            .map_err(|e| e.to_string())?;
    let store = Store::new(Some(dir.join("replay-results")))?;
    for (id, text) in specs.iter().enumerate() {
        let id = id as u64;
        let preempted = tracer.span("replay.job", None, Some(id), |parent| {
            replay_job(
                &mut r,
                &mut journal,
                &store,
                id,
                text,
                quantum,
                tracer,
                parent,
            )
        })?;
        r.preemptions.push(preempted);
    }
    r.journal_records = journal.records();
    r.journal_bytes = std::fs::metadata(&journal_path)
        .map_err(|e| e.to_string())?
        .len();
    Ok(r)
}

/// One job of [`replay`]; returns its preemption count, or `None` when
/// the spec is rejected.
#[allow(clippy::too_many_arguments)]
fn replay_job(
    r: &mut Replay,
    journal: &mut Journal,
    store: &Store,
    id: u64,
    text: &str,
    quantum: u64,
    tracer: &Tracer,
    parent: Option<u64>,
) -> Result<Option<u64>, String> {
    let frame = format!("{{\"cmd\": \"submit\", \"spec\": {text}}}");
    let parsed = tracer.span("wire.parse_request", parent, Some(id), |_| {
        timed(&mut r.parse_us, 1e6, || wire::parse_request(&frame))
    });
    let Ok(Request::Submit(value)) = parsed else {
        return Ok(None);
    };
    let spec = tracer.span("spec.from_value", parent, Some(id), |_| {
        timed(&mut r.validate_us, 1e6, || JobSpec::from_value(&value))
    });
    let Ok(spec) = spec else {
        return Ok(None);
    };
    let t = Instant::now();
    let (kind, cfg, wl, opts) = tracer.span("spec.inputs", parent, Some(id), |_| spec.inputs());
    r.generate_s += t.elapsed().as_secs_f64();

    let popts = SimOptions {
        profile: true,
        ..opts.clone()
    };
    let t = Instant::now();
    let res = tracer.span("sim.try_simulate", parent, Some(id), |_| {
        rcc_sim::try_simulate(kind, &cfg, &wl, &popts)
    });
    if let Ok(m) = res {
        r.engine.add(&m, t.elapsed().as_secs_f64());
    }

    let mut append = |rec: &Record, r: &mut Replay| -> Result<(), String> {
        tracer
            .span("journal.append", parent, Some(id), |_| {
                timed(&mut r.append_ms, 1e3, || journal.append(rec))
            })
            .map(|_| ())
            .map_err(|e| e.to_string())
    };
    let spec_json = spec.to_canonical_json();
    append(
        &Record::Submitted {
            id,
            priority: spec.priority,
            spec_json: spec_json.clone(),
            dedup_key: None,
        },
        r,
    )?;
    append(&Record::Started { id, attempt: 0 }, r)?;
    let sopts = SimOptions { quantum, ..opts };
    let (mut slices, mut preemptions) = (1u64, 0u64);
    let mut out = tracer.span("sim.try_simulate_slice", parent, Some(id), |_| {
        timed(&mut r.first_ms, 1e3, || {
            rcc_sim::try_simulate_slice(kind, &cfg, &wl, &sopts)
        })
    });
    let outcome: Result<RunMetrics, SimError> = loop {
        match out {
            Ok(SliceOutcome::Finished(m)) => break Ok(*m),
            Ok(SliceOutcome::Preempted { ck, .. }) => {
                preemptions += 1;
                let bytes = tracer.span("checkpoint.encode", parent, Some(id), |_| {
                    timed(&mut r.encode_ms, 1e3, || ck.encode())
                });
                r.ck_bytes += bytes.len() as u64;
                append(
                    &Record::Preempted {
                        id,
                        slices,
                        preemptions,
                        checkpoint: bytes,
                    },
                    r,
                )?;
                r.replayed += ck.cycle;
                slices += 1;
                out = tracer.span("sim.resume_slice", parent, Some(id), |_| {
                    timed(&mut r.resume_ms, 1e3, || rcc_sim::resume_slice(&ck))
                });
            }
            Err(e) => break Err(e),
        }
    };
    let (state, summary, error, terminal) = match &outcome {
        Ok(m) => {
            r.useful += m.cycles;
            let s = ResultSummary::from_metrics(m);
            let rec = Record::Finished {
                id,
                slices,
                preemptions,
                summary: s.clone(),
            };
            (JobState::Done, Some(s), None, rec)
        }
        Err(e) => {
            let err = JobError::from_sim(e);
            let rec = Record::Failed {
                id,
                slices,
                preemptions,
                error: err.clone(),
            };
            (JobState::Failed, None, Some(err), rec)
        }
    };
    append(&terminal, r)?;
    let record = JobRecord {
        id,
        state,
        spec_json,
        priority: spec.priority,
        slices,
        preemptions,
        attempts: 0,
        dedup_key: None,
        summary,
        error,
    };
    r.store_bytes += record.artifact_json().len() as u64;
    tracer.span("store.persist", parent, Some(id), |_| {
        timed(&mut r.persist_ms, 1e3, || store.persist(&record))
    })?;
    Ok(Some(preemptions))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rcc_obs::json::{self, JsonValue};

    /// BENCHMARK.json at the repository root names exactly the metrics
    /// and units the program prints.
    #[test]
    fn benchmark_json_matches_the_catalogue() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json");
        let doc = json::parse(&text).expect("BENCHMARK.json parses");
        let listed = |key: &str| -> Vec<(String, String)> {
            doc.get(key)
                .and_then(JsonValue::as_array)
                .expect(key)
                .iter()
                .map(|m| {
                    let s = |k: &str| m.get(k).and_then(JsonValue::as_str).expect(k).to_string();
                    (s("name"), s("unit"))
                })
                .collect()
        };
        let own = |c: &[(&str, &str)]| -> Vec<(String, String)> {
            c.iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(listed("end_to_end"), own(&END_TO_END));
        assert_eq!(listed("per_layer"), own(&PER_LAYER));
    }

    #[test]
    fn complete_orders_fills_and_rejects_strays() {
        let mut m = Metrics::default();
        m.put("wall_s", 2.0, "s");
        let full = complete(&m, &END_TO_END).expect("known metric");
        assert_eq!(full.0.len(), END_TO_END.len());
        assert_eq!(full.get("wall_s"), Some(2.0));
        assert_eq!(full.get("setup_s"), Some(0.0));
        m.put("bogus", 1.0, "s");
        assert!(complete(&m, &END_TO_END).is_err());
    }
}
