//! Observability smoke: a sampled + traced litmus sweep, artifact
//! export, and in-process schema validation (the CI `obs-smoke` job).
//!
//! Three passes:
//!
//! 1. **Litmus sweep** — every litmus test under {RCC-SC, MESI, TC-Weak}
//!    with the full observer attached (sampling + tracing). SC protocols
//!    must keep their outcomes SC-allowed with the observer on, the
//!    RCC-SC runs must trace per-L2-bank `lease` grants, and the MESI
//!    runs must not (no leases to grant).
//! 2. **Benchmark observation** — one rollover-heavy RCC-SC run with
//!    sampling, tracing, and self-profiling armed; its trace must carry
//!    the system-track rollover span and per-bank `rollover-reset`
//!    events, and its series must reconcile with the end-of-run totals.
//! 3. **Export + validate** — writes the RCC-SC `mp` litmus trace
//!    (`obs_trace.json`), and the benchmark's series (`obs_series.csv`,
//!    `obs_series.json`); every JSON artifact is validated against its
//!    schema under `schemas/` before being written, and any violation
//!    (or missing expected event) exits non-zero.
//!
//! Flags: `--sample-every N` (default 64), `--trace-out PATH` (default
//! `obs_trace.json`), `--series-out PATH` (default `obs_series.csv`; a
//! `.json` sibling is always written next to it).

use rcc_bench::cli::{Args, UsageError};
use rcc_bench::report::{check_schema, schemas};
use rcc_common::GpuConfig;
use rcc_core::ProtocolKind;
use rcc_obs::{track, ObsConfig, SimPhase};
use rcc_sim::litmus::run_litmus_observed;
use rcc_sim::runner::{simulate, SimOptions};
use rcc_workloads::{litmus, Benchmark, Scale};
use std::process::ExitCode;

const KINDS: [ProtocolKind; 3] = [
    ProtocolKind::RccSc,
    ProtocolKind::Mesi,
    ProtocolKind::TcWeak,
];

const FLAGS: &str = "--sample-every N, --trace-out PATH, --series-out PATH";

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    run(&argv).unwrap_or_else(|e| e.report())
}

fn run(argv: &[String]) -> Result<ExitCode, UsageError> {
    let args = Args::parse(argv, &[FLAGS])?;
    let sample_every = args.value("--sample-every")?.unwrap_or(64);
    let trace_out = args.get("--trace-out").unwrap_or("obs_trace.json");
    let series_out = args.get("--series-out").unwrap_or("obs_series.csv");
    let mut failures: Vec<String> = Vec::new();

    // Pass 1: observed litmus sweep.
    let cfg = GpuConfig::small();
    let obs = ObsConfig::full(sample_every);
    let mut runs = 0usize;
    let mut trace_events = 0usize;
    let mut sampled_rows = 0usize;
    let mut mp_trace: Option<String> = None;
    for kind in KINDS {
        for lit in litmus::all(cfg.num_cores, rcc_bench::SEED) {
            let (out, report) = run_litmus_observed(kind, &cfg, &lit, None, Some(&obs))
                .unwrap_or_else(|e| panic!("{e}"));
            let report = report.expect("observer was armed");
            runs += 1;
            trace_events += report.trace.len();
            sampled_rows += report.series.rows();
            if kind.supports_sc() && (out.forbidden || !out.sanitizer_sc) {
                failures.push(format!(
                    "{kind} on {}: forbidden={} sanitizer_sc={} with observer attached",
                    lit.name, out.forbidden, out.sanitizer_sc
                ));
            }
            let leases = report.trace.instant_tids("lease");
            if kind == ProtocolKind::RccSc && leases.is_empty() {
                failures.push(format!("RCC-SC on {}: no lease events traced", lit.name));
            }
            if kind == ProtocolKind::Mesi && !leases.is_empty() {
                failures.push(format!("MESI on {}: traced a lease grant", lit.name));
            }
            if kind == ProtocolKind::RccSc && lit.name == "mp" {
                mp_trace = Some(report.trace.to_chrome_json());
            }
        }
    }
    println!(
        "litmus sweep: {runs} observed runs, {trace_events} trace events, {sampled_rows} sampled rows"
    );

    // Pass 2: rollover-heavy RCC-SC benchmark with the full observer.
    let mut rcfg = cfg.clone();
    rcfg.rcc.rollover_threshold = 300;
    rcfg.rcc.fixed_lease = Some(64);
    let wl = Benchmark::Vpr.generate(&rcfg, &Scale::quick(), rcc_bench::SEED);
    let m = simulate(
        ProtocolKind::RccSc,
        &rcfg,
        &wl,
        &SimOptions::observed(sample_every),
    );
    let report = m.obs.as_ref().expect("observer was armed");
    let resets = report.trace.count_instants("rollover-reset");
    if m.rollovers == 0 || resets == 0 {
        failures.push(format!(
            "rollover run: {} rollovers, {resets} reset events — trace is blind to rollover",
            m.rollovers
        ));
    }
    let expected_tids: Vec<u64> = (0..rcfg.l2.num_partitions as u64)
        .map(|p| track::L2_BASE + p)
        .collect();
    if report.trace.instant_tids("rollover-reset") != expected_tids {
        failures.push("rollover resets missing from some L2 bank tracks".to_string());
    }
    let issued: u64 = report.series.col("issued").map_or(0, |c| c.iter().sum());
    if issued != m.core.issued {
        failures.push(format!(
            "series issued sum {issued} != run total {}",
            m.core.issued
        ));
    }
    println!(
        "benchmark observation: {} cycles, {} rollovers, {} trace events, {} sampled rows",
        m.cycles,
        m.rollovers,
        report.trace.len(),
        report.series.rows()
    );
    if let Some(p) = &m.profile {
        print!("self-profile ({} steps):", p.steps);
        for ph in SimPhase::ALL {
            print!(" {} {:.1}%", ph.label(), 100.0 * p.share(ph));
        }
        println!();
    }

    // Pass 3: export + validate.
    let mp_trace = mp_trace.expect("mp is part of the litmus suite");
    let series_json = report.series.to_json();
    let bench_trace = report.trace.to_chrome_json();
    for (name, schema, doc) in [
        (trace_out, schemas::TRACE, &mp_trace),
        ("benchmark trace", schemas::TRACE, &bench_trace),
        ("series", schemas::TIMESERIES, &series_json),
    ] {
        if let Err(e) = check_schema(name, schema, doc) {
            failures.push(e);
        }
    }
    if failures.is_empty() {
        let series_json_path = format!(
            "{}.json",
            series_out
                .trim_end_matches(".csv")
                .trim_end_matches(".json")
        );
        for (path, body) in [
            (trace_out, &mp_trace),
            (&series_json_path, &series_json),
            (series_out, &report.series.to_csv()),
        ] {
            if let Err(e) = std::fs::write(path, body) {
                eprintln!("cannot write {path}: {e}");
                return Ok(ExitCode::FAILURE);
            }
            println!("wrote {path}");
        }
    }

    Ok(if failures.is_empty() {
        println!("obs smoke: ok");
        ExitCode::SUCCESS
    } else {
        for f in &failures {
            eprintln!("FAILED: {f}");
        }
        eprintln!("obs smoke: {} failure(s)", failures.len());
        ExitCode::FAILURE
    })
}
