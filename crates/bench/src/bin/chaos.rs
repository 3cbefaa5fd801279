//! Chaos sweep: prove SC survives arbitrary timing, and that the
//! sanitizer catches a protocol that does not.
//!
//! Three passes, all deterministic in the chaos seed, writing
//! `BENCH_chaos.json`:
//!
//! 1. **Litmus sweep** — every sound chaos profile × every seed ×
//!    {RCC-SC, MESI, TC-Weak} over the full litmus suite, with the
//!    runtime SC sanitizer attached to every run. For the SC protocols a
//!    forbidden outcome *or* a failed sanitizer verdict is a violation;
//!    for TC-Weak only the fenced/atomic/coherence tests must hold
//!    (unfenced weak outcomes are its documented behaviour).
//! 2. **Canary** — the deliberately unsound `canary` profile (a lost
//!    lease-extension: leases truncate to one cycle but the L1 keeps
//!    serving the expired lines) under RCC-SC. The sanitizer must flag
//!    it — on the very first litmus run for at least one seed — or the
//!    harness cannot be trusted to catch real protocol holes.
//! 3. **Benchmark smoke** — each sound profile × protocol over a few
//!    quick benchmarks with the sanitizer on (`try_simulate` fails on a
//!    violated verdict, so a grid with no failed jobs *is* the check).
//!
//! Flags: `--seeds N` (default 64; `--quick` defaults to 8), `--jobs N`,
//! `--out PATH` (default `BENCH_chaos.json`).

use rcc_bench::cli::{Args, UsageError};
use rcc_bench::pool;
use rcc_bench::report::{
    check_schema, schemas, BenchRow, CanarySummary, ChaosReport, FailedJobRow, ViolationRow,
};
use rcc_chaos::{ChaosProfile, ChaosSpec};
use rcc_common::GpuConfig;
use rcc_core::ProtocolKind;
use rcc_sim::litmus::{run_litmus_chaos, LitmusOutcome};
use rcc_sim::runner::{try_simulate, SimOptions};
use rcc_sim::SimError;
use rcc_workloads::{litmus, Benchmark, Scale};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::process::ExitCode;

const KINDS: [ProtocolKind; 3] = [
    ProtocolKind::RccSc,
    ProtocolKind::Mesi,
    ProtocolKind::TcWeak,
];

/// The litmus tests whose forbidden outcome even TC-Weak must never
/// show: fences, release-style atomics, and per-location coherence.
const TCW_MUST_HOLD: [&str; 4] = ["mp+fence", "sb+fence", "mp+atomic", "corr"];

fn violation(
    profile: &str,
    seed: u64,
    kind: ProtocolKind,
    litmus: &str,
    out: &LitmusOutcome,
) -> ViolationRow {
    ViolationRow {
        profile: profile.to_string(),
        seed,
        protocol: kind.label().to_string(),
        litmus: litmus.to_string(),
        values: out.values.clone(),
        sanitizer_sc: out.sanitizer_sc,
    }
}

fn is_violation(kind: ProtocolKind, name: &'static str, out: &LitmusOutcome) -> bool {
    if kind.supports_sc() {
        out.forbidden || !out.sanitizer_sc
    } else {
        out.forbidden && TCW_MUST_HOLD.contains(&name)
    }
}

/// Runs one pass's jobs on the pool. A job that returns an error or
/// panics leaves `None` in its slot and a `failed_jobs` row for `pass`
/// (one attempt: the run is deterministic, so a rerun would fail the
/// same way); the rest of the pass still completes.
fn run_pass<J: Send, T: Send>(
    pass: &str,
    jobs: Vec<J>,
    threads: usize,
    failed: &mut Vec<FailedJobRow>,
    f: impl Fn(J) -> Result<T, SimError> + Sync,
) -> Vec<Option<T>> {
    let outcomes = pool::run_indexed(jobs, threads, |job| {
        catch_unwind(AssertUnwindSafe(|| f(job)))
            .map_err(|payload| rcc_common::unwind::panic_reason(payload.as_ref()))
            .and_then(|r| r.map_err(|e| e.to_string()))
    });
    outcomes
        .into_iter()
        .enumerate()
        .map(|(index, outcome)| match outcome {
            Ok(v) => Some(v),
            Err(reason) => {
                failed.push(FailedJobRow {
                    pass: pass.to_string(),
                    index: index as u64,
                    attempts: 1,
                    reason,
                });
                None
            }
        })
        .collect()
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    run(&argv).unwrap_or_else(|e| e.report())
}

fn run(argv: &[String]) -> Result<ExitCode, UsageError> {
    let args = Args::parse(argv, &["--quick, --seeds N, --jobs N, --out PATH"])?;
    let quick = args.has("--quick");
    let seeds = args.value("--seeds")?.unwrap_or(if quick { 8 } else { 64 });
    let jobs = args.value("--jobs")?.map_or(1, pool::resolve_jobs);
    let out_path = args.get("--out").unwrap_or("BENCH_chaos.json");

    // Correctness sweep, not a performance experiment: the small machine
    // exercises every protocol path and keeps the grid tractable.
    let cfg = GpuConfig::small();
    let profiles = ChaosProfile::sound();
    println!(
        "chaos sweep: {} seeds x {} profiles x {} protocols over {} litmus tests ({} jobs)",
        seeds,
        profiles.len(),
        KINDS.len(),
        litmus::all(cfg.num_cores, 0).len(),
        jobs,
    );

    // Pass 1: litmus sweep over the sound profiles. One job = one
    // (profile, seed, protocol) triple running the whole suite. A
    // deadlocked or panicking cell becomes a failed-job row in the
    // report, and the rest of the sweep still completes.
    let mut failed_jobs: Vec<FailedJobRow> = Vec::new();
    let grid: Vec<(&'static str, u64, ProtocolKind)> = profiles
        .iter()
        .flat_map(|p| (0..seeds).flat_map(move |s| KINDS.into_iter().map(move |k| (p.name, s, k))))
        .collect();
    let results = run_pass(
        "litmus",
        grid,
        jobs,
        &mut failed_jobs,
        |(profile, seed, kind)| {
            let spec = ChaosSpec::new(seed, ChaosProfile::by_name(profile).expect("preset name"));
            let mut violations = Vec::new();
            let mut runs = 0u64;
            for lit in litmus::all(cfg.num_cores, seed) {
                let out = run_litmus_chaos(kind, &cfg, &lit, Some(&spec))?;
                runs += 1;
                if is_violation(kind, lit.name, &out) {
                    violations.push(violation(profile, seed, kind, lit.name, &out));
                }
            }
            Ok((runs, violations))
        },
    );
    let litmus_runs: u64 = results.iter().flatten().map(|(r, _)| r).sum();
    let violations: Vec<ViolationRow> =
        results.into_iter().flatten().flat_map(|(_, v)| v).collect();
    for v in &violations {
        eprintln!(
            "VIOLATION: {} seed={} {} on {}: values {:?}, sanitizer_sc={}",
            v.profile, v.seed, v.protocol, v.litmus, v.values, v.sanitizer_sc
        );
    }
    println!(
        "litmus sweep: {} runs, {} violations",
        litmus_runs,
        violations.len()
    );

    // Pass 2: the canary must be caught. Not every seed's timing lets
    // the planted bug *bite* (if the reader never observes the racing
    // flag, its stale reads stay SC-explainable — correctly unflagged),
    // so the contract is: (a) whenever a run shows a forbidden outcome
    // the sanitizer must flag it, and (b) at least one seed is flagged
    // on its very first litmus run.
    let canary_seeds: Vec<u64> = (0..seeds.min(8)).collect();
    let canary_results = run_pass(
        "canary",
        canary_seeds.clone(),
        jobs,
        &mut failed_jobs,
        |seed| {
            let spec = ChaosSpec::new(seed, ChaosProfile::canary());
            let mut first_caught = None;
            let mut bitten_but_missed = 0u64;
            for (i, lit) in litmus::all(cfg.num_cores, seed).iter().enumerate() {
                let out = run_litmus_chaos(ProtocolKind::RccSc, &cfg, lit, Some(&spec))?;
                if !out.sanitizer_sc && first_caught.is_none() {
                    first_caught = Some(i as u64 + 1);
                }
                if out.forbidden && out.sanitizer_sc {
                    bitten_but_missed += 1;
                }
            }
            Ok((first_caught, bitten_but_missed))
        },
    );
    let canary_caught = canary_results
        .iter()
        .flatten()
        .filter(|(c, _)| c.is_some())
        .count();
    let min_runs = canary_results
        .iter()
        .flatten()
        .filter_map(|(c, _)| *c)
        .min();
    let missed: u64 = canary_results.iter().flatten().map(|(_, m)| m).sum();
    let canary_ok = canary_caught >= 1 && min_runs == Some(1) && missed == 0;
    println!(
        "canary: {}/{} seeds caught, earliest after {:?} run(s), {} forbidden outcomes unflagged",
        canary_caught,
        canary_seeds.len(),
        min_runs,
        missed,
    );

    // Pass 3: quick benchmarks under chaos with the sanitizer attached.
    // `try_simulate` fails if an SC-capable protocol fails the sanitizer
    // under a sound profile, so a clean grid *is* the check; a failed
    // cell is reported and the grid still completes.
    let benches = if quick {
        vec![Benchmark::Hsp, Benchmark::Dlb]
    } else {
        vec![Benchmark::Hsp, Benchmark::Dlb, Benchmark::Cl]
    };
    let mut bench_grid: Vec<(&'static str, ProtocolKind, Benchmark)> = Vec::new();
    for p in &profiles {
        for k in KINDS {
            for &b in &benches {
                bench_grid.push((p.name, k, b));
            }
        }
    }
    let bench_results = run_pass(
        "bench",
        bench_grid,
        jobs,
        &mut failed_jobs,
        |(profile, kind, bench)| {
            let mut opts = SimOptions::fast();
            opts.sanitize = true;
            opts.chaos = Some(ChaosSpec::new(
                1,
                ChaosProfile::by_name(profile).expect("preset name"),
            ));
            let wl = bench.generate(&cfg, &Scale::quick(), rcc_bench::SEED);
            let m = try_simulate(kind, &cfg, &wl, &opts)?;
            Ok(BenchRow {
                profile: profile.to_string(),
                protocol: kind.label().to_string(),
                benchmark: format!("{bench:?}"),
                cycles: m.cycles,
                chaos_events: m.chaos_events,
                sanitizer_sc: m.sanitizer_sc.unwrap_or(false),
            })
        },
    );
    let bench_rows: Vec<BenchRow> = bench_results.into_iter().flatten().collect();
    println!("benchmark smoke: {} runs, all sanitized", bench_rows.len());

    let report = ChaosReport {
        seeds,
        profiles: profiles.iter().map(|p| p.name.to_string()).collect(),
        protocols: KINDS.map(|k| k.label().to_string()).to_vec(),
        litmus_runs,
        violations,
        canary: CanarySummary {
            seeds: canary_seeds.len() as u64,
            caught: canary_caught as u64,
            earliest_caught_after_runs: min_runs,
            forbidden_unflagged: missed,
        },
        benchmarks: bench_rows,
        failed_jobs,
    };
    let json = report.to_json();
    if let Err(e) = check_schema(out_path, schemas::BENCH_CHAOS, &json) {
        eprintln!("{e}");
        return Ok(ExitCode::FAILURE);
    }
    if let Err(e) = std::fs::write(out_path, &json) {
        eprintln!("cannot write {out_path}: {e}");
        return Ok(ExitCode::FAILURE);
    }
    println!("wrote {out_path}");

    if !report.violations.is_empty() || !canary_ok || !report.failed_jobs.is_empty() {
        for f in &report.failed_jobs {
            eprintln!(
                "FAILED JOB: pass={} index={} attempts={}: {}",
                f.pass, f.index, f.attempts, f.reason
            );
        }
        eprintln!(
            "chaos sweep FAILED: {} violations, {} failed jobs, canary ok: {canary_ok}",
            report.violations.len(),
            report.failed_jobs.len(),
        );
        return Ok(ExitCode::FAILURE);
    }
    println!("chaos sweep: ok");
    Ok(ExitCode::SUCCESS)
}
