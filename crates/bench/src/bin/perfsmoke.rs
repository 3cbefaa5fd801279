//! Engine performance smoke test: measures what the fast-forward engine
//! and the job pool buy over the naive sequential engine, and writes the
//! numbers to `BENCH_sim.json` (consumed by the CI perf-smoke job).
//!
//! Two passes over the same (protocol × benchmark) grid:
//!
//! 1. **baseline** — the every-cycle due policy (fast-forward off: every
//!    component runs every cycle), one job at a time;
//! 2. **optimized** — fast-forward on, grid spread over the job pool
//!    (`--jobs N`, honoured as given; without it one worker per core
//!    here, unlike the figure binaries, because the point is to measure
//!    the speedup).
//!
//! Both passes must agree on every simulated metric — the engine
//! invariant is that the due policy never changes results, only
//! wall-clock — so the binary exits non-zero on any divergence.
//!
//! Both passes run with the simulator self-profiler attached (same
//! overhead on both sides of the comparison); the merged per-phase
//! wall-clock attribution of the optimized pass lands in the report's
//! `self_profile` section, so a perf PR can see *where* its time moved.
//! The JSON is validated against `schemas/bench_sim.schema.json` before
//! it is written. The passes are timed, so the run flags that write
//! per-run files are usage errors here.

use rcc_bench::cli::RunFlags;
use rcc_bench::report::{check_schema, schemas, ProtocolRow, SchedSummary, SimReport};
use rcc_bench::{banner, pool, Harness, PER_RUN_OUTPUTS};
use rcc_core::ProtocolKind;
use rcc_obs::{SimPhase, SimProfile};
use rcc_sim::runner::{simulate, SimOptions};
use rcc_sim::RunMetrics;
use rcc_workloads::{Benchmark, Workload};
use std::time::Instant;

// Workloads are generated once, outside the timed region: generation is
// identical in both passes and is not what this smoke test measures.
fn run_grid(
    h: &Harness,
    workloads: &[Workload],
    opts: &SimOptions,
    jobs: usize,
) -> (Vec<(RunMetrics, f64)>, f64) {
    let grid: Vec<_> = ProtocolKind::ALL
        .into_iter()
        .flat_map(|k| workloads.iter().map(move |wl| (k, wl)))
        .collect();
    let start = Instant::now();
    let results = pool::run_indexed(grid, jobs, |(kind, wl)| {
        // Per-run wall time, measured inside the job so the per-protocol
        // rates below stay meaningful under the pool.
        let t = Instant::now();
        let m = simulate(kind, &h.cfg, wl, opts);
        (m, t.elapsed().as_secs_f64())
    });
    (results, start.elapsed().as_secs_f64())
}

/// Workers for the optimized pass: `--jobs` as given, else one per core
/// (this binary exists to measure the parallel harness, not to be
/// conservative).
fn optimized_jobs(flags: &RunFlags) -> usize {
    flags.jobs.unwrap_or_else(|| pool::resolve_jobs(0))
}

fn main() -> std::process::ExitCode {
    Harness::main_profiled(PER_RUN_OUTPUTS, |h| {
        let jobs = optimized_jobs(&h.flags);
        banner(
            "Perf smoke",
            "engine wall-clock: baseline vs FF + job pool",
            h,
        );

        let workloads: Vec<Workload> = Benchmark::ALL.map(|b| h.workload(b)).to_vec();
        let mut base_opts = h.flags.opts.clone();
        base_opts.fast_forward = false;
        base_opts.profile = true;
        let mut opt_opts = h.flags.opts.clone();
        opt_opts.profile = true;
        let (baseline, baseline_s) = run_grid(h, &workloads, &base_opts, 1);
        let (optimized, optimized_s) = run_grid(h, &workloads, &opt_opts, jobs);

        let mut diverged = 0;
        for ((b, _), (o, _)) in baseline.iter().zip(&optimized) {
            if !b.same_simulated_results(o) {
                eprintln!(
                    "DIVERGENCE: {} on {} differs between baseline and fast-forward",
                    b.kind, b.workload
                );
                diverged += 1;
            }
        }

        let speedup = baseline_s / optimized_s.max(1e-9);
        println!(
            "\n{:8} {:>14} {:>14} {:>12} {:>10}",
            "protocol", "sim cycles", "sim cyc/s", "skipped", "skip%"
        );
        let mut rows = Vec::new();
        for kind in ProtocolKind::ALL {
            let runs: Vec<_> = optimized.iter().filter(|(m, _)| m.kind == kind).collect();
            let cycles: u64 = runs.iter().map(|(m, _)| m.cycles).sum();
            let skipped: u64 = runs.iter().map(|(m, _)| m.skipped_cycles).sum();
            let skip_ratio = skipped as f64 / cycles.max(1) as f64;
            let wall: f64 = runs.iter().map(|(_, s)| s).sum();
            let rate = cycles as f64 / wall.max(1e-9);
            println!(
                "{:8} {:>14} {:>14.0} {:>12} {:>9.1}%",
                kind.label(),
                cycles,
                rate,
                skipped,
                100.0 * skip_ratio
            );
            rows.push(ProtocolRow {
                protocol: kind.label().to_string(),
                sim_cycles: cycles,
                sim_cycles_per_sec: rate,
                skipped_cycles: skipped,
                skip_ratio,
            });
        }

        // Calendar-queue telemetry, merged over every run of the optimized
        // pass: how much event traffic the scheduler carried and how deep the
        // queue got.
        let posted: u64 = optimized.iter().map(|(m, _)| m.sched.events_posted).sum();
        let cancelled: u64 = optimized
            .iter()
            .map(|(m, _)| m.sched.events_cancelled)
            .sum();
        let nruns = optimized.len().max(1) as f64;
        let p50_mean = optimized
            .iter()
            .map(|(m, _)| m.sched.queue_depth_p50)
            .sum::<u64>() as f64
            / nruns;
        let depth_max = optimized
            .iter()
            .map(|(m, _)| m.sched.queue_depth_max)
            .max()
            .unwrap_or(0);
        let scheduler = SchedSummary {
            events_posted: posted,
            events_cancelled: cancelled,
            cancel_ratio: cancelled as f64 / posted.max(1) as f64,
            queue_depth_p50_mean: p50_mean,
            queue_depth_max: depth_max,
        };
        println!(
            "\nscheduler: {posted} events posted, {cancelled} cancelled ({:.1}%), \
         queue depth p50 {p50_mean:.1} / max {depth_max}",
            100.0 * scheduler.cancel_ratio
        );

        // Where the optimized pass's wall-clock actually went, merged over
        // every run.
        let mut profile = SimProfile::new();
        for (m, _) in &optimized {
            if let Some(p) = &m.profile {
                profile.merge(p);
            }
        }
        print!("\nself-profile ({} steps):", profile.steps);
        for ph in SimPhase::ALL {
            print!(" {} {:.1}%", ph.label(), 100.0 * profile.share(ph));
        }
        println!();

        println!(
        "\nbaseline (no FF, sequential): {baseline_s:.2}s   optimized (FF, {jobs} jobs): {optimized_s:.2}s   speedup {speedup:.2}x"
    );
        println!(
            "determinism: {}",
            if diverged == 0 { "ok" } else { "FAILED" }
        );

        let report = SimReport {
            baseline_wall_s: baseline_s,
            optimized_wall_s: optimized_s,
            speedup,
            jobs,
            runs: optimized.len(),
            deterministic: diverged == 0,
            protocols: rows,
            scheduler,
            self_profile: profile,
        };
        let json = report.to_json();
        if let Err(e) = check_schema("BENCH_sim.json", schemas::BENCH_SIM, &json) {
            eprintln!("{e}");
            return std::process::ExitCode::FAILURE;
        }
        if let Err(e) = std::fs::write("BENCH_sim.json", &json) {
            eprintln!("cannot write BENCH_sim.json: {e}");
            return std::process::ExitCode::FAILURE;
        }
        println!("wrote BENCH_sim.json");
        if diverged > 0 {
            return std::process::ExitCode::FAILURE;
        }
        std::process::ExitCode::SUCCESS
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn flags(args: &[&str]) -> RunFlags {
        let argv: Vec<String> = args.iter().map(ToString::to_string).collect();
        Harness::parse_except(&argv, PER_RUN_OUTPUTS)
            .expect("valid command line")
            .flags
    }

    #[test]
    fn an_explicit_jobs_flag_is_honoured() {
        assert_eq!(optimized_jobs(&flags(&["--quick", "--jobs", "1"])), 1);
        assert_eq!(optimized_jobs(&flags(&["--quick", "--jobs", "3"])), 3);
        let cores = pool::resolve_jobs(0);
        assert_eq!(optimized_jobs(&flags(&["--quick", "--jobs", "0"])), cores);
        assert_eq!(optimized_jobs(&flags(&["--quick"])), cores);
    }
}
