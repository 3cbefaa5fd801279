//! `fig-grid`: all 7 protocols × 12 benchmarks on the GTX 480 machine of
//! Table III at standard scale, run sequentially on one thread — the
//! paper's figure grid, end to end. The serve layers stay idle.
//!
//! One round runs the grid once per input seed of [`crate::input_seeds`],
//! and `wall_s` is the mean grid time; the six ratios come from the
//! grid at the run's own seed.

use crate::layers::{self, Cycles, Engine};
use crate::spans::Tracer;
use crate::stats::{self, median, median_wall, tail, SetUp};
use crate::{input_seeds, Args, Outcome};
use rcc_common::GpuConfig;
use rcc_core::ProtocolKind;
use rcc_obs::DigestWriter;
use rcc_sim::{RunMetrics, SimOptions};
use rcc_workloads::{Benchmark, Scale, Workload};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

/// What one pass over the grid produced.
struct Grid {
    job_ms: Vec<f64>,
    runs: Vec<Result<RunMetrics, String>>,
}

impl Grid {
    /// Engine counts summed over the round, with the per-job wall times.
    fn engine(&self) -> Engine {
        let mut e = Engine::default();
        for (m, ms) in self.runs.iter().zip(&self.job_ms) {
            if let Ok(m) = m {
                e.add(m, ms / 1e3);
            }
        }
        e
    }

    /// Combined digest of every result: equal digests mean bit-identical
    /// simulated results.
    fn digest(&self) -> u64 {
        let mut d = DigestWriter::new(0);
        for m in self.runs.iter().flatten() {
            d.write_u64(rcc_serve::ResultSummary::from_metrics(m).metrics_digest);
        }
        d.finish()
    }
}

/// (index into the generated workloads, benchmark, protocol) of every
/// simulation in a round; the first grid is the run's own seed.
fn cells(grids: usize) -> impl Iterator<Item = (usize, Benchmark, ProtocolKind)> {
    (0..grids).flat_map(|g| {
        Benchmark::ALL
            .into_iter()
            .enumerate()
            .flat_map(move |(i, b)| ProtocolKind::ALL.map(|k| (g * Benchmark::ALL.len() + i, b, k)))
    })
}

fn grid(cfg: &GpuConfig, wls: &[Workload], opts: &SimOptions, tracer: &Tracer) -> Grid {
    let mut job_ms = Vec::new();
    let mut runs = Vec::new();
    let grids = wls.len() / Benchmark::ALL.len();
    for (job, (i, _, kind)) in cells(grids).enumerate() {
        let t = Instant::now();
        let res = tracer.span("sim.try_simulate", None, Some(job as u64), |_| {
            catch_unwind(AssertUnwindSafe(|| {
                rcc_sim::try_simulate(kind, cfg, &wls[i], opts)
            }))
        });
        job_ms.push(t.elapsed().as_secs_f64() * 1e3);
        runs.push(match res {
            Ok(Ok(m)) => Ok(m),
            Ok(Err(e)) => Err(format!("{} on {}: {e}", kind.label(), wls[i].name)),
            Err(_) => Err(format!("{} on {}: panicked", kind.label(), wls[i].name)),
        });
    }
    Grid { job_ms, runs }
}

pub fn run(args: &Args) -> Result<Outcome, String> {
    let cfg = GpuConfig::gtx480();
    let scale = Scale::standard();
    let mut setup = SetUp::new(
        || {
            Ok(input_seeds(args.seed)
                .into_iter()
                .flat_map(|seed| Benchmark::ALL.map(|b| b.generate(&cfg, &scale, seed)))
                .collect::<Vec<Workload>>())
        },
        |_| Ok(()),
    );
    let wls = setup.batch()?;

    let untraced = Tracer::new(false);
    let plain = stats::rounds(
        args.seconds,
        &untraced,
        || setup.sample(),
        || Ok(grid(&cfg, &wls, &SimOptions::fast(), &untraced)),
    )?;
    let traced = if args.trace {
        let tracer = Tracer::new(true);
        let opts = SimOptions {
            profile: true,
            ..SimOptions::fast()
        };
        let traced = stats::rounds(
            args.seconds,
            &tracer,
            || Ok(()),
            || Ok(grid(&cfg, &wls, &opts, &tracer)),
        )?;
        Some((tracer, traced))
    } else {
        None
    };
    let setup_s = setup.finish()?;
    let all: Vec<&Grid> = plain
        .iter()
        .chain(traced.iter().flat_map(|t| &t.1))
        .map(|r| &r.out)
        .collect();

    let mut out = Outcome::default();
    for r in &all {
        for res in &r.runs {
            out.attempted += 1;
            if let Err(e) = res {
                out.failed += 1;
                out.notes.push(e.clone());
            }
        }
    }
    // Every round, profiled or not, must reproduce the first one exactly.
    let (digest, exact) = (all[0].digest(), all[0].engine().exact());
    for r in &all[1..] {
        if r.digest() != digest || r.engine().exact() != exact {
            out.failed += 1;
            out.notes
                .push("grid rounds disagree on results or exact counts".into());
        }
    }
    out.notes.push(format!(
        "results digest {digest:016x} ({} rounds)",
        all.len()
    ));

    let mut cycles = Cycles::new();
    let own_grid = Benchmark::ALL.len() * ProtocolKind::ALL.len();
    for ((_, b, k), res) in cells(1).zip(&plain[0].out.runs[..own_grid]) {
        if let Ok(m) = res {
            cycles.insert((b.name().to_string(), layers::proto_name(k)), m.cycles);
        }
    }
    let ratios = layers::ratios(&cycles).ok_or("grid is missing runs for the six ratios")?;
    if args.seed == 7 {
        let rounded = ratios.map(|r| (r * 100.0).round() / 100.0);
        let verdict = if rounded == layers::EXPERIMENTS_SEED7 {
            "match"
        } else {
            out.failed += 1;
            "MISMATCH"
        };
        out.notes.push(format!(
            "seed 7 ratios {rounded:?} vs EXPERIMENTS.md measured column {:?}: {verdict}",
            layers::EXPERIMENTS_SEED7
        ));
    }

    let p50: Vec<f64> = plain.iter().map(|r| median(&r.out.job_ms)).collect();
    let tails: Vec<(f64, f64, usize)> = plain.iter().map(|r| tail(&r.out.job_ms)).collect();
    let e = &mut out.e2e;
    e.put("setup_s", setup_s, "s");
    let grids = input_seeds(args.seed).len() as f64;
    e.put("wall_s", median_wall(&plain) / grids, "s");
    e.put("turnaround_p50_ms", median(&p50), "ms");
    e.put(
        "turnaround_tail_ms",
        median(&tails.iter().map(|t| t.0).collect::<Vec<_>>()),
        "ms",
    );
    e.put("repro_err", layers::repro_err(&ratios), "1");
    out.notes.push(format!(
        "turnaround is one simulation's host time; turnaround_tail_ms is p{:.1} of {} jobs per round ({} above it)",
        tails[0].1,
        plain[0].out.job_ms.len(),
        tails[0].2
    ));

    if let Some((tracer, traced)) = traced {
        let l = &mut out.layer;
        l.put("workloads.generate_s", setup_s, "s");
        traced[0].out.engine().put(l);
        layers::put_ratios(l, &ratios);
        l.put(
            "trace.overhead",
            median_wall(&traced) / median_wall(&plain) - 1.0,
            "1",
        );
        crate::finish_trace(args, &tracer, stats::span_of(&traced), l)?;
    }
    Ok(out)
}
