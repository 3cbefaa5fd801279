//! Benchmark harness: regenerates every table and figure of the paper's
//! evaluation (see the experiment index in DESIGN.md and the results in
//! EXPERIMENTS.md).
//!
//! Each `fig*`/`table*` binary runs the simulations it needs and prints
//! the same rows/series the paper reports. Absolute numbers differ from
//! the paper (this is a from-scratch simulator, not the authors'
//! GPGPU-Sim + Ruby testbed); the *shape* — who wins, by roughly what
//! factor, where the crossovers fall — is what EXPERIMENTS.md compares.
//!
//! Common flags for all binaries:
//!
//! * `--quick` — small machine + tiny workloads (seconds; for smoke runs)
//! * `--full`  — all 48 warp contexts per core (several minutes)
//! * default   — the GTX 480 machine of Table III with 16 warps per core
//! * `--sanitize` — attach the `rcc-verify` runtime SC sanitizer to every
//!   run; SC-capable protocols must produce an execution some SC total
//!   order explains, or the run aborts (adds an end-of-run check, slows
//!   recording slightly)
//! * `--chaos seed=N,profile=P` — arm deterministic perturbation
//!   injection (`rcc-chaos`) on every run; profiles: `light`, `heavy`,
//!   `reorder`, `canary` (the last is deliberately unsound — pair it
//!   with `--sanitize` to watch the sanitizer catch it)
//! * `--sample-every N` — record a metrics time-series sample every N
//!   cycles (see `rcc-obs`); exported with `--series-out`
//! * `--trace-out PATH` — write a Chrome/Perfetto trace of the runs a
//!   binary chooses to export (see [`Harness::dump_observation`])
//! * `--series-out PATH` — write the sampled time-series (`.csv` or
//!   `.json` by extension; defaults sampling to every 256 cycles if
//!   `--sample-every` is absent)
//! * `--profile` — attach the simulator self-profiler to every run
//! * `--checkpoint PATH` — periodic snapshots for every run; each run
//!   writes `PATH-<protocol>-<workload>` (plus a `.manifest.json`
//!   sidecar), and a deadlocked run leaves a replayable auto-checkpoint
//!   at `...hang`
//! * `--checkpoint-every N` — snapshot period in cycles: the slice
//!   quantum each run goes in (default 1000000 when `--checkpoint` is
//!   given)
//! * `--resume PATH` — replay one snapshot and print its metrics
//!   instead of running the experiment (exit 1 on a typed failure,
//!   e.g. when a `.hang` snapshot faithfully reproduces its deadlock)
//! * `--record-trace STEM` — capture every run's memory-access trace;
//!   each run writes `STEM-<protocol>-<workload>.rcct` (plus a
//!   `.manifest.json` sidecar; inspect with the `rcc-trace` tool)
//! * `--replay-trace PATH` — substitute a recorded or hand-authored
//!   trace (RCCT binary or text) for every benchmark the binary would
//!   generate; pair with `--chaos` for trace fuzzing

#![forbid(unsafe_code)]

pub mod pool;
pub mod report;

use rcc_common::stats::gmean;
use rcc_common::GpuConfig;
use rcc_core::ProtocolKind;
use rcc_sim::runner::{simulate, SimOptions};
use rcc_sim::RunMetrics;
use rcc_workloads::{Benchmark, Scale, Workload};

/// Seed used by all figure runs (reproducibility).
pub const SEED: u64 = 7;

/// Harness configuration derived from the command line.
#[derive(Debug, Clone)]
pub struct Harness {
    /// Machine configuration.
    pub cfg: GpuConfig,
    /// Workload scale.
    pub scale: Scale,
    /// Simulation options.
    pub opts: SimOptions,
    /// Worker threads for experiment grids (`--jobs N`; 1 = sequential).
    pub jobs: usize,
    /// Where `--trace-out` asked for a Chrome-trace export (`None` = off).
    pub trace_out: Option<String>,
    /// Where `--series-out` asked for a time-series export (`None` = off).
    pub series_out: Option<String>,
    /// Checkpoint path stem from `--checkpoint`; each run snapshots to
    /// `<stem>-<protocol>-<workload>` so grid runs don't collide.
    pub checkpoint: Option<String>,
    /// Trace stem from `--record-trace`; each run captures its
    /// memory-access trace to `<stem>-<protocol>-<workload>.rcct`.
    pub record_trace: Option<String>,
    /// Trace path from `--replay-trace`: substituted for every generated
    /// workload (see [`Harness::workload`]).
    pub replay_trace: Option<String>,
}

impl Harness {
    /// Parses `--quick` / `--full` / `--sanitize` / `--chaos SPEC` /
    /// `--jobs N` / `--sample-every N` / `--trace-out PATH` /
    /// `--series-out PATH` / `--profile` from the process arguments.
    pub fn from_args() -> Harness {
        let args: Vec<String> = std::env::args().collect();
        let quick = args.iter().any(|a| a == "--quick");
        let full = args.iter().any(|a| a == "--full");
        let mut opts = SimOptions::fast();
        opts.sanitize = args.iter().any(|a| a == "--sanitize");
        opts.chaos = parse_chaos(&args);
        opts.profile = args.iter().any(|a| a == "--profile");
        let flag_value = |flag: &str| {
            args.iter()
                .position(|a| a == flag)
                .and_then(|i| args.get(i + 1).cloned())
        };
        let trace_out = flag_value("--trace-out");
        let series_out = flag_value("--series-out");
        opts.trace = trace_out.is_some();
        opts.sample_every = flag_value("--sample-every")
            .and_then(|n| n.parse::<u64>().ok())
            .unwrap_or(if series_out.is_some() { 256 } else { 0 });
        let jobs = parse_jobs(&args);
        // `--resume` short-circuits the whole experiment: replay the one
        // snapshot, print its metrics, and exit with the run's verdict.
        if let Some(path) = flag_value("--resume") {
            match rcc_sim::runner::resume(&path) {
                Ok(m) => {
                    println!(
                        "resumed {} on {}: {} cycles, IPC {:.4}, digest {:016x}",
                        m.kind.label(),
                        m.workload,
                        m.cycles,
                        m.ipc(),
                        m.digest(1)
                    );
                    std::process::exit(0);
                }
                Err(e) => {
                    eprintln!("error: {e}");
                    std::process::exit(1);
                }
            }
        }
        let checkpoint = flag_value("--checkpoint");
        // The snapshot period is the slice quantum: a whole run saves
        // the checkpoint at every quantum boundary.
        opts.quantum = flag_value("--checkpoint-every")
            .and_then(|n| n.parse::<u64>().ok())
            .unwrap_or(if checkpoint.is_some() { 1_000_000 } else { 0 });
        let (cfg, scale) = if quick {
            (GpuConfig::small(), Scale::quick())
        } else if full {
            (GpuConfig::gtx480(), Scale::full())
        } else {
            (GpuConfig::gtx480(), Scale::standard())
        };
        Harness {
            cfg,
            scale,
            opts,
            jobs,
            trace_out,
            series_out,
            checkpoint,
            record_trace: flag_value("--record-trace"),
            replay_trace: flag_value("--replay-trace"),
        }
    }

    /// Per-run options: the shared options plus, when `--checkpoint` was
    /// given, a snapshot path unique to this (protocol, workload) pair.
    fn opts_for(&self, kind: ProtocolKind, workload: &str) -> SimOptions {
        let mut opts = self.opts.clone();
        if let Some(stem) = &self.checkpoint {
            opts.checkpoint = Some(format!("{stem}-{}-{workload}", kind.label()));
        }
        if let Some(stem) = &self.record_trace {
            opts.record_trace = Some(format!("{stem}-{}-{workload}.rcct", kind.label()));
        }
        opts
    }

    /// Writes one run's recorded observation to the `--trace-out` /
    /// `--series-out` paths (whichever were given). The series export is
    /// CSV unless the path ends in `.json`. Does nothing when the run
    /// carried no observation.
    pub fn dump_observation(&self, m: &RunMetrics) -> std::io::Result<()> {
        let Some(obs) = &m.obs else { return Ok(()) };
        if let Some(path) = &self.trace_out {
            std::fs::write(path, obs.trace.to_chrome_json())?;
            println!("wrote {path} ({} trace events)", obs.trace.len());
        }
        if let Some(path) = &self.series_out {
            let dump = if path.ends_with(".json") {
                obs.series.to_json()
            } else {
                obs.series.to_csv()
            };
            std::fs::write(path, dump)?;
            println!("wrote {path} ({} sampled rows)", obs.series.rows());
        }
        Ok(())
    }

    /// Generates a benchmark's workload at this harness's scale — or,
    /// under `--replay-trace`, the workload lowered from the trace file
    /// (every benchmark the binary asks for replays the same trace). A
    /// bad trace file aborts: silently falling back to the generated
    /// workload would defeat the flag.
    pub fn workload(&self, bench: Benchmark) -> Workload {
        let Some(path) = &self.replay_trace else {
            return bench.generate(&self.cfg, &self.scale, SEED);
        };
        match load_trace_workload(path, self.cfg.num_cores) {
            Ok(wl) => wl,
            Err(e) => {
                eprintln!("cannot replay {path}: {e}");
                std::process::exit(2);
            }
        }
    }

    /// Runs one (protocol, benchmark) pair.
    pub fn run(&self, kind: ProtocolKind, bench: Benchmark) -> RunMetrics {
        let wl = self.workload(bench);
        self.run_workload(kind, &wl)
    }

    /// Runs one protocol over a prepared workload.
    pub fn run_workload(&self, kind: ProtocolKind, wl: &Workload) -> RunMetrics {
        simulate(kind, &self.cfg, wl, &self.opts_for(kind, wl.name))
    }

    /// Runs a whole experiment grid over the job pool, returning metrics
    /// in the order the pairs were given (independent of `jobs`). Each
    /// job regenerates its workload from the shared seed, so results
    /// match per-pair [`Harness::run`] calls exactly.
    pub fn run_pairs(&self, pairs: &[(ProtocolKind, Benchmark)]) -> Vec<RunMetrics> {
        pool::run_indexed(pairs.to_vec(), self.jobs, |(kind, bench)| {
            self.run(kind, bench)
        })
    }
}

/// Loads a trace file (RCCT binary or text dialect) and lowers it to a
/// runnable workload spanning `num_cores` cores.
///
/// # Errors
///
/// Whatever [`rcc_trace::Trace::load_any`] reports, plus
/// [`rcc_trace::TraceError::Mismatch`] when the trace spans more cores
/// than the machine has.
pub fn load_trace_workload(
    path: &str,
    num_cores: usize,
) -> Result<Workload, rcc_trace::TraceError> {
    rcc_trace::Trace::load_any(path)?.to_workload(num_cores)
}

/// Parses `--jobs N` (`0` = one per core) from an argument list;
/// defaults to 1 (sequential).
pub fn parse_jobs(args: &[String]) -> usize {
    args.iter()
        .position(|a| a == "--jobs")
        .and_then(|i| args.get(i + 1))
        .and_then(|n| n.parse::<usize>().ok())
        .map_or(1, pool::resolve_jobs)
}

/// Parses `--chaos seed=N,profile=P` from an argument list; `None` when
/// the flag is absent. A malformed spec aborts with the parser's message
/// (silently running unperturbed would defeat the point of the flag).
pub fn parse_chaos(args: &[String]) -> Option<rcc_chaos::ChaosSpec> {
    let spec = args
        .iter()
        .position(|a| a == "--chaos")
        .map(|i| args.get(i + 1).cloned().unwrap_or_default())?;
    match rcc_chaos::ChaosSpec::parse(&spec) {
        Ok(spec) => Some(spec),
        Err(e) => {
            eprintln!("{e}");
            std::process::exit(2);
        }
    }
}

/// Prints a header with the figure id and run configuration.
pub fn banner(fig: &str, what: &str, h: &Harness) {
    println!("================================================================");
    println!("{fig}: {what}");
    println!(
        "machine: {} cores x {} warps, L2 {} KiB x {}, scale {} warps/core x {} iters, seed {}",
        h.cfg.num_cores,
        h.cfg.warps_per_core,
        h.cfg.l2.partition.size_bytes / 1024,
        h.cfg.l2.num_partitions,
        h.scale.warps_per_core,
        h.scale.iters,
        SEED,
    );
    println!("================================================================");
}

/// Percent formatting helper.
pub fn pct(x: f64) -> String {
    format!("{:.1}%", 100.0 * x)
}

/// Geometric mean over a slice (1.0 when empty — identity for speedups).
pub fn gmean_or_one(values: &[f64]) -> f64 {
    gmean(values.iter().copied()).unwrap_or(1.0)
}

/// The six inter-workgroup benchmarks (left half of every figure).
pub fn inter() -> Vec<Benchmark> {
    Benchmark::inter_workgroup()
}

/// The six intra-workgroup benchmarks (right half of every figure).
pub fn intra() -> Vec<Benchmark> {
    Benchmark::intra_workgroup()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn harness_defaults_to_gtx480() {
        let h = Harness::from_args();
        assert!(h.cfg.num_cores >= 4);
    }

    #[test]
    fn gmean_or_one_handles_empty() {
        assert_eq!(gmean_or_one(&[]), 1.0);
        assert!((gmean_or_one(&[2.0, 8.0]) - 4.0).abs() < 1e-12);
    }

    #[test]
    fn benchmark_halves() {
        assert_eq!(inter().len(), 6);
        assert_eq!(intra().len(), 6);
    }

    #[test]
    fn parse_chaos_flag() {
        let args: Vec<String> = ["bin", "--chaos", "seed=5,profile=heavy"]
            .iter()
            .map(ToString::to_string)
            .collect();
        let spec = parse_chaos(&args).expect("flag present");
        assert_eq!(spec.seed, 5);
        assert_eq!(spec.profile.name, "heavy");
        assert!(parse_chaos(&["bin".to_string()]).is_none());
    }
}
