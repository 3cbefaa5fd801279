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
//! Every figure binary reads its command line through [`Harness::main`]:
//! `--quick` (small machine, tiny workloads), `--full` (48 warps per
//! core), or by default the GTX 480 of Table III at 16 warps per core;
//! plus the run flags it shares with `rcc-repro`, documented in [`cli`].
//! No figure binary exports one run's observation, and a binary that
//! builds its own runs writes no per-run files ([`PER_RUN_OUTPUTS`]):
//! the flags that ask for those are usage errors (exit 2), not runs that
//! pay for the output and write nothing.

#![forbid(unsafe_code)]

pub mod cli;
pub mod pool;
pub mod report;

use cli::{Args, RunFlags, UsageError, RUN_FLAGS};
use rcc_common::stats::gmean;
use rcc_common::GpuConfig;
use rcc_core::ProtocolKind;
use rcc_sim::runner::{simulate, SimOptions};
use rcc_sim::RunMetrics;
use rcc_workloads::{Benchmark, Scale, Workload};
use std::process::{ExitCode, Termination};

/// Seed used by all figure runs (reproducibility).
pub const SEED: u64 = 7;

/// The run flags that export one run's observation. `rcc-repro` exports
/// its `--protocol` run; a figure binary runs a grid and rejects them.
const OBSERVATION_FLAGS: [&str; 3] = ["--trace-out", "--series-out", "--sample-every"];

/// The run flags that write files per run. Only [`Harness::run`] names
/// each run's files, so a binary that builds its own runs (another
/// machine, scale or pass per run) rejects these.
pub const PER_RUN_OUTPUTS: &[&str] = &["--checkpoint", "--checkpoint-every", "--record-trace"];

/// Harness configuration derived from the command line.
#[derive(Debug, Clone)]
pub struct Harness {
    /// Machine configuration.
    pub cfg: GpuConfig,
    /// Workload scale.
    pub scale: Scale,
    /// The shared run flags; `--checkpoint` and `--record-trace` are
    /// stems, so grid runs don't collide.
    pub flags: RunFlags,
}

impl Harness {
    /// Parses a figure binary's arguments (without the program name).
    pub fn parse(argv: &[String]) -> Result<Harness, UsageError> {
        Self::parse_except(argv, &[])
    }

    /// [`Harness::parse`] for a binary that cannot act on the run flags
    /// in `unsupported`: giving one is a usage error.
    pub fn parse_except(argv: &[String], unsupported: &[&str]) -> Result<Harness, UsageError> {
        let args = Args::parse(argv, &["--quick, --full", RUN_FLAGS])?;
        if let Some(flag) = OBSERVATION_FLAGS.iter().find(|f| args.has(f)) {
            return Err(UsageError(format!(
                "{flag}: a figure binary runs a grid and exports no single run's \
                 observation (use rcc-repro --protocol P --bench B)"
            )));
        }
        if let Some(flag) = unsupported.iter().find(|f| args.has(f)) {
            return Err(UsageError(format!(
                "{flag}: this binary builds its own runs and cannot honour it"
            )));
        }
        let (cfg, scale) = if args.has("--quick") {
            (GpuConfig::small(), Scale::quick())
        } else if args.has("--full") {
            (GpuConfig::gtx480(), Scale::full())
        } else {
            (GpuConfig::gtx480(), Scale::standard())
        };
        let flags = RunFlags::parse(&args, cfg.num_cores)?;
        Ok(Harness { cfg, scale, flags })
    }

    /// A figure binary's `main`: runs `body` on the parsed process
    /// arguments. A usage error exits 2; `--resume PATH` replays that
    /// snapshot instead, exiting 1 on a typed failure (e.g. a `.hang`
    /// snapshot faithfully reproducing its deadlock).
    pub fn main<T: Termination>(body: impl FnOnce(&Harness) -> T) -> ExitCode {
        Self::main_except(&[], body)
    }

    /// [`Harness::main`] for a binary that cannot act on the run flags in
    /// `unsupported` (see [`Harness::parse_except`]).
    pub fn main_except<T: Termination>(
        unsupported: &[&str],
        body: impl FnOnce(&Harness) -> T,
    ) -> ExitCode {
        let argv: Vec<String> = std::env::args().skip(1).collect();
        let h = match Harness::parse_except(&argv, unsupported) {
            Ok(h) => h,
            Err(e) => return e.report(),
        };
        let Some(path) = &h.flags.resume else {
            return body(&h).report();
        };
        match rcc_sim::runner::resume(path) {
            Ok(m) => {
                println!(
                    "resumed {} on {}: {} cycles, IPC {:.4}, digest {:016x}",
                    m.kind.label(),
                    m.workload,
                    m.cycles,
                    m.ipc(),
                    m.digest(1)
                );
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("error: {e}");
                ExitCode::FAILURE
            }
        }
    }

    /// Per-run options: the shared options, with the `--checkpoint` and
    /// `--record-trace` stems made unique to this (protocol, workload).
    fn opts_for(&self, kind: ProtocolKind, workload: &str) -> SimOptions {
        let path = |stem: &String, ext| format!("{stem}-{}-{workload}{ext}", kind.label());
        SimOptions {
            checkpoint: self.flags.checkpoint.as_ref().map(|s| path(s, "")),
            record_trace: self.flags.record_trace.as_ref().map(|s| path(s, ".rcct")),
            ..self.flags.opts.clone()
        }
    }

    /// Generates a benchmark's workload at this harness's scale — or,
    /// under `--replay-trace`, the trace's workload (every benchmark the
    /// binary asks for replays the same trace).
    pub fn workload(&self, bench: Benchmark) -> Workload {
        match &self.flags.replay {
            Some(wl) => wl.clone(),
            None => bench.generate(&self.cfg, &self.scale, SEED),
        }
    }

    /// Runs one (protocol, benchmark) pair.
    pub fn run(&self, kind: ProtocolKind, bench: Benchmark) -> RunMetrics {
        let wl = self.workload(bench);
        simulate(kind, &self.cfg, &wl, &self.opts_for(kind, wl.name))
    }

    /// Runs a whole experiment grid over the job pool, returning metrics
    /// in the order the pairs were given (independent of `jobs`). Each
    /// job regenerates its workload from the shared seed, so results
    /// match per-pair [`Harness::run`] calls exactly.
    pub fn run_pairs(&self, pairs: &[(ProtocolKind, Benchmark)]) -> Vec<RunMetrics> {
        pool::run_indexed(pairs.to_vec(), self.flags.jobs(), |(kind, bench)| {
            self.run(kind, bench)
        })
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

    fn parse(args: &[&str]) -> Harness {
        let argv: Vec<String> = args.iter().map(ToString::to_string).collect();
        Harness::parse(&argv).expect("valid command line")
    }

    #[test]
    fn harness_defaults_to_the_gtx480_at_standard_scale() {
        let h = parse(&[]);
        assert_eq!(h.cfg, GpuConfig::gtx480());
        assert_eq!(h.scale.iters, Scale::standard().iters);
        assert_eq!(h.scale.warps_per_core, Scale::standard().warps_per_core);
        assert_eq!(h.flags.jobs(), 1);
        assert_eq!((h.flags.opts.quantum, h.flags.opts.sample_every), (0, 0));
    }

    #[test]
    fn quick_selects_the_small_machine_and_quick_scale() {
        let h = parse(&["--quick"]);
        assert_eq!(h.cfg, GpuConfig::small());
        assert_eq!(h.scale.iters, Scale::quick().iters);
        assert_eq!(h.scale.warps_per_core, Scale::quick().warps_per_core);
    }

    #[test]
    fn run_flag_defaults_follow_the_flags_they_depend_on() {
        assert_eq!(parse(&["--checkpoint", "ck"]).flags.opts.quantum, 1_000_000);
        assert_eq!(
            parse(&["--checkpoint", "ck", "--checkpoint-every", "5"])
                .flags
                .opts
                .quantum,
            5
        );
        assert_eq!(parse(&["--jobs", "0"]).flags.jobs(), pool::resolve_jobs(0));
        let h = parse(&["--checkpoint", "ck", "--record-trace", "tr"]);
        // The shared options carry no path: runs that skip `opts_for`
        // must not all write one file.
        assert!(h.flags.opts.checkpoint.is_none() && h.flags.opts.record_trace.is_none());
        let opts = h.opts_for(ProtocolKind::RccSc, "dlb");
        assert_eq!(opts.checkpoint.as_deref(), Some("ck-RCC-SC-dlb"));
        assert_eq!(opts.record_trace.as_deref(), Some("tr-RCC-SC-dlb.rcct"));
    }

    #[test]
    fn malformed_figure_command_lines_are_usage_errors() {
        for bad in [
            &["--sanitise"][..],
            &["--checkpoint-every", "5k"],
            &["--jobs"],
            &["--trace-out", "t.json"],
            &["--series-out", "s.csv"],
            &["--sample-every", "64"],
        ] {
            let argv: Vec<String> = bad.iter().map(ToString::to_string).collect();
            assert!(Harness::parse(&argv).is_err(), "{bad:?} must not run");
        }
        let argv: Vec<String> = ["--checkpoint", "ck"].map(String::from).to_vec();
        assert!(Harness::parse(&argv).is_ok());
        let err = Harness::parse_except(&argv, PER_RUN_OUTPUTS).expect_err("per-run output");
        assert!(err.0.starts_with("--checkpoint:"), "{err}");
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
}
