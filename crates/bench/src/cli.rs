//! One flag reader for every `--flag value` binary, and the run flags
//! `rcc-repro` and the figure binaries share (printed by `--help`):
//!
//! ```text
//! RUN FLAGS (rcc-repro and every figure binary):
//!   --sanitize          check every run with the rcc-verify SC sanitizer
//!   --chaos seed=N,profile=P  seeded perturbation: light|heavy|reorder|canary
//!   --jobs N            worker threads (0 = one per core; output unchanged)
//!   --profile           attach the self-profiler (host wall-clock per phase);
//!                       of the figure binaries only perfsmoke prints it
//!   --sample-every N    sample metrics every N cycles (256 with --series-out)
//!   --trace-out PATH    Chrome/Perfetto trace of rcc-repro's --protocol run
//!   --series-out PATH   its sampled series (.csv, or .json by extension);
//!                       figure binaries reject these two and --sample-every
//!   --checkpoint PATH   periodic snapshots (PATH.hang on a deadlock) of
//!                       rcc-repro's --protocol run, or of each figure-binary
//!                       grid run at PATH-<protocol>-<workload>
//!   --checkpoint-every N  snapshot period in cycles (1000000 with --checkpoint)
//!   --resume PATH       replay one snapshot instead of the experiment
//!   --record-trace PATH record the memory-access trace (RCCT), with the
//!                       paths of --checkpoint plus .rcct per grid run
//!                       (fig7, ablate, sweep and perfsmoke build their own
//!                       runs and reject --checkpoint, --checkpoint-every
//!                       and --record-trace)
//!   --replay-trace PATH run a trace (RCCT or text) in place of every benchmark
//! ```

use crate::pool;
use rcc_chaos::ChaosSpec;
use rcc_sim::runner::SimOptions;
use rcc_sim::RunMetrics;
use rcc_workloads::Workload;
use std::collections::BTreeMap;
use std::fmt;
use std::process::ExitCode;
use std::str::FromStr;

/// A command line a binary cannot act on: an undeclared flag, a missing
/// or repeated one, or a malformed value. Binaries exit 2 on it.
#[derive(Debug, PartialEq, Eq)]
pub struct UsageError(pub String);

impl fmt::Display for UsageError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl UsageError {
    /// Prints the error and returns exit status 2.
    pub fn report(&self) -> ExitCode {
        eprintln!("error: {self}");
        ExitCode::from(2)
    }
}

/// The declared flags a command line gave, with their values.
#[derive(Debug)]
pub struct Args {
    given: BTreeMap<String, Option<String>>,
}

impl Args {
    /// Parses `argv` (without the program name) against the flags the
    /// `synopses` declare, as in `"--seed N, --csv"`: a flag with a
    /// metavariable takes the next argument as its value.
    pub fn parse(argv: &[String], synopses: &[&str]) -> Result<Args, UsageError> {
        let declared: BTreeMap<&str, bool> = synopses
            .iter()
            .flat_map(|s| s.split(','))
            .map(str::split_whitespace)
            .filter_map(|mut words| Some((words.next()?, words.next().is_some())))
            .collect();
        let mut given = BTreeMap::new();
        let mut argv = argv.iter();
        while let Some(arg) = argv.next() {
            let takes_value = *declared
                .get(arg.as_str())
                .ok_or_else(|| UsageError(format!("unknown flag {arg}")))?;
            let value = if takes_value {
                match argv.next() {
                    Some(v) if !v.starts_with("--") => Some(v.clone()),
                    _ => return Err(UsageError(format!("{arg} needs a value"))),
                }
            } else {
                None
            };
            if given.insert(arg.clone(), value).is_some() {
                return Err(UsageError(format!("{arg} given twice")));
            }
        }
        Ok(Args { given })
    }

    /// True when the flag was given.
    pub fn has(&self, name: &str) -> bool {
        self.given.contains_key(name)
    }

    /// The flag's value; `None` when it was not given.
    pub fn get(&self, name: &str) -> Option<&str> {
        self.given.get(name)?.as_deref()
    }

    /// The flag's value converted by `parse`, or a usage error naming
    /// the flag and the value; `None` when the flag was not given.
    pub fn value_with<T, E: fmt::Display>(
        &self,
        name: &str,
        parse: impl FnOnce(&str) -> Result<T, E>,
    ) -> Result<Option<T>, UsageError> {
        self.get(name)
            .map(|v| parse(v).map_err(|e| UsageError(format!("{name} {v:?}: {e}"))))
            .transpose()
    }

    /// The flag's value picked by name from `choices`, or a usage error
    /// listing the names; `None` when the flag was not given.
    pub fn choice<T: Clone>(
        &self,
        name: &str,
        choices: &[(&str, T)],
    ) -> Result<Option<T>, UsageError> {
        let names: Vec<&str> = choices.iter().map(|c| c.0).collect();
        self.value_with(name, |v| match choices.iter().find(|c| c.0 == v) {
            Some(c) => Ok(c.1.clone()),
            None => Err(format!("try {}", names.join("|"))),
        })
    }

    /// The flag's value parsed as a `T` (see [`Args::value_with`]).
    pub fn value<T: FromStr>(&self, name: &str) -> Result<Option<T>, UsageError>
    where
        T::Err: fmt::Display,
    {
        self.value_with(name, str::parse)
    }
}

/// The usage block of a binary's module doc: the lines inside its
/// ```` ```text ```` fence, comment markers stripped, up to the closing
/// fence. `rcc-repro` and `rcc-serve` pass `include_str!("main.rs")`.
pub fn usage(source: &str) -> String {
    source
        .lines()
        .map_while(|l| l.strip_prefix("//!"))
        .map(|l| l.strip_prefix(' ').unwrap_or(l))
        .skip_while(|l| *l != "```text")
        .skip(1)
        .take_while(|l| !l.starts_with("```"))
        .collect::<Vec<_>>()
        .join("\n")
}

/// The usage block of the shared run flags (this module's doc).
pub fn run_flags_usage() -> String {
    usage(include_str!("cli.rs"))
}

/// The run flags `rcc-repro` and every figure binary accept.
pub const RUN_FLAGS: &str = "--sanitize, --chaos SPEC, --jobs N, --profile, --sample-every N, \
    --trace-out PATH, --series-out PATH, --checkpoint PATH, --checkpoint-every N, \
    --resume PATH, --record-trace PATH, --replay-trace PATH";

/// Loads a trace file (RCCT or text) and lowers it for `num_cores` cores.
fn load_trace_workload(path: &str, num_cores: usize) -> Result<Workload, rcc_trace::TraceError> {
    rcc_trace::Trace::load_any(path)?.to_workload(num_cores)
}

/// What the shared run flags ask for.
#[derive(Debug, Clone)]
pub struct RunFlags {
    /// [`SimOptions::fast`] with every run flag but the two paths below.
    pub opts: SimOptions,
    /// Worker threads for independent runs, resolved from `--jobs`;
    /// `None` when the flag was not given (see [`RunFlags::jobs`]).
    pub jobs: Option<usize>,
    /// `--trace-out`: [`RunFlags::dump_observation`]'s Chrome trace.
    pub trace_out: Option<String>,
    /// `--series-out`: [`RunFlags::dump_observation`]'s sampled series.
    pub series_out: Option<String>,
    /// `--checkpoint`: the path, or a figure binary's per-run stem.
    pub checkpoint: Option<String>,
    /// `--record-trace`: the path, or a figure binary's per-run stem.
    pub record_trace: Option<String>,
    /// `--replay-trace`: the trace, lowered for the machine.
    pub replay: Option<Workload>,
    /// `--resume`: the snapshot to replay instead of the experiment.
    pub resume: Option<String>,
}

impl RunFlags {
    /// Reads the run flags for a machine of `num_cores` cores. The
    /// `--replay-trace` file is loaded here, so a trace that does not
    /// load or fit the machine fails before any run starts.
    pub fn parse(args: &Args, num_cores: usize) -> Result<RunFlags, UsageError> {
        let path = |name| args.get(name).map(String::from);
        let (trace_out, series_out) = (path("--trace-out"), path("--series-out"));
        let checkpoint = path("--checkpoint");
        let opts = SimOptions {
            sanitize: args.has("--sanitize"),
            chaos: args.value_with("--chaos", ChaosSpec::parse)?,
            profile: args.has("--profile"),
            trace: trace_out.is_some(),
            sample_every: args
                .value("--sample-every")?
                .unwrap_or(if series_out.is_some() { 256 } else { 0 }),
            quantum: args
                .value("--checkpoint-every")?
                .unwrap_or(if checkpoint.is_some() { 1_000_000 } else { 0 }),
            ..SimOptions::fast()
        };
        Ok(RunFlags {
            opts,
            jobs: args.value("--jobs")?.map(pool::resolve_jobs),
            trace_out,
            series_out,
            checkpoint,
            record_trace: path("--record-trace"),
            replay: args.value_with("--replay-trace", |p| load_trace_workload(p, num_cores))?,
            resume: path("--resume"),
        })
    }

    /// Worker threads for independent runs: `--jobs`, or one.
    pub fn jobs(&self) -> usize {
        self.jobs.unwrap_or(1)
    }

    /// Writes one run's observation to the `--trace-out` and
    /// `--series-out` paths that were given; the series is CSV unless
    /// the path ends in `.json`. Does nothing for an unobserved run.
    pub fn dump_observation(&self, m: &RunMetrics) -> Result<(), String> {
        let Some(obs) = &m.obs else { return Ok(()) };
        let write = |path: &str, body: String| {
            std::fs::write(path, body).map_err(|e| format!("cannot write {path}: {e}"))
        };
        if let Some(path) = &self.trace_out {
            write(path, obs.trace.to_chrome_json())?;
            println!("wrote {path} ({} trace events)", obs.trace.len());
        }
        if let Some(path) = &self.series_out {
            let body = if path.ends_with(".json") {
                obs.series.to_json()
            } else {
                obs.series.to_csv()
            };
            write(path, body)?;
            println!("wrote {path} ({} sampled rows)", obs.series.rows());
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(args: &[&str]) -> Vec<String> {
        args.iter().map(ToString::to_string).collect()
    }

    const FLAGS: &str = "--csv, --seed N";

    #[test]
    fn declared_flags_parse_and_typed_values_convert() {
        let args = Args::parse(&argv(&["--csv", "--seed", "9"]), &[FLAGS]).expect("parses");
        assert!(args.has("--csv"));
        assert_eq!(args.value::<u64>("--seed"), Ok(Some(9)));
        let empty = Args::parse(&[], &[FLAGS]).expect("parses");
        assert!(!empty.has("--csv"));
        assert_eq!(empty.value::<u64>("--seed"), Ok(None));
    }

    #[test]
    fn bad_command_lines_are_usage_errors_naming_the_flag() {
        let err = |a: &[&str]| {
            Args::parse(&argv(a), &[FLAGS])
                .and_then(|args| args.value::<u64>("--seed"))
                .expect_err("rejected")
                .0
        };
        assert_eq!(err(&["--sanitise"]), "unknown flag --sanitise");
        assert_eq!(
            err(&["--seed", "seven"]),
            "--seed \"seven\": invalid digit found in string"
        );
        assert_eq!(err(&["--seed"]), "--seed needs a value");
        assert_eq!(err(&["--seed", "--csv"]), "--seed needs a value");
        assert_eq!(err(&["--csv", "--csv"]), "--csv given twice");
        assert_eq!(err(&["stray"]), "unknown flag stray");
    }

    #[test]
    fn run_flags_read_chaos_and_jobs() {
        let parse = |a: &[&str]| RunFlags::parse(&Args::parse(&argv(a), &[RUN_FLAGS])?, 1);
        let flags = parse(&["--chaos", "seed=5,profile=heavy"]).expect("valid");
        let spec = flags.opts.chaos.as_ref().expect("armed");
        assert_eq!((spec.seed, spec.profile.name), (5, "heavy"));
        assert_eq!((flags.jobs, flags.jobs()), (None, 1));
        assert_eq!(parse(&["--jobs", "1"]).expect("valid").jobs, Some(1));
        let series = parse(&["--series-out", "s.csv"]).expect("valid");
        assert_eq!(series.opts.sample_every, 256);
        assert!(!series.opts.trace);
        let bad = parse(&["--chaos", "profile=nope"]).expect_err("bad spec");
        assert!(bad.0.starts_with("--chaos \"profile=nope\""), "{bad}");
    }

    #[test]
    fn usage_stops_at_the_closing_fence() {
        let text = run_flags_usage();
        assert!(text.starts_with("RUN FLAGS"));
        for flag in RUN_FLAGS.split(',') {
            let name = flag.split_whitespace().next().expect("a flag name");
            assert!(text.contains(name), "{name} is documented");
        }
        assert!(!text.contains("```") && !text.contains("use crate"));
    }
}
