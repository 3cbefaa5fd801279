//! `perfbench` — the repository benchmark.
//!
//! ```text
//! perfbench --workload <fig-grid|serve-preempt|serve-tcp> [--seed N]
//!           [--seconds S] [--trace 0|1] [--out DIR]
//! ```
//!
//! Runs one workload, checks its outputs, prints every metric by name
//! with its unit, and ends with one JSON line: the end-to-end metrics
//! (`--trace 0`) or the per-layer metrics (`--trace 1`). `--seconds` is
//! how long the timed region runs; a runner of `BENCHMARK.json` passes
//! its `run_seconds` there, and the default equals it. A traced run
//! repeats the timed region with spans on and writes the spans to
//! `DIR/<workload>-seed<N>.spans.json`. See `perfbench/NOTES.md`.

mod grid;
mod layers;
mod serve;
mod spans;
mod stats;

use stats::Metrics;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

pub struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: PathBuf,
}

impl Args {
    fn parse(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
        let mut args = Args {
            workload: String::new(),
            seed: 7,
            seconds: 20.0,
            trace: false,
            out: PathBuf::from(".bench_out"),
        };
        while let Some(flag) = it.next() {
            let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
            let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
            match flag.as_str() {
                "--workload" => args.workload = value,
                "--seed" => args.seed = value.parse().map_err(|e| bad(&e))?,
                "--seconds" => args.seconds = value.parse().map_err(|e| bad(&e))?,
                "--trace" => {
                    args.trace = match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(bad(&"want 0 or 1")),
                    }
                }
                "--out" => args.out = PathBuf::from(value),
                _ => return Err(format!("unknown flag {flag}")),
            }
        }
        Ok(args)
    }

    /// This process's scratch area under the output directory, removed
    /// when the run ends.
    fn tmp(&self) -> PathBuf {
        self.out.join(format!("tmp-{}", std::process::id()))
    }

    /// A fresh directory in [`Args::tmp`] for one server's journal and
    /// results.
    pub fn scratch(&self) -> Result<PathBuf, String> {
        static NEXT: AtomicU64 = AtomicU64::new(0);
        let dir = self
            .tmp()
            .join(NEXT.fetch_add(1, Ordering::Relaxed).to_string());
        std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
        Ok(dir)
    }
}

/// The input seeds one run covers: its own seed, which fixes the
/// reported ratios, and one more, so a run's timings average over two
/// sets of generated inputs instead of resting on one.
pub fn input_seeds(seed: u64) -> [u64; 2] {
    [seed, seed + 1_000_000]
}

/// What a workload run produced.
#[derive(Default)]
pub struct Outcome {
    pub e2e: Metrics,
    pub layer: Metrics,
    /// Operations attempted (simulations or submissions).
    pub attempted: u64,
    /// Operations whose outcome deviated from the expected one.
    pub failed: u64,
    pub notes: Vec<String>,
}

/// Writes the traced run's spans and adds the top-level coverage of the
/// traced timed region.
pub fn finish_trace(
    args: &Args,
    tracer: &spans::Tracer,
    region: (u64, u64),
    layer: &mut Metrics,
) -> Result<(), String> {
    let spans = tracer.take();
    layer.put(
        "trace.coverage",
        spans::coverage(&spans, region.0, region.1),
        "1",
    );
    let path = args
        .out
        .join(format!("{}-seed{}.spans.json", args.workload, args.seed));
    spans::write(
        &path,
        &spans::to_json(&args.workload, args.seed, &spans, region),
    )?;
    println!("wrote {} ({} spans)", path.display(), spans.len());
    Ok(())
}

/// Peak resident set (`VmHWM`) of this process in MiB.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    let kb = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .ok_or("no VmHWM in /proc/self/status")?;
    Ok(kb / 1024.0)
}

fn json_metrics(m: &Metrics) -> String {
    let body: Vec<String> =
        m.0.iter()
            .map(|(name, value, unit)| {
                format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
            })
            .collect();
    format!("{{{}}}", body.join(", "))
}

fn run(args: &Args) -> Result<Outcome, String> {
    std::fs::create_dir_all(&args.out)
        .map_err(|e| format!("create {}: {e}", args.out.display()))?;
    let mut out = match args.workload.as_str() {
        "fig-grid" => grid::run(args)?,
        "serve-preempt" => serve::run(args, false)?,
        "serve-tcp" => serve::run(args, true)?,
        other => {
            return Err(format!(
                "unknown workload {other:?} (fig-grid|serve-preempt|serve-tcp)"
            ))
        }
    };
    out.e2e.put("peak_rss_mb", peak_rss_mb()?, "MiB");
    if out.e2e.0.len() != layers::END_TO_END.len() {
        return Err("an end-to-end metric is missing".into());
    }
    out.e2e = layers::complete(&out.e2e, &layers::END_TO_END)?;
    if args.trace {
        out.layer = layers::complete(&out.layer, &layers::PER_LAYER)?;
    }
    if let Some((name, value, _)) = out
        .e2e
        .0
        .iter()
        .chain(&out.layer.0)
        .find(|m| !m.1.is_finite())
    {
        return Err(format!("metric {name} is {value}"));
    }
    Ok(out)
}

fn main() {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let result = run(&args);
    let _ = std::fs::remove_dir_all(args.tmp());
    let out = match result {
        Ok(out) => out,
        Err(e) => {
            eprintln!("perfbench: {}: {e}", args.workload);
            std::process::exit(1);
        }
    };
    println!(
        "workload {} seed {} trace {}",
        args.workload,
        args.seed,
        u8::from(args.trace)
    );
    for note in &out.notes {
        println!("note: {note}");
    }
    for (name, value, unit) in out.e2e.0.iter().chain(&out.layer.0) {
        println!("{name} = {value} {unit}");
    }
    println!(
        "failed_frac = {} 1 ({} of {} attempted)",
        out.failed as f64 / out.attempted.max(1) as f64,
        out.failed,
        out.attempted
    );
    let metrics = if args.trace { &out.layer } else { &out.e2e };
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        out.failed == 0,
        out.attempted,
        out.failed,
        json_metrics(metrics)
    );
}
