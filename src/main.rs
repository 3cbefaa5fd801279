//! `rcc-repro` — command-line simulator driver.
//!
//! ```text
//! USAGE: rcc-repro [--protocol P] [--bench B] [--machine M] [--scale S]
//!                  [--seed N] [--check] [--csv] [--all] [RUN FLAGS]
//!
//!   --protocol  mesi | mesi-wb | tcs | tcw | rcc | rcc-wo | ideal  (default rcc)
//!   --bench     bh|bfs|cl|dlb|stn|vpr|hsp|kmn|lps|ndl|sr|lud  (default dlb)
//!   --machine   gtx480 | small                                (default gtx480)
//!   --scale     quick | standard | full                       (default standard)
//!   --seed      workload seed                                 (default 7)
//!   --trace-file PATH   run a custom trace (see workloads::custom)
//!   --mesh      use a 2D-mesh NoC instead of the crossbars
//!   --check     verify the run with the SC scoreboard
//!   --no-ff     every-cycle due policy: run every component every cycle
//!               instead of only at wake events (same results, slower)
//!   --csv       print one CSV row instead of the report
//!   --all       run every protocol on the chosen benchmark (--jobs N
//!               spreads them over N threads; output is identical)
//!   --hang-dump PATH    write the forensic hang-dump JSON here if the
//!               watchdog fires (default PATH of --checkpoint plus
//!               .hangdump.json, when --checkpoint is given)
//!
//! SUBCOMMANDS (clients for the rcc-serve batch service):
//!   rcc-repro submit --addr HOST:PORT (--spec JSON | --file PATH) [--watch]
//!   rcc-repro status --addr HOST:PORT --job N
//!   rcc-repro watch  --addr HOST:PORT --job N
//!
//! All subcommands take --retries N (default 5): connects and dropped
//! watches retry with exponential backoff, overloaded replies honor the
//! server's retry-after hint, and a submit whose spec carries a
//! dedup_key is resubmitted safely after a dropped connection.
//!
//! An unknown flag or a malformed value exits 2. The run flags below are
//! shared with the figure binaries.
//! ```

use rcc_bench::cli::{self, Args, RunFlags, UsageError, RUN_FLAGS};
use rcc_bench::report::{check_schema, schemas};
use rcc_repro::coherence::ProtocolKind;
use rcc_repro::common::GpuConfig;
use rcc_repro::sim::runner::{resume, try_simulate};
use rcc_repro::sim::{RunMetrics, SimError};
use rcc_repro::workloads::{Benchmark, Scale};
use std::process::ExitCode;

mod client;

/// The driver's own flags; [`RUN_FLAGS`] come on top.
const FLAGS: &str = "--protocol P, --bench B, --machine M, --scale S, --seed N, \
    --trace-file PATH, --hang-dump PATH, --mesh, --check, --no-ff, --csv, --all, --help, -h";

fn csv_header() -> &'static str {
    "protocol,bench,cycles,ipc,mem_ops,sc_stall_cycles,fence_stall_cycles,\
     l1_loads,l1_hits,expired_loads,renewed_loads,flits,energy_pj,dram_reads,\
     dram_writes,sc_violations,rollovers"
}

fn csv_row(m: &RunMetrics) -> String {
    format!(
        "{},{},{},{:.4},{},{},{},{},{},{},{},{},{:.0},{},{},{},{}",
        m.kind.label(),
        m.workload,
        m.cycles,
        m.ipc(),
        m.core.mem_ops,
        m.core.sc_stall_cycles,
        m.core.fence_stall_cycles,
        m.l1.loads,
        m.l1.load_hits,
        m.l1.expired_loads,
        m.l1.renewed_loads,
        m.traffic.total_flits(),
        m.energy.total_pj(),
        m.dram_reads,
        m.dram_writes,
        m.sc_violations,
        m.rollovers,
    )
}

fn report(m: &RunMetrics) {
    println!("== {} on {} ==", m.kind, m.workload);
    println!("cycles             {:>12}", m.cycles);
    println!("IPC                {:>12.4}", m.ipc());
    println!("memory ops         {:>12}", m.core.mem_ops);
    println!("SC stall cycles    {:>12}", m.core.sc_stall_cycles);
    println!("fence stall cycles {:>12}", m.core.fence_stall_cycles);
    println!(
        "L1 load hit rate   {:>11.1}%",
        100.0 * m.l1.load_hits as f64 / m.l1.loads.max(1) as f64
    );
    println!(
        "expired loads      {:>12} ({:.1}% of loads, {:.1}% renewable)",
        m.l1.expired_loads,
        100.0 * m.expired_load_fraction(),
        100.0 * m.renewable_fraction()
    );
    println!("NoC flits          {:>12}", m.traffic.total_flits());
    println!("NoC energy (nJ)    {:>12.1}", m.energy.total_pj() / 1000.0);
    println!(
        "DRAM reads/writes  {:>7} / {:<7}",
        m.dram_reads, m.dram_writes
    );
    if m.rollovers > 0 {
        println!("timestamp rollovers{:>12}", m.rollovers);
    }
    // The histogram's nearest-rank percentiles: the paper's latency
    // argument (Fig. 1c) is about the tail, not the mean.
    if let (Some(p50), Some(p99)) = (
        m.load_latency().percentile(50.0),
        m.load_latency().percentile(99.0),
    ) {
        println!(
            "load latency       {:>12.1} mean, p50 {p50}, p99 {p99}",
            m.load_latency().mean()
        );
    }
    println!("SC violations      {:>12}", m.sc_violations);
    if let Some(p) = &m.profile {
        print!("self-profile       {:>9} steps:", p.steps);
        for ph in rcc_repro::obs::SimPhase::ALL {
            print!(" {} {:.1}%", ph.label(), 100.0 * p.share(ph));
        }
        println!();
    }
}

/// Prints a typed failure; for a deadlock also writes the forensic
/// hang-dump JSON (validated against `schemas/hangdump.schema.json`) and
/// points at the auto-checkpoint for replay.
fn report_failure(e: &SimError, hang_dump: Option<&str>) {
    eprintln!("error: {e}");
    let SimError::Deadlock(dump) = e else {
        return;
    };
    if let Some(ck) = &dump.checkpoint {
        eprintln!("auto-checkpoint for deterministic replay: {ck} (use --resume)");
    }
    let Some(path) = hang_dump else {
        eprintln!("(pass --checkpoint or --hang-dump to capture the forensic dump)");
        return;
    };
    let json = dump.to_json();
    let schema_ok = check_schema(path, schemas::HANGDUMP, &json).is_ok();
    match std::fs::write(path, &json) {
        Ok(()) => eprintln!(
            "hang-dump written: {path}{}",
            if schema_ok {
                ""
            } else {
                " (WARNING: dump does not match schemas/hangdump.schema.json)"
            }
        ),
        Err(err) => eprintln!("cannot write hang-dump {path}: {err}"),
    }
}

fn print_result(m: &RunMetrics, csv: bool, first: bool) {
    if csv {
        println!("{}", csv_row(m));
    } else {
        if !first {
            println!();
        }
        report(m);
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if let Some(cmd) = argv.first() {
        if matches!(cmd.as_str(), "submit" | "status" | "watch") {
            return client::run(cmd, &argv[1..]);
        }
    }
    run(&argv).unwrap_or_else(|e| e.report())
}

/// The driver proper: parses `argv`, runs, and prints. A command line it
/// cannot act on is the only error; run failures are exit statuses.
fn run(argv: &[String]) -> Result<ExitCode, UsageError> {
    let args = Args::parse(argv, &[FLAGS, RUN_FLAGS])?;
    if args.has("--help") || args.has("-h") {
        let help = [cli::usage(include_str!("main.rs")), cli::run_flags_usage()];
        println!("{}", help.join("\n\n"));
        return Ok(ExitCode::SUCCESS);
    }
    let kind = args
        .value_with("--protocol", |s| {
            ProtocolKind::from_cli_name(s).ok_or("try mesi|mesi-wb|tcs|tcw|rcc|rcc-wo|ideal")
        })?
        .unwrap_or(ProtocolKind::RccSc);
    let benches = Benchmark::ALL.map(|b| (b.name(), b));
    let bench = args.choice("--bench", &benches)?.unwrap_or(Benchmark::Dlb);
    let machines = [
        ("gtx480", GpuConfig::gtx480()),
        ("small", GpuConfig::small()),
    ];
    let mut cfg = args
        .choice("--machine", &machines)?
        .unwrap_or_else(GpuConfig::gtx480);
    if args.has("--mesh") {
        cfg.noc.topology = rcc_repro::common::config::NocTopology::Mesh;
    }
    let scales = [
        ("quick", Scale::quick()),
        ("standard", Scale::standard()),
        ("full", Scale::full()),
    ];
    let scale = args
        .choice("--scale", &scales)?
        .unwrap_or_else(Scale::standard);
    let seed = args.value("--seed")?.unwrap_or(7);
    let csv = args.has("--csv");
    let flags = RunFlags::parse(&args, cfg.num_cores)?;
    let mut opts = flags.opts.clone();
    opts.check_sc = args.has("--check");
    opts.fast_forward = !args.has("--no-ff");
    opts.checkpoint = flags.checkpoint.clone();
    opts.record_trace = flags.record_trace.clone();
    let hang_dump = args.get("--hang-dump").map(String::from).or_else(|| {
        opts.checkpoint
            .as_ref()
            .map(|p| format!("{p}.hangdump.json"))
    });

    // A resumed run carries its own protocol, workload, and options in
    // the snapshot; everything above except output flags is ignored.
    if let Some(path) = &flags.resume {
        return Ok(match resume(path) {
            Ok(m) => {
                if csv {
                    println!("{}", csv_header());
                }
                print_result(&m, csv, true);
                ExitCode::SUCCESS
            }
            Err(e) => {
                report_failure(&e, hang_dump.as_deref());
                ExitCode::FAILURE
            }
        });
    }

    let wl = if let Some(wl) = &flags.replay {
        wl.clone()
    } else if let Some(path) = args.get("--trace-file") {
        let parsed = std::fs::read_to_string(path)
            .map_err(|e| format!("cannot read {path}: {e}"))
            .and_then(|text| {
                rcc_repro::workloads::custom::parse_trace(&text, cfg.num_cores)
                    .map_err(|e| e.to_string())
            });
        match parsed {
            Ok(wl) => wl,
            Err(e) => {
                eprintln!("{e}");
                return Ok(ExitCode::FAILURE);
            }
        }
    } else {
        bench.generate(&cfg, &scale, seed)
    };
    let kinds: Vec<ProtocolKind> = if args.has("--all") {
        ProtocolKind::ALL.to_vec()
    } else {
        vec![kind]
    };
    if csv {
        println!("{}", csv_header());
    }
    // The protocol runs are independent, so --all can spread them over a
    // job pool; results come back in submission order, keeping the
    // report/CSV output byte-identical to a sequential run.
    // A failed protocol (deadlock, budget, invariant) reports as a typed
    // error and flips the exit code; the other jobs still complete.
    let results = rcc_bench::pool::run_indexed(kinds, flags.jobs(), |k| {
        // Like the observation exports, a trace or checkpoint under --all
        // covers the --protocol selection: the other runs must not race
        // on the path.
        let mut o = opts.clone();
        if k != kind {
            o.record_trace = None;
            o.checkpoint = None;
        }
        try_simulate(k, &cfg, &wl, &o)
    });
    let mut failed = false;
    for (i, r) in results.iter().enumerate() {
        match r {
            Ok(m) => print_result(m, csv, i == 0),
            Err(e) => {
                failed = true;
                report_failure(e, hang_dump.as_deref());
            }
        }
    }
    if failed {
        return Ok(ExitCode::FAILURE);
    }
    // Under --all every run carries an observation, but the export slots
    // hold one run each — the --protocol selection picks whose.
    let chosen = results
        .iter()
        .flatten()
        .find(|m| m.kind == kind)
        .expect("selected protocol was run");
    if let Err(e) = flags.dump_observation(chosen) {
        eprintln!("{e}");
        return Ok(ExitCode::FAILURE);
    }
    if let Some(path) = &opts.record_trace {
        // stderr, like the checkpoint notices: `--csv | tail -1` must
        // still see the data row as the last line of stdout.
        eprintln!("wrote {path} (memory-access trace; replay with --replay-trace)");
    }
    Ok(ExitCode::SUCCESS)
}
