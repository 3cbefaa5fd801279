//! `rcc-repro` — command-line simulator driver.
//!
//! ```text
//! USAGE: rcc-repro [--protocol P] [--bench B] [--machine M] [--scale S]
//!                  [--seed N] [--check] [--csv] [--all] [--jobs N]
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
//!   --all       run every protocol on the chosen benchmark
//!   --jobs N    run --all protocols on N worker threads (0 = one per
//!               core); output is identical to a sequential run
//!   --sample-every N    record a metrics time-series sample every N
//!               cycles (defaults to 256 when --series-out is given)
//!   --trace-out PATH    write a Chrome/Perfetto trace of the run
//!   --series-out PATH   write the sampled series (.csv, or .json by
//!               extension); under --all, exports cover --protocol's run
//!   --profile   attach the self-profiler; print per-phase wall-clock
//!   --checkpoint PATH   write periodic snapshots here; on a watchdog
//!               deadlock an auto-checkpoint lands at PATH.hang; under
//!               --all, covers --protocol's run
//!   --checkpoint-every N  snapshot period in cycles: the run goes in
//!               slices of N cycles and saves each boundary (default
//!               1000000 when --checkpoint is given)
//!   --resume PATH       replay a snapshot (protocol, benchmark, and
//!               options come from the snapshot; results are
//!               bit-identical to the uninterrupted run)
//!   --hang-dump PATH    write the forensic hang-dump JSON here if the
//!               watchdog fires (default PATH of --checkpoint plus
//!               .hangdump.json, when --checkpoint is given)
//!   --record-trace PATH write the run's memory-access trace (RCCT
//!               binary + manifest); under --all, covers --protocol's run
//!   --replay-trace PATH re-execute a recorded or hand-authored trace
//!               (binary or text; inspect with the rcc-trace tool)
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
//! ```

use rcc_repro::coherence::ProtocolKind;
use rcc_repro::common::GpuConfig;
use rcc_repro::sim::runner::{resume, try_simulate, SimOptions};
use rcc_repro::sim::{RunMetrics, SimError};
use rcc_repro::workloads::{Benchmark, Scale};
use std::process::ExitCode;

mod client;

fn parse_bench(s: &str) -> Option<Benchmark> {
    Benchmark::ALL.into_iter().find(|b| b.name() == s)
}

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
    let schema_ok =
        rcc_repro::obs::schema::validate_text(rcc_bench::report::schemas::HANGDUMP, &json)
            .map(|errs| errs.is_empty())
            .unwrap_or(false);
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
    let args: Vec<String> = std::env::args().skip(1).collect();
    let get = |flag: &str| -> Option<String> {
        args.iter()
            .position(|a| a == flag)
            .and_then(|i| args.get(i + 1).cloned())
    };
    let has = |flag: &str| args.iter().any(|a| a == flag);
    if let Some(cmd) = args.first() {
        if matches!(cmd.as_str(), "submit" | "status" | "watch") {
            return client::run(cmd, &args[1..]);
        }
    }
    if has("--help") || has("-h") {
        println!(
            "{}",
            include_str!("main.rs")
                .lines()
                .skip(3)
                .take_while(|l| !l.starts_with("//! ```"))
                .map(|l| l.trim_start_matches("//!").strip_prefix(' ').unwrap_or(""))
                .collect::<Vec<_>>()
                .join("\n")
        );
        return ExitCode::SUCCESS;
    }

    let Some(kind) =
        ProtocolKind::from_cli_name(&get("--protocol").unwrap_or_else(|| "rcc".into()))
    else {
        eprintln!("unknown protocol (try mesi|tcs|tcw|rcc|rcc-wo|ideal)");
        return ExitCode::FAILURE;
    };
    let Some(bench) = parse_bench(&get("--bench").unwrap_or_else(|| "dlb".into())) else {
        eprintln!(
            "unknown benchmark (try one of: {})",
            Benchmark::ALL.map(|b| b.name()).join(" ")
        );
        return ExitCode::FAILURE;
    };
    let mut cfg = match get("--machine").as_deref() {
        None | Some("gtx480") => GpuConfig::gtx480(),
        Some("small") => GpuConfig::small(),
        Some(other) => {
            eprintln!("unknown machine {other} (gtx480|small)");
            return ExitCode::FAILURE;
        }
    };
    if has("--mesh") {
        cfg.noc.topology = rcc_repro::common::config::NocTopology::Mesh;
    }
    let scale = match get("--scale").as_deref() {
        Some("quick") => Scale::quick(),
        None | Some("standard") => Scale::standard(),
        Some("full") => Scale::full(),
        Some(other) => {
            eprintln!("unknown scale {other} (quick|standard|full)");
            return ExitCode::FAILURE;
        }
    };
    let seed: u64 = get("--seed").and_then(|s| s.parse().ok()).unwrap_or(7);
    let mut opts = if has("--check") {
        SimOptions::checked()
    } else {
        SimOptions::fast()
    };
    if has("--no-ff") {
        opts.fast_forward = false;
    }
    opts.profile = has("--profile");
    let trace_out = get("--trace-out");
    let series_out = get("--series-out");
    opts.trace = trace_out.is_some();
    opts.sample_every = get("--sample-every")
        .and_then(|n| n.parse().ok())
        .unwrap_or(if series_out.is_some() { 256 } else { 0 });
    opts.checkpoint = get("--checkpoint");
    opts.quantum = get("--checkpoint-every")
        .and_then(|n| n.parse().ok())
        .unwrap_or(if opts.checkpoint.is_some() {
            1_000_000
        } else {
            0
        });
    opts.record_trace = get("--record-trace");
    let hang_dump = get("--hang-dump").or_else(|| {
        opts.checkpoint
            .as_ref()
            .map(|p| format!("{p}.hangdump.json"))
    });

    // A resumed run carries its own protocol, workload, and options in
    // the snapshot; everything above except output flags is ignored.
    if let Some(path) = get("--resume") {
        return match resume(&path) {
            Ok(m) => {
                if has("--csv") {
                    println!("{}", csv_header());
                }
                print_result(&m, has("--csv"), true);
                ExitCode::SUCCESS
            }
            Err(e) => {
                report_failure(&e, hang_dump.as_deref());
                ExitCode::FAILURE
            }
        };
    }

    let wl = if let Some(path) = get("--replay-trace") {
        // Binary (RCCT) or text — same sniff the rcc-trace tool uses.
        match rcc_trace::Trace::load_any(&path).and_then(|t| t.to_workload(cfg.num_cores)) {
            Ok(wl) => wl,
            Err(e) => {
                eprintln!("cannot replay {path}: {e}");
                return ExitCode::FAILURE;
            }
        }
    } else if let Some(path) = get("--trace-file") {
        let text = match std::fs::read_to_string(&path) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("cannot read {path}: {e}");
                return ExitCode::FAILURE;
            }
        };
        match rcc_repro::workloads::custom::parse_trace(&text, cfg.num_cores) {
            Ok(wl) => wl,
            Err(e) => {
                eprintln!("{e}");
                return ExitCode::FAILURE;
            }
        }
    } else {
        bench.generate(&cfg, &scale, seed)
    };
    let kinds: Vec<ProtocolKind> = if has("--all") {
        ProtocolKind::ALL.to_vec()
    } else {
        vec![kind]
    };
    if has("--csv") {
        println!("{}", csv_header());
    }
    // The protocol runs are independent, so --all can spread them over a
    // job pool; results come back in submission order, keeping the
    // report/CSV output byte-identical to a sequential run.
    // A failed protocol (deadlock, budget, invariant) reports as a typed
    // error and flips the exit code; the other jobs still complete.
    let jobs = rcc_bench::parse_jobs(&args);
    let results = rcc_bench::pool::run_indexed(kinds, jobs, |k| {
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
            Ok(m) => print_result(m, has("--csv"), i == 0),
            Err(e) => {
                failed = true;
                report_failure(e, hang_dump.as_deref());
            }
        }
    }
    // Under --all every run carries an observation, but the export slots
    // hold one run each — the --protocol selection picks whose.
    if (trace_out.is_some() || series_out.is_some()) && !failed {
        let chosen = results
            .iter()
            .filter_map(|r| r.as_ref().ok())
            .find(|m| m.kind == kind)
            .expect("selected protocol was run");
        let Some(obs) = &chosen.obs else {
            eprintln!("internal error: observed run carried no observation");
            return ExitCode::FAILURE;
        };
        for (path, body, what) in [
            (
                &trace_out,
                trace_out.as_ref().map(|_| obs.trace.to_chrome_json()),
                format!("{} trace events", obs.trace.len()),
            ),
            (
                &series_out,
                series_out.as_ref().map(|p| {
                    if p.ends_with(".json") {
                        obs.series.to_json()
                    } else {
                        obs.series.to_csv()
                    }
                }),
                format!("{} sampled rows", obs.series.rows()),
            ),
        ] {
            let (Some(path), Some(body)) = (path, body) else {
                continue;
            };
            if let Err(e) = std::fs::write(path, body) {
                eprintln!("cannot write {path}: {e}");
                return ExitCode::FAILURE;
            }
            println!("wrote {path} ({what})");
        }
    }
    if let (Some(path), false) = (&opts.record_trace, failed) {
        // stderr, like the checkpoint notices: `--csv | tail -1` must
        // still see the data row as the last line of stdout.
        eprintln!("wrote {path} (memory-access trace; replay with --replay-trace)");
    }
    if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
