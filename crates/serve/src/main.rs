//! `rcc-serve` — the batch-simulation service binary.
//!
//! ```text
//! USAGE: rcc-serve [--addr HOST:PORT] [--workers N] [--quantum CYCLES]
//!                  [--aging N] [--results-dir PATH] [--journal PATH]
//!                  [--max-queue N] [--shed-queue N] [--max-attempts N]
//!                  [--backoff-ms MS] [--wedge-timeout-ms MS]
//!                  [--max-conns N] [--no-fsync]
//!
//!   --addr             bind address (default 127.0.0.1:0; the chosen
//!                      port is printed as "listening on HOST:PORT")
//!   --workers          worker threads (default 2)
//!   --quantum          preemption quantum in cycles (default 50000;
//!                      0 disables preemption)
//!   --aging            scheduler aging rate (default 4)
//!   --results-dir      persist job artifacts + manifest here
//!   --journal          write-ahead journal path; replayed on start,
//!                      so a killed service resumes where it left off
//!   --max-queue        bound on queued jobs (default 0 = unbounded);
//!                      past it submits get a typed overloaded reply
//!   --shed-queue       queue depth that sheds priority-3 jobs
//!                      (default 3/4 of --max-queue)
//!   --max-attempts     crash retries before quarantine (default 3)
//!   --backoff-ms       base retry backoff, doubling per attempt (100)
//!   --wedge-timeout-ms abandon + replace a worker stuck this long on
//!                      one slice (default 0 = watchdog off)
//!   --max-conns        concurrent TCP connection cap (default 64)
//!   --no-fsync         skip per-record journal fsync (tests only)
//!
//! An unknown flag or a malformed value exits 2.
//!
//! Speak line-delimited JSON to the printed address:
//!   {"cmd": "submit", "spec": {...}}   -> {"ok": true, "job": N}
//!   {"cmd": "status", "job": N}
//!   {"cmd": "watch", "job": N}         (streams progress events)
//!   {"cmd": "list"}
//!   {"cmd": "shutdown"}
//! ```

use rcc_bench::cli::{self, Args, UsageError};
use rcc_serve::server::{
    DEFAULT_BACKOFF_MS, DEFAULT_MAX_ATTEMPTS, DEFAULT_MAX_CONNS, DEFAULT_QUANTUM,
};
use rcc_serve::{Server, ServerConfig};
use std::process::ExitCode;

const FLAGS: &str = "--addr HOST:PORT, --workers N, --quantum CYCLES, --aging N, \
    --results-dir PATH, --journal PATH, --max-queue N, --shed-queue N, --max-attempts N, \
    --backoff-ms MS, --wedge-timeout-ms MS, --max-conns N, --no-fsync, --help, -h";

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match Args::parse(&argv, &[FLAGS]).and_then(|args| serve(&args)) {
        Ok(code) => code,
        Err(e) => e.report(),
    }
}

/// Runs the service the flags ask for; a malformed flag is the only
/// error, every other failure is an exit status.
fn serve(args: &Args) -> Result<ExitCode, UsageError> {
    if args.has("--help") || args.has("-h") {
        println!("{}", cli::usage(include_str!("main.rs")));
        return Ok(ExitCode::SUCCESS);
    }
    let cfg = ServerConfig {
        workers: args.value("--workers")?.unwrap_or(2),
        quantum: args.value("--quantum")?.unwrap_or(DEFAULT_QUANTUM),
        aging: args.value("--aging")?.unwrap_or(4),
        results_dir: args.get("--results-dir").map(Into::into),
        journal: args.get("--journal").map(Into::into),
        fsync: !args.has("--no-fsync"),
        max_queue: args.value("--max-queue")?.unwrap_or(0),
        shed_queue: args.value("--shed-queue")?.unwrap_or(0),
        max_attempts: args
            .value("--max-attempts")?
            .unwrap_or(DEFAULT_MAX_ATTEMPTS),
        backoff_ms: args.value("--backoff-ms")?.unwrap_or(DEFAULT_BACKOFF_MS),
        wedge_timeout_ms: args.value("--wedge-timeout-ms")?.unwrap_or(0),
        max_conns: args.value("--max-conns")?.unwrap_or(DEFAULT_MAX_CONNS),
        faults: None,
    };
    let server = match Server::start(cfg) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("error: {e}");
            return Ok(ExitCode::FAILURE);
        }
    };
    let local = match server.listen(args.get("--addr").unwrap_or("127.0.0.1:0")) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            let _ = server.shutdown();
            return Ok(ExitCode::FAILURE);
        }
    };
    println!("listening on {local}");
    server.wait_for_shutdown_request();
    Ok(match server.shutdown() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    })
}
