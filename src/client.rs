//! Client subcommands for the `rcc-serve` batch service: `submit`,
//! `status`, and `watch` speak the line-delimited JSON protocol over
//! TCP and print the raw response lines (script-friendly; one JSON
//! document per line).
//!
//! The client is built for a service that may crash and restart under
//! it: connects retry with exponential backoff (`--retries`, default
//! 5), a typed `overloaded`/`shed` reply is retried after the server's
//! `retry_after_ms` hint, a dropped connection mid-`watch` reconnects
//! and re-issues the watch, and a dropped `submit` is retried only when
//! the spec carries a `dedup_key` — the key makes resubmission
//! idempotent, so a reconnect can never double-run a job.

use rcc_bench::cli::{Args, UsageError};
use rcc_repro::obs::json::{self, JsonValue};
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::process::ExitCode;
use std::time::Duration;

const RETRY_BASE_MS: u64 = 100;
const RETRY_CAP_MS: u64 = 5_000;

/// The flags every subcommand takes, and those only some take.
const COMMON: &str = "--addr HOST:PORT, --retries N";
const SUBMIT: &str = "--spec JSON, --file PATH, --watch";
const JOB: &str = "--job N";

/// Deterministic exponential backoff, capped: 100, 200, 400, ... 5000.
fn backoff_ms(attempt: u32) -> u64 {
    (RETRY_BASE_MS << attempt.min(6)).min(RETRY_CAP_MS)
}

/// One TCP connection plus its line reader.
struct Conn {
    stream: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Conn {
    fn open(addr: &str) -> Result<Conn, String> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        let reader = BufReader::new(stream.try_clone().map_err(|e| e.to_string())?);
        Ok(Conn { stream, reader })
    }

    fn send_line(&mut self, line: &str) -> Result<(), String> {
        self.stream
            .write_all(format!("{line}\n").as_bytes())
            .map_err(|e| format!("send: {e}"))
    }

    fn read_line(&mut self) -> Result<String, String> {
        let mut resp = String::new();
        self.reader
            .read_line(&mut resp)
            .map_err(|e| format!("recv: {e}"))?;
        if resp.is_empty() {
            return Err("server closed the connection".into());
        }
        Ok(resp.trim_end().to_string())
    }
}

/// Where the service is, and how often to retry it.
struct Service {
    addr: String,
    retries: u32,
}

/// Connect, retrying with backoff — the service may be mid-restart.
fn connect_with_backoff(svc: &Service) -> Result<Conn, String> {
    let mut attempt = 0u32;
    loop {
        match Conn::open(&svc.addr) {
            Ok(conn) => return Ok(conn),
            Err(e) if attempt < svc.retries => {
                let wait = backoff_ms(attempt);
                eprintln!("{e}; retrying in {wait}ms");
                std::thread::sleep(Duration::from_millis(wait));
                attempt += 1;
            }
            Err(e) => return Err(e),
        }
    }
}

/// True when the response says `"ok": true`.
fn is_ok(resp: &str) -> bool {
    json::parse(resp)
        .ok()
        .and_then(|v| v.get("ok").and_then(JsonValue::as_bool))
        == Some(true)
}

/// The `retry_after_ms` hint, when the reply is a typed
/// `overloaded`/`shed` rejection (bounded admission, load shedding).
fn overload_hint(resp: &str) -> Option<u64> {
    let v = json::parse(resp).ok()?;
    let err = v.get("error")?;
    match err.get("kind").and_then(JsonValue::as_str) {
        Some("overloaded") | Some("shed") => Some(
            err.get("retry_after_ms")
                .and_then(JsonValue::as_u64)
                .unwrap_or(RETRY_BASE_MS),
        ),
        _ => None,
    }
}

/// Streams watch output for `job` until the final status line; returns
/// success iff the job finished `done`. A dropped connection (the
/// service crashed or was restarted under us) reconnects with backoff
/// and re-issues the watch — recovery replays terminal state from the
/// journal, so the answer survives the crash.
fn stream_watch(conn: &mut Conn, svc: &Service, job: u64) -> Result<bool, String> {
    let mut attempt = 0u32;
    conn.send_line(&format!("{{\"cmd\": \"watch\", \"job\": {job}}}"))?;
    loop {
        let line = match conn.read_line() {
            Ok(line) => line,
            Err(e) if attempt < svc.retries => {
                let wait = backoff_ms(attempt);
                eprintln!("{e}; re-watching job {job} in {wait}ms");
                std::thread::sleep(Duration::from_millis(wait));
                attempt += 1;
                *conn = connect_with_backoff(svc)?;
                conn.send_line(&format!("{{\"cmd\": \"watch\", \"job\": {job}}}"))?;
                continue;
            }
            Err(e) => return Err(e),
        };
        println!("{line}");
        let Ok(v) = json::parse(&line) else { continue };
        match v.get("state").and_then(JsonValue::as_str) {
            Some("done") => return Ok(true),
            // Quarantined is terminal failure: the job crash-looped and
            // the service gave up on it.
            Some("failed") | Some("quarantined") => return Ok(false),
            _ if v.get("ok").and_then(JsonValue::as_bool) == Some(false) => return Ok(false),
            _ => {}
        }
    }
}

/// Submits `spec`, honoring overload retry-after hints and — when the
/// spec carries a `dedup_key` — retrying dropped connections, since the
/// key makes resubmission idempotent. Returns `(conn, response)` so a
/// follow-up watch reuses the connection that got the accept.
fn submit_with_retry(svc: &Service, spec: &str) -> Result<(Conn, String), String> {
    let idempotent = spec.contains("dedup_key");
    let line = format!("{{\"cmd\": \"submit\", \"spec\": {spec}}}");
    let mut attempt = 0u32;
    loop {
        let mut conn = connect_with_backoff(svc)?;
        let resp = match conn.send_line(&line).and_then(|()| conn.read_line()) {
            Ok(resp) => resp,
            Err(e) if idempotent && attempt < svc.retries => {
                let wait = backoff_ms(attempt);
                eprintln!("{e}; resubmitting (dedup_key makes it safe) in {wait}ms");
                std::thread::sleep(Duration::from_millis(wait));
                attempt += 1;
                continue;
            }
            Err(e) => return Err(e),
        };
        if let Some(hint) = overload_hint(&resp) {
            if attempt < svc.retries {
                eprintln!("server overloaded; retrying in {hint}ms");
                std::thread::sleep(Duration::from_millis(hint));
                attempt += 1;
                continue;
            }
        }
        return Ok((conn, resp));
    }
}

/// One parsed subcommand.
enum Command {
    Submit(String, bool),
    Status(u64),
    Watch(u64),
}

/// Reads a subcommand's flags; `--file` is read here, so an unreadable
/// spec file is a usage error like a malformed flag.
fn parse(cmd: &str, argv: &[String]) -> Result<(Service, Command), UsageError> {
    let args = Args::parse(argv, &[COMMON, if cmd == "submit" { SUBMIT } else { JOB }])?;
    let need = |what: &str| UsageError(format!("need {what}"));
    let addr = args.get("--addr").ok_or_else(|| need("--addr HOST:PORT"))?;
    let svc = Service {
        addr: addr.to_string(),
        retries: args.value("--retries")?.unwrap_or(5),
    };
    let file = args.value_with("--file", |path| std::fs::read_to_string(path))?;
    let command = match (cmd, args.get("--spec"), file) {
        ("submit", Some(spec), None) => Command::Submit(spec.to_string(), args.has("--watch")),
        ("submit", None, Some(spec)) => Command::Submit(spec, args.has("--watch")),
        ("submit", ..) => return Err(need("exactly one of --spec JSON or --file PATH")),
        _ => match (cmd, args.value("--job")?.ok_or_else(|| need("--job N"))?) {
            ("status", job) => Command::Status(job),
            (_, job) => Command::Watch(job),
        },
    };
    Ok((svc, command))
}

/// Entry point for `submit` / `status` / `watch`. `cmd` is the
/// subcommand name, `argv` everything after it. A malformed command line
/// exits 2.
pub fn run(cmd: &str, argv: &[String]) -> ExitCode {
    let outcome = match parse(cmd, argv) {
        Ok((svc, command)) => execute(&svc, command),
        Err(e) => return e.report(),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

fn execute(svc: &Service, command: Command) -> Result<bool, String> {
    match command {
        Command::Submit(spec, watch) => {
            // One request per line: the spec must collapse to one line.
            let spec: String = spec.split_whitespace().collect::<Vec<_>>().join(" ");
            let (mut conn, resp) = submit_with_retry(svc, &spec)?;
            println!("{resp}");
            if !is_ok(&resp) {
                return Ok(false);
            }
            if watch {
                let job = json::parse(&resp)
                    .ok()
                    .and_then(|v| v.get("job").and_then(JsonValue::as_u64))
                    .ok_or("response carried no job id")?;
                return stream_watch(&mut conn, svc, job);
            }
            Ok(true)
        }
        Command::Status(job) => {
            let mut conn = connect_with_backoff(svc)?;
            conn.send_line(&format!("{{\"cmd\": \"status\", \"job\": {job}}}"))?;
            let resp = conn.read_line()?;
            println!("{resp}");
            Ok(is_ok(&resp))
        }
        Command::Watch(job) => {
            let mut conn = connect_with_backoff(svc)?;
            stream_watch(&mut conn, svc, job)
        }
    }
}
