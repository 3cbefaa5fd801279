//! The two `rcc-serve` workloads. Both run one worker with the journal
//! and the results directory fsync'd, and two closed-loop clients: each
//! submits a job, waits for its terminal record, then takes the next.
//!
//! - `serve-preempt`: the protocol × benchmark campaign on the 8-core
//!   small machine at standard scale, at both input seeds, submitted
//!   in-process and cut into 30,000-cycle quanta so the median job is
//!   preempted ~7 times. MESI-WB is left out: its resumed slice chains
//!   fail digest verification on some benchmarks (see NOTES.md).
//! - `serve-tcp`: tiny jobs over TCP loopback, one connection per
//!   client: 4-core litmus tests and quick-scale benchmarks over all 7
//!   protocols, plus ~5% crafted `hang` jobs and ~5% invalid specs, at
//!   the service's default quantum.

use crate::layers::{self, Cycles};
use crate::spans::Tracer;
use crate::stats::{self, median, median_wall, tail, Round, SetUp};
use crate::{input_seeds, Args, Outcome};
use rcc_common::Pcg32;
use rcc_core::ProtocolKind;
use rcc_obs::json::{self, JsonValue};
use rcc_serve::server::DEFAULT_QUANTUM;
use rcc_serve::store::JobRecord;
use rcc_serve::wire::{self, Request};
use rcc_serve::{JobSpec, ResultSummary, Server, ServerConfig, Submission};
use rcc_workloads::{litmus, Benchmark};
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Closed-loop clients (and, for serve-tcp, connections).
const CLIENTS: usize = 2;
/// serve-preempt quantum: 7.1 preemptions per job on the median job.
const PREEMPT_QUANTUM: u64 = 30_000;
/// Longest reply a client accepts, in lines: a deadlock's record carries
/// a pretty-printed hang dump across many lines.
const MAX_REPLY_LINES: usize = 100_000;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Expect {
    Done,
    Deadlock,
    Rejected(&'static str),
}

struct Job {
    /// The spec exactly as a client sends it.
    spec: String,
    expect: Expect,
    /// A benchmark job at the run's own seed, which feeds the six ratios.
    repro: bool,
}

/// What a client saw for one job.
struct Seen {
    idx: usize,
    turnaround_ms: f64,
    submit_ms: f64,
    watch_ms: f64,
    /// `done` / `failed` / `quarantined` / `rejected`.
    state: String,
    kind: Option<String>,
    summary: Option<JsonValue>,
    slices: u64,
    preemptions: u64,
    attempts: u64,
}

impl Seen {
    fn from_record(idx: usize, rec: &JobRecord) -> Seen {
        Seen {
            idx,
            turnaround_ms: 0.0,
            submit_ms: 0.0,
            watch_ms: 0.0,
            state: rec.state.label().to_string(),
            kind: rec.error.as_ref().map(|e| e.kind.to_string()),
            summary: rec
                .summary
                .as_ref()
                .and_then(|s| json::parse(&s.to_json()).ok()),
            slices: rec.slices,
            preemptions: rec.preemptions,
            attempts: u64::from(rec.attempts),
        }
    }

    fn rejected(idx: usize, kind: &str) -> Seen {
        Seen {
            idx,
            turnaround_ms: 0.0,
            submit_ms: 0.0,
            watch_ms: 0.0,
            state: "rejected".into(),
            kind: Some(kind.to_string()),
            summary: None,
            slices: 0,
            preemptions: 0,
            attempts: 0,
        }
    }

    /// The fields that must repeat exactly whenever the job runs again.
    fn exact(&self) -> (&str, Option<&str>, u64, u64, u64) {
        (
            &self.state,
            self.kind.as_deref(),
            self.slices,
            self.preemptions,
            self.attempts,
        )
    }
}

fn preempt_campaign(seed: u64) -> Vec<Job> {
    let mut jobs = Vec::new();
    for s in input_seeds(seed) {
        for b in Benchmark::ALL {
            for k in ProtocolKind::ALL
                .into_iter()
                .filter(|&k| k != ProtocolKind::MesiWb)
            {
                jobs.push(Job {
                    spec: layers::bench_spec(k, b, "standard", 8, s),
                    expect: Expect::Done,
                    repro: s == seed,
                });
            }
        }
    }
    jobs
}

fn tcp_campaign(seed: u64) -> Vec<Job> {
    let mut jobs = Vec::new();
    for k in ProtocolKind::ALL {
        let proto = layers::proto_name(k);
        for t in litmus::all(4, seed) {
            jobs.push(Job {
                spec: format!(
                    "{{\"version\": 1, \"protocol\": \"{proto}\", \"workload\": {{\"kind\": \
                     \"litmus\", \"name\": \"{}\", \"cores\": 4, \"seed\": {seed}}}}}",
                    t.name
                ),
                expect: Expect::Done,
                repro: false,
            });
        }
        for b in Benchmark::inter_workgroup() {
            jobs.push(Job {
                spec: layers::bench_spec(k, b, "quick", 4, seed),
                expect: Expect::Done,
                repro: true,
            });
        }
    }
    for k in &ProtocolKind::ALL[..5] {
        jobs.push(Job {
            spec: format!(
                "{{\"version\": 1, \"protocol\": \"{}\", \"workload\": {{\"kind\": \"hang\"}}}}",
                layers::proto_name(*k)
            ),
            expect: Expect::Deadlock,
            repro: false,
        });
    }
    let invalid: [(&str, &str); 5] = [
        (
            r#"{"version": 1, "protocol": "moesi", "workload": {"kind": "litmus", "name": "mp"}}"#,
            "schema",
        ),
        (
            r#"{"version": 1, "protocol": "rcc", "workload": {"kind": "bench", "name": "doom"}}"#,
            "workload",
        ),
        (
            r#"{"version": 1, "protocol": "rcc", "workload": {"kind": "litmus", "name": "mp"}, "surprise": 1}"#,
            "schema",
        ),
        (
            r#"{"version": 1, "protocol": "rcc", "workload": {"kind": "litmus", "name": "mp"}, "options": {"priority": 9}}"#,
            "schema",
        ),
        (r#"{not json"#, "json"),
    ];
    for (spec, kind) in invalid {
        jobs.push(Job {
            spec: spec.into(),
            expect: Expect::Rejected(kind),
            repro: false,
        });
    }
    Pcg32::seeded(seed).shuffle(&mut jobs);
    jobs
}

fn start(dir: &Path, quantum: u64) -> Result<Server, String> {
    Server::start(ServerConfig {
        workers: 1,
        quantum,
        results_dir: Some(dir.join("results")),
        journal: Some(dir.join("journal.rccj")),
        fsync: true,
        ..ServerConfig::default()
    })
}

/// One client connection speaking the line protocol.
struct Conn {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Conn {
    fn open(addr: SocketAddr) -> Result<Conn, String> {
        let writer = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        let reader = BufReader::new(writer.try_clone().map_err(|e| e.to_string())?);
        Ok(Conn { reader, writer })
    }

    fn send(&mut self, line: &str) -> Result<(), String> {
        self.writer
            .write_all(format!("{line}\n").as_bytes())
            .map_err(|e| format!("send: {e}"))
    }

    /// One reply: lines are joined until they parse, since a deadlock's
    /// record spans several lines.
    fn recv(&mut self) -> Result<JsonValue, String> {
        let mut text = String::new();
        for _ in 0..MAX_REPLY_LINES {
            match self.reader.read_line(&mut text) {
                Ok(0) => return Err(format!("connection closed mid-reply {text:?}")),
                Ok(_) => {
                    if let Ok(v) = json::parse(text.trim_end()) {
                        return Ok(v);
                    }
                }
                Err(e) => return Err(format!("recv: {e}")),
            }
        }
        Err(format!("reply longer than {MAX_REPLY_LINES} lines"))
    }
}

fn error_kind(v: &JsonValue) -> String {
    v.get("error")
        .and_then(|e| e.get("kind"))
        .and_then(JsonValue::as_str)
        .unwrap_or("?")
        .to_string()
}

/// submit → watch to the terminal record, over one connection.
fn tcp_job(
    conn: &mut Conn,
    idx: usize,
    job: &Job,
    gid: u64,
    tracer: &Tracer,
    parent: Option<u64>,
) -> Result<Seen, String> {
    let t = Instant::now();
    let reply = tracer.span("wire.submit", parent, Some(gid), |_| {
        conn.send(&format!("{{\"cmd\": \"submit\", \"spec\": {}}}", job.spec))?;
        conn.recv()
    })?;
    let submit_ms = t.elapsed().as_secs_f64() * 1e3;
    if reply.get("ok").and_then(JsonValue::as_bool) != Some(true) {
        return Ok(Seen::rejected(idx, &error_kind(&reply)));
    }
    let id = reply
        .get("job")
        .and_then(JsonValue::as_u64)
        .ok_or("submit reply without job id")?;
    let tw = Instant::now();
    let rec = tracer.span(
        "wire.watch",
        parent,
        Some(gid),
        |_| -> Result<JsonValue, String> {
            conn.send(&format!("{{\"cmd\": \"watch\", \"job\": {id}}}"))?;
            loop {
                let v = conn.recv()?;
                if v.get("state").is_some()
                    || v.get("ok").and_then(JsonValue::as_bool) == Some(false)
                {
                    return Ok(v);
                }
            }
        },
    )?;
    let count = |k: &str| rec.get(k).and_then(JsonValue::as_u64).unwrap_or(0);
    Ok(Seen {
        idx,
        turnaround_ms: 0.0,
        submit_ms,
        watch_ms: tw.elapsed().as_secs_f64() * 1e3,
        state: rec
            .get("state")
            .and_then(JsonValue::as_str)
            .unwrap_or("error")
            .to_string(),
        kind: rec
            .get("error")
            .filter(|e| **e != JsonValue::Null)
            .map(|_| error_kind(&rec)),
        summary: rec
            .get("result")
            .filter(|r| **r != JsonValue::Null)
            .cloned(),
        slices: count("slices"),
        preemptions: count("preemptions"),
        attempts: count("attempts"),
    })
}

/// submit_json → wait, in-process.
fn local_job(
    server: &Server,
    idx: usize,
    job: &Job,
    gid: u64,
    tracer: &Tracer,
    parent: Option<u64>,
) -> Result<Seen, String> {
    let t = Instant::now();
    let sub = tracer.span("serve.submit_json", parent, Some(gid), |_| {
        server.submit_json(&job.spec)
    });
    let submit_ms = t.elapsed().as_secs_f64() * 1e3;
    let id = match sub {
        Submission::Accepted { id, .. } => id,
        Submission::Rejected { kind, .. } => return Ok(Seen::rejected(idx, &kind)),
        Submission::Overloaded { .. } => return Ok(Seen::rejected(idx, "overloaded")),
    };
    let tw = Instant::now();
    let rec = tracer
        .span("serve.wait", parent, Some(gid), |_| server.wait(id))
        .ok_or("accepted job vanished")?;
    let mut seen = Seen::from_record(idx, &rec);
    seen.submit_ms = submit_ms;
    seen.watch_ms = tw.elapsed().as_secs_f64() * 1e3;
    Ok(seen)
}

fn round(
    server: &Server,
    addr: Option<SocketAddr>,
    jobs: &[Job],
    base: u64,
    tracer: &Tracer,
) -> Result<Vec<Seen>, String> {
    let next = AtomicUsize::new(0);
    let seen = Mutex::new(Vec::new());
    std::thread::scope(|s| -> Result<(), String> {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|_| {
                s.spawn(|| -> Result<(), String> {
                    let mut conn = addr.map(Conn::open).transpose()?;
                    loop {
                        let idx = next.fetch_add(1, Ordering::SeqCst);
                        let Some(job) = jobs.get(idx) else {
                            return Ok(());
                        };
                        let gid = base + idx as u64;
                        let t = Instant::now();
                        let mut one =
                            tracer.span("client.job", None, Some(gid), |p| match &mut conn {
                                Some(c) => tcp_job(c, idx, job, gid, tracer, p),
                                None => local_job(server, idx, job, gid, tracer, p),
                            })?;
                        one.turnaround_ms = t.elapsed().as_secs_f64() * 1e3;
                        seen.lock().expect("results poisoned").push(one);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join()
                .map_err(|_| "client thread panicked".to_string())??;
        }
        Ok(())
    })?;
    let mut seen = seen.into_inner().expect("results poisoned");
    seen.sort_by_key(|s| s.idx);
    Ok(seen)
}

/// Campaign rounds; span job ids go on from `base` across calls, so the
/// plain and traced rounds never share one.
fn rounds(
    server: &Server,
    addr: Option<SocketAddr>,
    jobs: &[Job],
    seconds: f64,
    tracer: &Tracer,
    base: &mut u64,
    between: impl FnMut() -> Result<(), String>,
) -> Result<Vec<Round<Vec<Seen>>>, String> {
    stats::rounds(seconds, tracer, between, || {
        let seen = round(server, addr, jobs, *base, tracer)?;
        *base += jobs.len() as u64;
        Ok(seen)
    })
}

/// What [`check`] learnt from the direct twins and the deliberate
/// failures.
struct Checked {
    cycles: Cycles,
    direct_s: f64,
    rejected: u64,
    failed_typed: u64,
}

/// Checks every outcome of every round against the expectation, the
/// exact fields against the first round, and finished results against a
/// direct `try_simulate` of `spec.inputs()`.
fn check(jobs: &[Job], rounds: &[&[Seen]], out: &mut Outcome) -> Result<Checked, String> {
    let mut twins: Vec<Option<JsonValue>> = vec![None; jobs.len()];
    let mut c = Checked {
        cycles: Cycles::new(),
        direct_s: 0.0,
        rejected: 0,
        failed_typed: 0,
    };
    for (n, r) in rounds.iter().enumerate() {
        if r.len() != jobs.len() {
            return Err(format!("round saw {} of {} jobs", r.len(), jobs.len()));
        }
        for s in r.iter() {
            out.attempted += 1;
            let job = &jobs[s.idx];
            let ok = match job.expect {
                Expect::Rejected(kind) => s.state == "rejected" && s.kind.as_deref() == Some(kind),
                Expect::Deadlock => s.state == "failed" && s.kind.as_deref() == Some("deadlock"),
                Expect::Done => {
                    if twins[s.idx].is_none() {
                        let spec = JobSpec::parse(&job.spec).map_err(|e| e.detail)?;
                        let (kind, cfg, wl, opts) = spec.inputs();
                        let t = Instant::now();
                        let m = rcc_sim::try_simulate(kind, &cfg, &wl, &opts)
                            .map_err(|e| format!("direct twin of {}: {e}", job.spec))?;
                        c.direct_s += t.elapsed().as_secs_f64();
                        if job.repro {
                            c.cycles
                                .insert((m.workload.clone(), layers::proto_name(kind)), m.cycles);
                        }
                        twins[s.idx] =
                            Some(json::parse(&ResultSummary::from_metrics(&m).to_json())?);
                    }
                    s.state == "done" && s.summary == twins[s.idx]
                }
            };
            let repeats = s.exact() == rounds[0][s.idx].exact();
            if ok && n == 0 {
                match job.expect {
                    Expect::Rejected(_) => c.rejected += 1,
                    Expect::Deadlock => c.failed_typed += 1,
                    Expect::Done => {}
                }
            }
            if !ok || !repeats {
                out.failed += 1;
                out.notes.push(format!(
                    "unexpected outcome for {}: {} {:?}, {} slices (wanted {:?}{})",
                    job.spec,
                    s.state,
                    s.kind,
                    s.slices,
                    job.expect,
                    if repeats { "" } else { ", as in round 1" }
                ));
            }
        }
    }
    Ok(c)
}

/// Checks each spec on the path a TCP submit takes, so that a campaign
/// that would not behave as written fails at set-up.
fn validate(jobs: &[Job]) -> Result<(), String> {
    for job in jobs {
        let frame = format!("{{\"cmd\": \"submit\", \"spec\": {}}}", job.spec);
        let kind = match wire::parse_request(&frame) {
            Err(e) => Some(e.kind),
            Ok(Request::Submit(v)) => JobSpec::from_value(&v).err().map(|e| e.kind),
            Ok(_) => return Err(format!("{} is not a submit", job.spec)),
        };
        let want = match job.expect {
            Expect::Rejected(k) => Some(k),
            Expect::Done | Expect::Deadlock => None,
        };
        if kind != want {
            return Err(format!(
                "spec {} parses as {kind:?}, wanted {:?}",
                job.spec, job.expect
            ));
        }
    }
    Ok(())
}

/// The values `f` picks from the jobs the service accepted in one round.
fn accepted(r: &Round<Vec<Seen>>, f: fn(&Seen) -> f64) -> Vec<f64> {
    r.out
        .iter()
        .filter(|s| s.state != "rejected")
        .map(f)
        .collect()
}

pub fn run(args: &Args, tcp: bool) -> Result<Outcome, String> {
    let quantum = if tcp {
        DEFAULT_QUANTUM
    } else {
        PREEMPT_QUANTUM
    };
    let mut setup = SetUp::new(
        || {
            let dir = args.scratch()?;
            let server = start(&dir, quantum)?;
            let addr = if tcp {
                Some(server.listen("127.0.0.1:0")?)
            } else {
                None
            };
            let jobs = if tcp {
                tcp_campaign(args.seed)
            } else {
                preempt_campaign(args.seed)
            };
            validate(&jobs)?;
            Ok((dir, server, addr, jobs))
        },
        |(dir, server, ..)| {
            server.shutdown()?;
            std::fs::remove_dir_all(&dir).map_err(|e| e.to_string())
        },
    );
    let (dir, server, addr, jobs) = setup.batch()?;

    let mut base = 0;
    let plain = rounds(
        &server,
        addr,
        &jobs,
        args.seconds,
        &Tracer::new(false),
        &mut base,
        || setup.sample(),
    )?;
    let traced = if args.trace {
        let tracer = Tracer::new(true);
        let traced = rounds(
            &server,
            addr,
            &jobs,
            args.seconds,
            &tracer,
            &mut base,
            || Ok(()),
        )?;
        Some((tracer, traced))
    } else {
        None
    };
    server.shutdown()?;
    let setup_s = setup.finish()?;
    let mut out = Outcome::default();
    let all: Vec<&[Seen]> = plain
        .iter()
        .chain(traced.iter().flat_map(|t| &t.1))
        .map(|r| r.out.as_slice())
        .collect();
    let checked = check(&jobs, &all, &mut out)?;
    let ratios =
        layers::ratios(&checked.cycles).ok_or("campaign is missing runs for the six ratios")?;

    let p50: Vec<f64> = plain
        .iter()
        .map(|r| median(&accepted(r, |s| s.turnaround_ms)))
        .collect();
    let tails: Vec<(f64, f64, usize)> = plain
        .iter()
        .map(|r| tail(&accepted(r, |s| s.turnaround_ms)))
        .collect();
    let wall_s = median_wall(&plain);
    let e = &mut out.e2e;
    e.put("setup_s", setup_s, "s");
    e.put("wall_s", wall_s, "s");
    e.put("turnaround_p50_ms", median(&p50), "ms");
    e.put(
        "turnaround_tail_ms",
        median(&tails.iter().map(|t| t.0).collect::<Vec<_>>()),
        "ms",
    );
    e.put("repro_err", layers::repro_err(&ratios), "1");
    out.notes.push(format!(
        "turnaround_tail_ms is p{:.1} of {} accepted jobs per round ({} above it); {} rounds",
        tails[0].1,
        accepted(&plain[0], |s| s.turnaround_ms).len(),
        tails[0].2,
        plain.len()
    ));

    if let Some((tracer, traced)) = traced {
        let specs: Vec<String> = jobs.iter().map(|j| j.spec.clone()).collect();
        let replay = layers::replay(&specs, quantum, &dir, &tracer)?;
        // The replay cuts each chain where the live service did.
        for (s, preemptions) in plain[0].out.iter().zip(&replay.preemptions) {
            if preemptions.is_some_and(|p| p != s.preemptions) {
                out.failed += 1;
                out.notes.push(format!(
                    "replay of {} disagrees on preemptions",
                    jobs[s.idx].spec
                ));
            }
        }
        let l = &mut out.layer;
        l.put("workloads.generate_s", replay.generate_s, "s");
        replay.engine.put(l);
        layers::put_ratios(l, &ratios);
        replay.put(l);
        let r0 = &plain[0];
        let n = accepted(r0, |_| 1.0).len().max(1) as f64;
        let sum = |f: fn(&Seen) -> f64| accepted(r0, f).iter().sum::<f64>();
        l.put(
            "serve.slices_per_job",
            sum(|s| s.slices as f64) / n,
            "count",
        );
        l.put(
            "serve.preemptions_per_job",
            sum(|s| s.preemptions as f64) / n,
            "count",
        );
        l.put("serve.retries", sum(|s| s.attempts as f64), "count");
        l.put("serve.direct_s", checked.direct_s, "s");
        l.put("serve.overhead_x", wall_s / checked.direct_s.max(1e-9), "1");
        l.put("serve.rejected", checked.rejected as f64, "count");
        l.put("serve.failed_typed", checked.failed_typed as f64, "count");
        let submit = median(
            &plain
                .iter()
                .flat_map(|r| accepted(r, |s| s.submit_ms))
                .collect::<Vec<_>>(),
        );
        let watch = median(
            &plain
                .iter()
                .flat_map(|r| accepted(r, |s| s.watch_ms))
                .collect::<Vec<_>>(),
        );
        if tcp {
            l.put("wire.submit_rtt_ms", submit, "ms");
            l.put("wire.watch_ms", watch, "ms");
        } else {
            l.put("serve.submit_ms", submit, "ms");
        }
        l.put("trace.overhead", median_wall(&traced) / wall_s - 1.0, "1");
        crate::finish_trace(args, &tracer, stats::span_of(&traced), l)?;
    }
    Ok(out)
}
