//! Wire-protocol fuzz/corruption coverage, in the fail-closed style of
//! the trace codec suite: malformed frames, truncated JSON, oversized
//! payloads, unknown verbs/fields — every one a typed error response,
//! never a dead accept loop, a killed connection thread, or a wedged
//! worker. Runs against a real listening server over TCP.

use proptest::prelude::*;
use rcc_obs::json::JsonValue;
use rcc_serve::wire::{self, Request, MAX_LINE};
use rcc_serve::{Server, ServerConfig};
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};

fn start_server() -> (Server, SocketAddr) {
    let server = Server::start(ServerConfig {
        workers: 1,
        ..ServerConfig::default()
    })
    .expect("server starts");
    let addr = server.listen("127.0.0.1:0").expect("bind");
    (server, addr)
}

/// Sends one line, returns the first response line.
fn roundtrip(addr: SocketAddr, line: &str) -> String {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream.write_all(line.as_bytes()).expect("send");
    stream.write_all(b"\n").expect("send newline");
    let mut reader = BufReader::new(stream);
    let mut resp = String::new();
    reader.read_line(&mut resp).expect("response");
    resp.trim_end().to_string()
}

fn error_kind(resp: &str) -> Option<String> {
    let v = rcc_obs::json::parse(resp).ok()?;
    if v.get("ok").and_then(JsonValue::as_bool) == Some(false) {
        v.get("error")?
            .get("kind")
            .and_then(JsonValue::as_str)
            .map(str::to_string)
    } else {
        None
    }
}

#[test]
fn malformed_frames_get_typed_errors_and_the_loop_survives() {
    let (server, addr) = start_server();
    let cases: &[(&str, &str)] = &[
        ("{truncated", "json"),
        ("[1, 2, 3]", "request"),
        ("\"just a string\"", "request"),
        ("{\"cmd\": \"fly\"}", "request"),
        ("{\"cmd\": \"list\", \"stray\": 0}", "request"),
        ("{\"cmd\": \"status\"}", "request"),
        ("{\"cmd\": \"status\", \"job\": \"seven\"}", "request"),
        ("{\"cmd\": \"status\", \"job\": -3}", "request"),
        ("{\"cmd\": \"submit\"}", "request"),
        ("{\"cmd\": \"submit\", \"spec\": 42}", "schema"),
        ("{\"cmd\": \"submit\", \"spec\": {}}", "schema"),
        ("", "request"),
    ];
    // All on ONE connection: each bad frame must leave it usable.
    let mut stream = TcpStream::connect(addr).expect("connect");
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    for (line, want_kind) in cases {
        stream
            .write_all(format!("{line}\n").as_bytes())
            .expect("send");
        let mut resp = String::new();
        reader.read_line(&mut resp).expect("response");
        assert_eq!(
            error_kind(resp.trim_end()).as_deref(),
            Some(*want_kind),
            "for frame {line:?} got {resp:?}"
        );
    }
    // The same connection still serves a valid request.
    stream.write_all(b"{\"cmd\": \"list\"}\n").expect("send");
    let mut resp = String::new();
    reader.read_line(&mut resp).expect("response");
    assert!(resp.contains("\"ok\": true"), "survived: {resp}");
    server.shutdown().expect("clean shutdown");
}

#[test]
fn oversized_frames_are_rejected_without_buffering() {
    let (server, addr) = start_server();
    let mut stream = TcpStream::connect(addr).expect("connect");
    let huge = "x".repeat(MAX_LINE + 100);
    stream
        .write_all(format!("{huge}\n").as_bytes())
        .expect("send");
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    let mut resp = String::new();
    reader.read_line(&mut resp).expect("response");
    assert_eq!(error_kind(resp.trim_end()).as_deref(), Some("frame"));
    // Connection survives the flood.
    stream.write_all(b"{\"cmd\": \"list\"}\n").expect("send");
    let mut resp = String::new();
    reader.read_line(&mut resp).expect("response");
    assert!(resp.contains("\"ok\": true"));
    server.shutdown().expect("clean shutdown");
}

#[test]
fn non_utf8_frames_fail_closed() {
    let (server, addr) = start_server();
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .write_all(&[0xff, 0xfe, 0x80, b'\n'])
        .expect("send bytes");
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    let mut resp = String::new();
    reader.read_line(&mut resp).expect("response");
    assert_eq!(error_kind(resp.trim_end()).as_deref(), Some("encoding"));
    server.shutdown().expect("clean shutdown");
}

/// An end-to-end happy path over TCP: submit, watch the stream, status.
#[test]
fn submit_watch_status_over_tcp() {
    let (server, addr) = start_server();
    let spec = r#"{"cmd": "submit", "spec": {"version": 1, "protocol": "rcc", "workload": {"kind": "litmus", "name": "mp", "seed": 3}}}"#;
    let resp = roundtrip(addr, spec);
    let v = rcc_obs::json::parse(&resp).expect("json response");
    assert_eq!(v.get("ok").and_then(JsonValue::as_bool), Some(true));
    let id = v.get("job").and_then(JsonValue::as_u64).expect("job id");

    // watch streams until terminal; final line is the status.
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .write_all(format!("{{\"cmd\": \"watch\", \"job\": {id}}}\n").as_bytes())
        .expect("send");
    let reader = BufReader::new(stream);
    let mut last = String::new();
    for line in reader.lines() {
        let line = line.expect("stream line");
        if line.contains("\"state\": \"done\"") || line.contains("\"state\": \"failed\"") {
            last = line;
            break;
        }
    }
    assert!(last.contains("\"state\": \"done\""), "final status: {last}");
    assert!(last.contains("\"metrics_digest\""), "carries the summary");

    let status = roundtrip(addr, &format!("{{\"cmd\": \"status\", \"job\": {id}}}"));
    assert!(status.contains("\"state\": \"done\""));
    server.shutdown().expect("clean shutdown");
}

/// A deadlocked job's replies carry its hang dump, yet each reply is
/// still exactly one line: on a connection reused for `watch`, then
/// `status`, then `list`, every line parses on its own and the `list`
/// answer is the very next line after the status.
#[test]
fn hang_job_replies_are_one_line_each() {
    let (server, addr) = start_server();
    let submit = r#"{"cmd": "submit", "spec": {"version": 1, "protocol": "mesi", "workload": {"kind": "hang"}}}"#;
    let v = rcc_obs::json::parse(&roundtrip(addr, submit)).expect("json response");
    let id = v.get("job").and_then(JsonValue::as_u64).expect("job id");

    let mut stream = TcpStream::connect(addr).expect("connect");
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    let mut next_line = || {
        let mut line = String::new();
        reader.read_line(&mut line).expect("reply line");
        let v = rcc_obs::json::parse(line.trim_end())
            .unwrap_or_else(|e| panic!("reply line does not parse ({e}): {line:?}"));
        (line, v)
    };
    stream
        .write_all(format!("{{\"cmd\": \"watch\", \"job\": {id}}}\n").as_bytes())
        .expect("send");
    let watched = loop {
        let (_, v) = next_line();
        if v.get("state").is_some() {
            break v;
        }
    };
    for request in [
        format!("{{\"cmd\": \"status\", \"job\": {id}}}"),
        "{\"cmd\": \"list\"}".into(),
    ] {
        stream
            .write_all(format!("{request}\n").as_bytes())
            .expect("send");
    }
    let (_, status) = next_line();
    let (_, list) = next_line();
    for v in [&watched, &status] {
        assert_eq!(v.get("state").and_then(JsonValue::as_str), Some("failed"));
        let err = v.get("error").expect("failed job carries its error");
        assert_eq!(
            err.get("kind").and_then(JsonValue::as_str),
            Some("deadlock")
        );
        assert!(err.get("hang_dump").and_then(|d| d.get("cycle")).is_some());
    }
    assert!(
        list.get("jobs").is_some(),
        "list answers right after status"
    );
    server.shutdown().expect("clean shutdown");
}

/// Random garbage never kills the connection: every frame gets exactly
/// one response line and the connection then still answers `list`.
fn arb_garbage() -> impl Strategy<Value = Vec<u8>> {
    prop::collection::vec(
        prop_oneof![
            // printable junk
            0x20u8..0x7f,
            // JSON-ish punctuation, heavily weighted
            prop_oneof![
                Just(b'{'),
                Just(b'}'),
                Just(b'"'),
                Just(b':'),
                Just(b','),
                Just(b'[')
            ],
        ],
        0..200,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn fuzzed_frames_never_kill_the_connection(frames in prop::collection::vec(arb_garbage(), 1..8)) {
        // One server per case keeps state independent; it is cheap.
        let (server, addr) = start_server();
        let mut stream = TcpStream::connect(addr).expect("connect");
        let mut reader = BufReader::new(stream.try_clone().expect("clone"));
        for frame in &frames {
            let mut msg = frame.clone();
            msg.retain(|&b| b != b'\n');
            msg.push(b'\n');
            stream.write_all(&msg).expect("send");
            let mut resp = String::new();
            reader.read_line(&mut resp).expect("one response per frame");
            prop_assert!(!resp.is_empty(), "connection died on {frame:?}");
            let v = rcc_obs::json::parse(resp.trim_end()).expect("response is JSON");
            prop_assert!(v.get("ok").and_then(JsonValue::as_bool).is_some());
        }
        stream.write_all(b"{\"cmd\": \"list\"}\n").expect("send");
        let mut resp = String::new();
        reader.read_line(&mut resp).expect("list response");
        prop_assert!(resp.contains("\"ok\": true"));
        server.shutdown().expect("clean shutdown");
    }

    /// Corrupting a valid submit frame at one byte either still parses
    /// (rare) or fails typed — it never yields a non-JSON response or
    /// a dropped connection. Mirrors the codec bit-flip discipline.
    #[test]
    fn bitflipped_submits_fail_closed(pos in 0usize..1000, flip in 1u8..255) {
        let valid = br#"{"cmd": "submit", "spec": {"version": 1, "protocol": "rcc", "workload": {"kind": "hang"}}}"#;
        let mut frame = valid.to_vec();
        let pos = pos % frame.len();
        frame[pos] ^= flip;
        frame.retain(|&b| b != b'\n');
        let (server, addr) = start_server();
        let mut stream = TcpStream::connect(addr).expect("connect");
        stream.write_all(&frame).expect("send");
        stream.write_all(b"\n").expect("send newline");
        let mut reader = BufReader::new(stream.try_clone().expect("clone"));
        let mut resp = String::new();
        reader.read_line(&mut resp).expect("response");
        let v = rcc_obs::json::parse(resp.trim_end()).expect("response is JSON");
        prop_assert!(v.get("ok").and_then(JsonValue::as_bool).is_some());
        server.shutdown().expect("clean shutdown");
    }
}

/// The pure request parser agrees with itself on the verbs (sanity for
/// the fuzz above, which mostly sees rejections).
#[test]
fn parser_accepts_every_verb() {
    for (line, want) in [
        (r#"{"cmd": "list"}"#, Request::List),
        (r#"{"cmd": "shutdown"}"#, Request::Shutdown),
        (r#"{"cmd": "status", "job": 0}"#, Request::Status(0)),
        (r#"{"cmd": "watch", "job": 9}"#, Request::Watch(9)),
    ] {
        assert_eq!(wire::parse_request(line), Ok(want));
    }
}
