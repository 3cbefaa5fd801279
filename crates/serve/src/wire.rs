//! The line-delimited JSON wire protocol, fail closed.
//!
//! One request per line, one JSON object per request, `cmd` selects the
//! verb. Anything else — a frame over [`MAX_LINE`], invalid UTF-8,
//! truncated or trailing-garbage JSON, a non-object, an unknown verb,
//! an unknown field, a wrong-typed argument — is a typed
//! [`WireError`] turned into an error response on that connection; the
//! accept loop and the workers never see it. `tests/wire.rs` hammers
//! this layer with corrupted frames in the same style as the trace
//! codec's fail-closed suite.

use rcc_obs::json::{escape, JsonValue};
use std::io::{self, BufRead};

/// Hard cap on a request frame, newline included. Large enough for any
/// legitimate spec, small enough that a hostile peer cannot balloon the
/// connection thread's memory.
pub const MAX_LINE: usize = 64 * 1024;

/// A parsed request.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Submit a job; the payload is the raw spec value (validated by
    /// [`crate::spec::JobSpec::from_value`] next).
    Submit(JsonValue),
    /// Query one job's status.
    Status(u64),
    /// Stream progress events for one job until it is terminal.
    Watch(u64),
    /// Summarize every job the server knows about.
    List,
    /// Stop accepting connections and wind down the workers.
    Shutdown,
}

/// A typed wire-level rejection.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireError {
    /// Rejection category: `frame`, `encoding`, `json`, `request`.
    pub kind: &'static str,
    /// Human-readable reason.
    pub detail: String,
}

impl WireError {
    fn new(kind: &'static str, detail: impl Into<String>) -> Self {
        WireError {
            kind,
            detail: detail.into(),
        }
    }
}

/// Reads one newline-terminated frame with the [`MAX_LINE`] bound
/// enforced *during* the read: an overlong line is drained and reported
/// without ever being buffered whole. `Ok(None)` is a clean EOF.
pub fn read_frame(r: &mut impl BufRead) -> io::Result<Option<Result<String, WireError>>> {
    let mut buf: Vec<u8> = Vec::new();
    let mut overlong = false;
    loop {
        let chunk = r.fill_buf()?;
        if chunk.is_empty() {
            // EOF: a clean end between frames, or a final unterminated
            // frame (processed as-is).
            if buf.is_empty() && !overlong {
                return Ok(None);
            }
            break;
        }
        let (take, done) = match chunk.iter().position(|&b| b == b'\n') {
            Some(nl) => (nl + 1, true),
            None => (chunk.len(), false),
        };
        if !overlong {
            if buf.len() + take > MAX_LINE {
                overlong = true;
                buf.clear();
            } else {
                buf.extend_from_slice(&chunk[..take]);
            }
        }
        r.consume(take);
        if done {
            break;
        }
    }
    if overlong {
        return Ok(Some(Err(WireError::new(
            "frame",
            format!("line exceeds {MAX_LINE} bytes"),
        ))));
    }
    while buf.last() == Some(&b'\n') || buf.last() == Some(&b'\r') {
        buf.pop();
    }
    match String::from_utf8(buf) {
        Ok(line) => Ok(Some(Ok(line))),
        Err(_) => Ok(Some(Err(WireError::new("encoding", "frame is not UTF-8")))),
    }
}

fn job_arg(obj: &JsonValue) -> Result<u64, WireError> {
    obj.get("job")
        .and_then(JsonValue::as_u64)
        .ok_or_else(|| WireError::new("request", "job must be a non-negative integer"))
}

/// Parses one frame into a [`Request`], rejecting unknown verbs and
/// unknown fields.
pub fn parse_request(line: &str) -> Result<Request, WireError> {
    if line.trim().is_empty() {
        return Err(WireError::new("request", "empty request"));
    }
    let v = rcc_obs::json::parse(line).map_err(|e| WireError::new("json", e))?;
    let Some(obj) = v.as_object() else {
        return Err(WireError::new("request", "request must be a JSON object"));
    };
    let Some(cmd) = v.get("cmd").and_then(JsonValue::as_str) else {
        return Err(WireError::new("request", "missing cmd"));
    };
    let allowed: &[&str] = match cmd {
        "submit" => &["cmd", "spec"],
        "status" | "watch" => &["cmd", "job"],
        "list" | "shutdown" => &["cmd"],
        other => {
            return Err(WireError::new(
                "request",
                format!("unknown cmd {other} (submit|status|watch|list|shutdown)"),
            ))
        }
    };
    if let Some(stray) = obj.keys().find(|k| !allowed.contains(&k.as_str())) {
        return Err(WireError::new(
            "request",
            format!("unknown field {stray} for cmd {cmd}"),
        ));
    }
    Ok(match cmd {
        "submit" => {
            let spec = v
                .get("spec")
                .ok_or_else(|| WireError::new("request", "submit needs a spec object"))?;
            Request::Submit(spec.clone())
        }
        "status" => Request::Status(job_arg(&v)?),
        "watch" => Request::Watch(job_arg(&v)?),
        "list" => Request::List,
        _ => Request::Shutdown,
    })
}

/// The error-response line for a wire-level rejection.
pub fn error_line(kind: &str, detail: &str) -> String {
    format!(
        "{{\"ok\": false, \"error\": {{\"kind\": \"{}\", \"detail\": \"{}\"}}}}",
        escape(kind),
        escape(detail)
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verbs_parse_and_unknown_fields_fail_closed() {
        assert_eq!(parse_request(r#"{"cmd": "list"}"#), Ok(Request::List));
        assert_eq!(
            parse_request(r#"{"cmd": "status", "job": 3}"#),
            Ok(Request::Status(3))
        );
        assert!(parse_request(r#"{"cmd": "status", "job": -1}"#).is_err());
        assert!(parse_request(r#"{"cmd": "list", "extra": 1}"#).is_err());
        assert!(parse_request(r#"{"cmd": "teleport"}"#).is_err());
        assert!(parse_request(r#"[1, 2]"#).is_err());
        assert!(parse_request("").is_err());
    }

    #[test]
    fn overlong_frames_are_drained_not_buffered() {
        let mut big = vec![b'x'; MAX_LINE + 10];
        big.push(b'\n');
        big.extend_from_slice(b"{\"cmd\": \"list\"}\n");
        let mut r = io::BufReader::new(&big[..]);
        let first = read_frame(&mut r).unwrap().unwrap();
        assert_eq!(first.unwrap_err().kind, "frame");
        let second = read_frame(&mut r).unwrap().unwrap().unwrap();
        assert_eq!(parse_request(&second), Ok(Request::List));
        assert!(read_frame(&mut r).unwrap().is_none(), "clean EOF");
    }
}
