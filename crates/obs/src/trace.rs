//! Structured trace events serialized as Chrome trace JSON.
//!
//! Events use the Chrome trace event format (`ph` = `B`/`E`/`i`/`C`/`M`)
//! with the simulated cycle as the timestamp, so a dump loads directly in
//! [Perfetto](https://ui.perfetto.dev) or `chrome://tracing` and the time
//! axis reads in cycles (rendered as microseconds). Components get stable
//! track ids via [`track`] so traces from different runs line up, and
//! RCC's logical clocks appear as counter tracks per L2 bank.

use crate::json::escape;
use std::fmt::Write as _;

/// Stable track-id (tid) layout. One process (`pid` 1) with one thread
/// per component keeps Perfetto's grouping flat and deterministic.
pub mod track {
    /// System-wide events (rollover spans, watchdog).
    pub const SYSTEM: u64 = 1;
    /// Core `i` gets `CORE_BASE + i`.
    pub const CORE_BASE: u64 = 100;
    /// L1 `i` gets `L1_BASE + i`.
    pub const L1_BASE: u64 = 300;
    /// L2 bank `i` gets `L2_BASE + i`.
    pub const L2_BASE: u64 = 500;
    /// DRAM channel `i` gets `DRAM_BASE + i`.
    pub const DRAM_BASE: u64 = 700;
    /// Request network.
    pub const NOC_REQ: u64 = 900;
    /// Response network.
    pub const NOC_RESP: u64 = 901;
}

/// An event argument value (rendered into the `args` object).
#[derive(Debug, Clone, PartialEq)]
pub enum ArgValue {
    /// Unsigned integer argument.
    U(u64),
    /// Float argument.
    F(f64),
    /// String argument.
    S(String),
}

#[derive(Debug, Clone)]
enum Ev {
    /// Span begin (`ph: "B"`).
    Begin {
        ts: u64,
        tid: u64,
        name: &'static str,
    },
    /// Span end (`ph: "E"`).
    End { ts: u64, tid: u64 },
    /// Instant event (`ph: "i"`, thread scope).
    Instant {
        ts: u64,
        tid: u64,
        name: &'static str,
        args: Vec<(&'static str, ArgValue)>,
    },
    /// Counter sample (`ph: "C"`).
    Counter {
        ts: u64,
        tid: u64,
        name: &'static str,
        value: u64,
    },
}

/// Buffer of structured trace events with a hard cap.
///
/// Once `max_events` is reached further events are *counted* as dropped,
/// never silently discarded — the dropped count is surfaced both via
/// [`TraceBuffer::dropped`] and as a final instant event in the dump.
#[derive(Debug, Clone, Default)]
pub struct TraceBuffer {
    events: Vec<Ev>,
    names: Vec<(u64, String)>,
    max_events: usize,
    dropped: u64,
}

impl TraceBuffer {
    /// Creates a buffer holding at most `max_events` events.
    pub fn new(max_events: usize) -> Self {
        TraceBuffer {
            events: Vec::new(),
            names: Vec::new(),
            max_events,
            dropped: 0,
        }
    }

    /// Number of buffered events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether no events were recorded.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Events rejected because the buffer was full.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Registers a human-readable name for a track (emitted as a
    /// `thread_name` metadata event).
    pub fn thread_name(&mut self, tid: u64, name: String) {
        self.names.push((tid, name));
    }

    fn push(&mut self, ev: Ev) {
        if self.events.len() < self.max_events {
            self.events.push(ev);
        } else {
            self.dropped += 1;
        }
    }

    /// Opens a span on `tid` at cycle `ts`.
    pub fn begin(&mut self, ts: u64, tid: u64, name: &'static str) {
        self.push(Ev::Begin { ts, tid, name });
    }

    /// Closes the innermost open span on `tid` at cycle `ts`.
    pub fn end(&mut self, ts: u64, tid: u64) {
        self.push(Ev::End { ts, tid });
    }

    /// Records an instant event with arguments.
    pub fn instant(
        &mut self,
        ts: u64,
        tid: u64,
        name: &'static str,
        args: Vec<(&'static str, ArgValue)>,
    ) {
        self.push(Ev::Instant {
            ts,
            tid,
            name,
            args,
        });
    }

    /// Records a counter sample (rendered as a counter track).
    pub fn counter(&mut self, ts: u64, tid: u64, name: &'static str, value: u64) {
        self.push(Ev::Counter {
            ts,
            tid,
            name,
            value,
        });
    }

    /// Number of instant events with the given name (test helper).
    pub fn count_instants(&self, name: &str) -> usize {
        self.events
            .iter()
            .filter(|e| matches!(e, Ev::Instant { name: n, .. } if *n == name))
            .count()
    }

    /// Track ids that carry an instant event with the given name
    /// (test helper; deduplicated, sorted).
    pub fn instant_tids(&self, name: &str) -> Vec<u64> {
        let mut tids: Vec<u64> = self
            .events
            .iter()
            .filter_map(|e| match e {
                Ev::Instant { name: n, tid, .. } if *n == name => Some(*tid),
                _ => None,
            })
            .collect();
        tids.sort_unstable();
        tids.dedup();
        tids
    }

    /// Serializes as Chrome trace JSON (`{"traceEvents": [...]}`).
    ///
    /// Timestamps are simulated cycles written to the `ts` field, so
    /// Perfetto's time axis reads directly in cycles.
    pub fn to_chrome_json(&self) -> String {
        let mut out = String::from("{\"traceEvents\": [\n");
        let mut first = true;
        let emit = |s: String, out: &mut String, first: &mut bool| {
            if !*first {
                out.push_str(",\n");
            }
            *first = false;
            out.push_str("  ");
            out.push_str(&s);
        };
        emit(
            "{\"ph\": \"M\", \"pid\": 1, \"name\": \"process_name\", \
             \"args\": {\"name\": \"rcc-sim\"}}"
                .to_string(),
            &mut out,
            &mut first,
        );
        for (tid, name) in &self.names {
            emit(
                format!(
                    "{{\"ph\": \"M\", \"pid\": 1, \"tid\": {tid}, \
                     \"name\": \"thread_name\", \"args\": {{\"name\": \"{}\"}}}}",
                    escape(name)
                ),
                &mut out,
                &mut first,
            );
        }
        for ev in &self.events {
            let s = match ev {
                Ev::Begin { ts, tid, name } => format!(
                    "{{\"ph\": \"B\", \"pid\": 1, \"tid\": {tid}, \"ts\": {ts}, \
                     \"name\": \"{name}\"}}"
                ),
                Ev::End { ts, tid } => {
                    format!("{{\"ph\": \"E\", \"pid\": 1, \"tid\": {tid}, \"ts\": {ts}}}")
                }
                Ev::Instant {
                    ts,
                    tid,
                    name,
                    args,
                } => {
                    let mut a = String::new();
                    for (i, (k, v)) in args.iter().enumerate() {
                        if i > 0 {
                            a.push_str(", ");
                        }
                        let _ = match v {
                            ArgValue::U(u) => write!(a, "\"{k}\": {u}"),
                            ArgValue::F(f) => write!(a, "\"{k}\": {}", fmt_f64(*f)),
                            ArgValue::S(s) => write!(a, "\"{k}\": \"{}\"", escape(s)),
                        };
                    }
                    format!(
                        "{{\"ph\": \"i\", \"pid\": 1, \"tid\": {tid}, \"ts\": {ts}, \
                         \"s\": \"t\", \"name\": \"{name}\", \"args\": {{{a}}}}}"
                    )
                }
                Ev::Counter {
                    ts,
                    tid,
                    name,
                    value,
                } => format!(
                    "{{\"ph\": \"C\", \"pid\": 1, \"tid\": {tid}, \"ts\": {ts}, \
                     \"name\": \"{name}\", \"args\": {{\"value\": {value}}}}}"
                ),
            };
            emit(s, &mut out, &mut first);
        }
        if self.dropped > 0 {
            emit(
                format!(
                    "{{\"ph\": \"i\", \"pid\": 1, \"tid\": {}, \"ts\": 0, \"s\": \"t\", \
                     \"name\": \"trace-events-dropped\", \
                     \"args\": {{\"count\": {}}}}}",
                    track::SYSTEM,
                    self.dropped
                ),
                &mut out,
                &mut first,
            );
        }
        out.push_str("\n]}\n");
        out
    }
}

fn fmt_f64(v: f64) -> String {
    if v.is_finite() {
        let s = format!("{v}");
        // `{}` on a whole f64 prints no decimal point; keep it JSON-number
        // compatible either way (it already is), but force a fraction so
        // consumers treat the field as float-typed consistently.
        if s.contains('.') || s.contains('e') {
            s
        } else {
            format!("{s}.0")
        }
    } else {
        "0.0".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;

    #[test]
    fn events_serialize_to_parseable_chrome_json() {
        let mut t = TraceBuffer::new(100);
        t.thread_name(track::SYSTEM, "system".to_string());
        t.begin(10, track::SYSTEM, "rollover");
        t.instant(
            12,
            track::L2_BASE,
            "lease",
            vec![
                ("exp", ArgValue::U(77)),
                ("who", ArgValue::S("l2-0".into())),
            ],
        );
        t.counter(16, track::L2_BASE, "logical-time", 42);
        t.end(20, track::SYSTEM);
        let v = json::parse(&t.to_chrome_json()).expect("trace JSON must parse");
        let evs = v
            .get("traceEvents")
            .and_then(json::JsonValue::as_array)
            .expect("traceEvents array");
        // 2 metadata + 4 events.
        assert_eq!(evs.len(), 6);
        let phases: Vec<_> = evs
            .iter()
            .map(|e| {
                e.get("ph")
                    .and_then(json::JsonValue::as_str)
                    .unwrap()
                    .to_string()
            })
            .collect();
        assert_eq!(phases, ["M", "M", "B", "i", "C", "E"]);
        assert_eq!(
            evs[3]
                .get("args")
                .and_then(|a| a.get("exp"))
                .and_then(json::JsonValue::as_u64),
            Some(77)
        );
    }

    #[test]
    fn cap_counts_drops_and_reports_them() {
        let mut t = TraceBuffer::new(2);
        for i in 0..5 {
            t.instant(i, track::SYSTEM, "x", vec![]);
        }
        assert_eq!(t.len(), 2);
        assert_eq!(t.dropped(), 3);
        let dump = t.to_chrome_json();
        assert!(dump.contains("trace-events-dropped"));
        let v = json::parse(&dump).unwrap();
        let evs = v
            .get("traceEvents")
            .and_then(json::JsonValue::as_array)
            .unwrap();
        let last = evs.last().unwrap();
        assert_eq!(
            last.get("args")
                .and_then(|a| a.get("count"))
                .and_then(json::JsonValue::as_u64),
            Some(3)
        );
    }

    #[test]
    fn strings_are_escaped() {
        let mut t = TraceBuffer::new(10);
        t.instant(
            0,
            track::SYSTEM,
            "note",
            vec![("msg", ArgValue::S("a\"b\\c\nd".into()))],
        );
        let v = json::parse(&t.to_chrome_json()).expect("escaped JSON must parse");
        let evs = v
            .get("traceEvents")
            .and_then(json::JsonValue::as_array)
            .unwrap();
        assert_eq!(
            evs.last()
                .unwrap()
                .get("args")
                .and_then(|a| a.get("msg"))
                .and_then(json::JsonValue::as_str),
            Some("a\"b\\c\nd")
        );
    }

    #[test]
    fn instant_helpers_find_tracks() {
        let mut t = TraceBuffer::new(10);
        t.instant(1, track::L2_BASE, "lease", vec![]);
        t.instant(2, track::L2_BASE + 1, "lease", vec![]);
        t.instant(3, track::L2_BASE, "lease", vec![]);
        assert_eq!(t.count_instants("lease"), 3);
        assert_eq!(
            t.instant_tids("lease"),
            vec![track::L2_BASE, track::L2_BASE + 1]
        );
        assert_eq!(t.count_instants("none"), 0);
    }
}
