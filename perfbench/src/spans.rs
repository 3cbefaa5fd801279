//! Spans recorded around every call the benchmark makes into a layer's
//! public function, kept in memory and written out once at the end.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Shape of the span file, checked with `rcc_obs::schema` before writing.
pub const SCHEMA: &str = include_str!("../spans.schema.json");

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub id: u64,
    pub parent: Option<u64>,
    /// Spans of one job share this id.
    pub job: Option<u64>,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// Collects spans when on; when off, [`Tracer::span`] only runs the
/// closure, so untraced runs pay one branch per call.
pub struct Tracer {
    on: bool,
    epoch: Instant,
    next: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new(on: bool) -> Self {
        Tracer {
            on,
            epoch: Instant::now(),
            next: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span named `name`; `f` gets the span's id to
    /// parent its children on.
    pub fn span<T>(
        &self,
        name: &'static str,
        parent: Option<u64>,
        job: Option<u64>,
        f: impl FnOnce(Option<u64>) -> T,
    ) -> T {
        if !self.on {
            return f(None);
        }
        let id = self.next.fetch_add(1, Ordering::Relaxed);
        let start_ns = self.now_ns();
        let out = f(Some(id));
        let end_ns = self.now_ns();
        self.spans.lock().expect("span list poisoned").push(Span {
            id,
            parent,
            job,
            name,
            start_ns,
            end_ns,
        });
        out
    }

    pub fn take(&self) -> Vec<Span> {
        let mut spans = std::mem::take(&mut *self.spans.lock().expect("span list poisoned"));
        spans.sort_by_key(|s| (s.start_ns, s.id));
        spans
    }
}

/// Length of the union of `intervals` clipped to `[lo, hi)`: overlapping
/// intervals are counted once.
pub fn covered(intervals: impl IntoIterator<Item = (u64, u64)>, lo: u64, hi: u64) -> u64 {
    let mut v: Vec<(u64, u64)> = intervals
        .into_iter()
        .map(|(s, e)| (s.max(lo), e.min(hi)))
        .filter(|(s, e)| s < e)
        .collect();
    v.sort_unstable();
    let mut total = 0;
    let mut cur: Option<(u64, u64)> = None;
    for (s, e) in v {
        match &mut cur {
            Some((_, ce)) if s <= *ce => *ce = (*ce).max(e),
            _ => {
                if let Some((cs, ce)) = cur {
                    total += ce - cs;
                }
                cur = Some((s, e));
            }
        }
    }
    if let Some((cs, ce)) = cur {
        total += ce - cs;
    }
    total
}

/// Per span name: (count, total ns, self ns). A span's self time is its
/// duration minus the part of its interval that its children cover.
pub fn self_time(spans: &[Span]) -> BTreeMap<&'static str, (u64, u64, u64)> {
    let mut children: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push((s.start_ns, s.end_ns));
        }
    }
    let mut out: BTreeMap<&'static str, (u64, u64, u64)> = BTreeMap::new();
    for s in spans {
        let dur = s.end_ns - s.start_ns;
        let kids = children.get(&s.id).map(Vec::as_slice).unwrap_or(&[]);
        let self_ns = dur - covered(kids.iter().copied(), s.start_ns, s.end_ns);
        let e = out.entry(s.name).or_default();
        e.0 += 1;
        e.1 += dur;
        e.2 += self_ns;
    }
    out
}

/// Share of `[lo, hi)` covered by top-level spans.
pub fn coverage(spans: &[Span], lo: u64, hi: u64) -> f64 {
    let top = spans
        .iter()
        .filter(|s| s.parent.is_none())
        .map(|s| (s.start_ns, s.end_ns));
    covered(top, lo, hi) as f64 / (hi - lo).max(1) as f64
}

fn opt(v: Option<u64>) -> String {
    v.map_or_else(|| "null".into(), |v| v.to_string())
}

/// The span file: every span, the traced timed region, its top-level
/// coverage, and the self-time summary.
pub fn to_json(workload: &str, seed: u64, spans: &[Span], region: (u64, u64)) -> String {
    let mut doc = format!(
        "{{\"version\": 1, \"workload\": \"{workload}\", \"seed\": {seed}, \
         \"region\": {{\"start_ns\": {}, \"end_ns\": {}, \"coverage\": {:.6}}}, \"spans\": [",
        region.0,
        region.1,
        coverage(spans, region.0, region.1)
    );
    for (i, s) in spans.iter().enumerate() {
        let _ = write!(
            doc,
            "{}{{\"id\": {}, \"parent\": {}, \"job\": {}, \"name\": \"{}\", \
             \"start_ns\": {}, \"end_ns\": {}}}",
            if i > 0 { ", " } else { "" },
            s.id,
            opt(s.parent),
            opt(s.job),
            s.name,
            s.start_ns,
            s.end_ns
        );
    }
    doc.push_str("], \"self_time\": [");
    for (i, (name, (count, total, own))) in self_time(spans).iter().enumerate() {
        let _ = write!(
            doc,
            "{}{{\"name\": \"{name}\", \"count\": {count}, \"total_ns\": {total}, \
             \"self_ns\": {own}}}",
            if i > 0 { ", " } else { "" }
        );
    }
    doc.push_str("]}\n");
    doc
}

/// Validates the span file against [`SCHEMA`] and writes it to `path`.
pub fn write(path: &std::path::Path, doc: &str) -> Result<(), String> {
    let errors = rcc_obs::schema::validate_text(SCHEMA, doc)?;
    if !errors.is_empty() {
        return Err(format!(
            "span file violates its schema: {}",
            errors.join("; ")
        ));
    }
    std::fs::write(path, doc).map_err(|e| format!("write {}: {e}", path.display()))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: Option<u64>, name: &'static str, start: u64, end: u64) -> Span {
        Span {
            id,
            parent,
            job: Some(0),
            name,
            start_ns: start,
            end_ns: end,
        }
    }

    #[test]
    fn self_time_subtracts_overlapping_children_once() {
        // root [0, 100) with children [10, 40) and [30, 60) (overlapping:
        // they cover [10, 60) = 50) and [90, 120) (clipped to [90, 100)).
        // The grandchild [15, 20) belongs to its own parent only.
        let spans = vec![
            span(1, None, "root", 0, 100),
            span(2, Some(1), "a", 10, 40),
            span(3, Some(1), "b", 30, 60),
            span(4, Some(1), "c", 90, 120),
            span(5, Some(2), "d", 15, 20),
        ];
        let st = self_time(&spans);
        assert_eq!(st["root"], (1, 100, 100 - 60));
        assert_eq!(st["a"], (1, 30, 25));
        assert_eq!(st["b"], (1, 30, 30));
        assert_eq!(st["d"], (1, 5, 5));
    }

    #[test]
    fn coverage_counts_overlapping_top_level_spans_once() {
        let spans = vec![
            span(1, None, "job", 0, 50),
            span(2, None, "job", 25, 75),
            span(3, Some(1), "inner", 0, 100),
        ];
        assert!((coverage(&spans, 0, 100) - 0.75).abs() < 1e-12);
        assert_eq!(covered([(5, 5), (7, 3)], 0, 10), 0);
    }

    #[test]
    fn span_file_matches_its_schema() {
        let tracer = Tracer::new(true);
        tracer.span("outer", None, Some(3), |id| {
            tracer.span("inner", id, Some(3), |_| ());
        });
        let spans = tracer.take();
        assert_eq!(spans.len(), 2);
        let doc = to_json("unit", 1, &spans, (0, tracer.now_ns()));
        let errors = rcc_obs::schema::validate_text(SCHEMA, &doc).expect("parses");
        assert!(errors.is_empty(), "{errors:?}");
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let tracer = Tracer::new(false);
        assert_eq!(tracer.span("x", None, None, |id| id), None);
        assert!(tracer.take().is_empty());
    }
}
