//! Spans recorded around the benchmark's own calls into the program, kept
//! in memory and written out when the run ends.

use em_metrics::{HistogramSnapshot, Instrument};
use std::collections::HashMap;
use std::io::Write as _;
use std::path::Path;
use std::time::{Duration, Instant};

/// One timed call. Spans of one op share `op` across layers; a child
/// (the incremental delta inside a session call) names its parent.
#[derive(Clone)]
pub struct Span {
    pub id: u64,
    pub parent: Option<u64>,
    pub op: u64,
    pub layer: &'static str,
    /// `load`, `try:<kind>`, `read:<verb>` or `undo`.
    pub class: String,
    pub start_ns: u64,
    pub dur_ns: u64,
    /// The call also wrote an autosave snapshot.
    pub snapshot: bool,
}

pub struct Tracer {
    origin: Instant,
    next: u64,
    pub spans: Vec<Span>,
}

impl Tracer {
    pub fn new(origin: Instant, id_base: u64) -> Tracer {
        Tracer {
            origin,
            next: id_base,
            spans: Vec::new(),
        }
    }

    pub fn record(
        &mut self,
        op: u64,
        layer: &'static str,
        class: &str,
        start: Instant,
        dur: Duration,
    ) -> u64 {
        self.next += 1;
        self.spans.push(Span {
            id: self.next,
            parent: None,
            op,
            layer,
            class: class.to_string(),
            start_ns: nanos(start.duration_since(self.origin)),
            dur_ns: nanos(dur),
            snapshot: false,
        });
        self.next
    }

    /// A child whose duration the program reported itself; its position
    /// inside the parent is unknown, so it is placed at the parent's start.
    pub fn child(&mut self, parent: u64, layer: &'static str, dur: Duration) {
        let p = self.spans.last().expect("child follows its parent").clone();
        debug_assert_eq!(p.id, parent);
        self.next += 1;
        self.spans.push(Span {
            id: self.next,
            parent: Some(parent),
            layer,
            dur_ns: nanos(dur),
            ..p
        });
    }

    pub fn mark_snapshot(&mut self) {
        if let Some(s) = self.spans.last_mut() {
            s.snapshot = true;
        }
    }
}

fn nanos(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

/// Writes spans as JSON lines.
pub fn write(path: &Path, spans: &[Span]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        writeln!(
            out,
            "{{\"id\":{},\"parent\":{},\"op\":{},\"layer\":\"{}\",\"class\":\"{}\",\"start_ns\":{},\"dur_ns\":{},\"snapshot\":{}}}",
            s.id,
            s.parent.map_or("null".to_string(), |p| p.to_string()),
            s.op,
            s.layer,
            s.class,
            s.start_ns,
            s.dur_ns,
            s.snapshot
        )?;
    }
    out.flush()
}

/// Durations in µs of `layer`'s spans that pass `keep`.
pub fn durations(spans: &[Span], layer: &str, keep: impl Fn(&Span) -> bool) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| s.layer == layer && keep(s))
        .map(|s| s.dur_ns as f64 / 1e3)
        .collect()
}

/// Per-op differences in µs, `upper − lower`, over ops both layers ran
/// and `keep` accepts (judged on the upper span).
pub fn paired(spans: &[Span], upper: &str, lower: &str, keep: impl Fn(&Span) -> bool) -> Vec<f64> {
    let below: HashMap<u64, &Span> = spans
        .iter()
        .filter(|s| s.layer == lower && s.parent.is_none())
        .map(|s| (s.op, s))
        .collect();
    spans
        .iter()
        .filter(|s| s.layer == upper && s.parent.is_none() && keep(s))
        .filter_map(|s| below.get(&s.op).map(|l| (s, l)))
        .map(|(u, l)| (u.dur_ns as f64 - l.dur_ns as f64) / 1e3)
        .collect()
}

/// A registered histogram's current buckets.
pub fn histogram(family: &str) -> HistogramSnapshot {
    match em_metrics::registry().find(family, &[]) {
        Some(Instrument::Histogram(h)) => h.snapshot(),
        _ => HistogramSnapshot::empty(),
    }
}

/// A registered counter's current value (0 before first use).
pub fn counter(family: &str) -> u64 {
    match em_metrics::registry().find(family, &[]) {
        Some(Instrument::Counter(c)) => c.get(),
        _ => 0,
    }
}

/// Buckets recorded between two snapshots of one histogram.
pub fn since(after: &HistogramSnapshot, before: &HistogramSnapshot) -> HistogramSnapshot {
    HistogramSnapshot {
        buckets: after
            .buckets
            .iter()
            .zip(&before.buckets)
            .map(|(a, b)| a.saturating_sub(*b))
            .collect(),
        count: after.count.saturating_sub(before.count),
        sum: after.sum.saturating_sub(before.sum),
    }
}
