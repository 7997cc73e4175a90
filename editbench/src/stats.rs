//! Order statistics and the metric table the run prints.

use std::fmt::Write as _;
use std::time::Duration;

/// The `q`-quantile of a sorted sample, interpolating linearly between
/// the two nearest ranks.
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of an empty sample");
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

pub fn sorted(mut v: Vec<f64>) -> Vec<f64> {
    v.sort_by(f64::total_cmp);
    v
}

pub fn median(v: &[f64]) -> f64 {
    quantile(&sorted(v.to_vec()), 0.5)
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Latencies of one op class. A failed or refused op has no latency; it
/// ranks above every success, so it misses any limit a percentile sets.
#[derive(Default, Clone)]
pub struct Latencies {
    ok: Vec<f64>,
    failed: usize,
}

impl Latencies {
    pub fn push(&mut self, ms: f64) {
        self.ok.push(ms);
    }

    pub fn fail(&mut self) {
        self.failed += 1;
    }

    pub fn merge(&mut self, other: &Latencies) {
        self.ok.extend_from_slice(&other.ok);
        self.failed += other.failed;
    }

    /// Samples, failures included.
    pub fn n(&self) -> usize {
        self.ok.len() + self.failed
    }

    pub fn failed(&self) -> usize {
        self.failed
    }

    /// The `q`-quantile in ms; when it falls on a failed op it reads
    /// `missed`, the caller's stand-in for "beyond every limit".
    pub fn pct(&self, q: f64, missed: f64) -> f64 {
        if self.n() == 0 {
            return f64::NAN;
        }
        let mut all = sorted(self.ok.clone());
        all.extend(std::iter::repeat_n(f64::INFINITY, self.failed));
        let v = quantile(&all, q);
        if v.is_finite() {
            v
        } else {
            missed
        }
    }
}

/// One reported metric.
pub struct Metric {
    pub name: String,
    pub unit: &'static str,
    pub value: f64,
    /// Sample count behind the value, when it is an order statistic.
    pub n: Option<usize>,
    /// Part of the result line (and so of the benchmark's contract), or
    /// printed for reading only.
    pub gated: bool,
}

/// The run's outcome: metrics plus the tallies the result line carries.
#[derive(Default)]
pub struct Report {
    pub metrics: Vec<Metric>,
    /// Informational lines printed above the result (host drift, counts).
    pub notes: Vec<String>,
    pub attempted: u64,
    pub failed: u64,
    /// Output-check failures; empty means correct.
    pub mismatches: Vec<String>,
}

impl Report {
    pub fn metric(
        &mut self,
        name: impl Into<String>,
        unit: &'static str,
        value: f64,
        n: Option<usize>,
    ) {
        self.metrics.push(Metric {
            name: name.into(),
            unit,
            value,
            n,
            gated: true,
        });
    }

    /// A metric printed in the table but left out of the result line.
    pub fn ungated(
        &mut self,
        name: impl Into<String>,
        unit: &'static str,
        value: f64,
        n: Option<usize>,
    ) {
        self.metric(name, unit, value, n);
        if let Some(m) = self.metrics.last_mut() {
            m.gated = false;
        }
    }

    pub fn note(&mut self, line: impl Into<String>) {
        self.notes.push(line.into());
    }

    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.mismatches.push(what());
        }
    }

    /// Every output check passed and every metric is a number.
    pub fn correct(&self) -> bool {
        self.mismatches.is_empty() && self.metrics.iter().all(|m| m.value.is_finite())
    }

    /// Prints the human-readable table, then the result as the last line.
    pub fn print(&self) {
        for line in &self.notes {
            println!("# {line}");
        }
        for m in &self.metrics {
            let n = m.n.map(|n| format!("  n={n}")).unwrap_or_default();
            let gate = if m.gated { "" } else { "  (not gated)" };
            println!("{:<44} {:>16.6} {}{n}{gate}", m.name, m.value, m.unit);
        }
        for bad in &self.mismatches {
            println!("! output check failed: {bad}");
        }
        let mut json = String::new();
        let _ = write!(
            json,
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct(),
            self.attempted.max(1),
            self.failed
        );
        for (i, m) in self.metrics.iter().filter(|m| m.gated).enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                json,
                "{sep}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                finite(m.value),
                m.unit
            );
        }
        json.push_str("}}");
        println!("{json}");
    }
}

/// JSON has no NaN or infinity. A metric with no samples reads NaN; it is
/// printed as 0 and makes the run incorrect.
fn finite(v: f64) -> f64 {
    if v.is_finite() {
        v
    } else {
        0.0
    }
}
