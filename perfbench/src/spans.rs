//! In-memory span recorder for the traced run.
//!
//! A span brackets one call into a layer's public functions. Its name
//! is `<layer>.<call>`; it records start, end, the enclosing span and
//! a request id. Spans stay in memory and are written out once, at the
//! end. A layer's self time is the time its spans cover minus what
//! their child spans cover. With recording off, [`Spans::span`] only
//! runs the closure.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// One recorded call.
#[derive(Clone, Debug)]
pub struct Span {
    /// `<layer>.<call>`.
    pub name: &'static str,
    /// Offset from the recorder's origin.
    pub start: Duration,
    /// Offset from the recorder's origin.
    pub end: Duration,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Request (or job) the call served.
    pub req: u64,
}

impl Span {
    /// The layer part of the name.
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }

    fn secs(&self) -> f64 {
        self.end.saturating_sub(self.start).as_secs_f64()
    }
}

/// The recorder.
pub struct Spans {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Spans {
    /// A recorder; `on == false` records nothing.
    pub fn new(on: bool) -> Spans {
        Spans {
            on,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<T>(&mut self, name: &'static str, req: u64, f: impl FnOnce(&mut Spans) -> T) -> T {
        if !self.on {
            return f(self);
        }
        let idx = self.spans.len();
        self.spans.push(Span {
            name,
            start: self.origin.elapsed(),
            end: Duration::ZERO,
            parent: self.open.last().copied(),
            req,
        });
        self.open.push(idx);
        let out = f(self);
        self.open.pop();
        self.spans[idx].end = self.origin.elapsed();
        out
    }

    /// Every recorded span, in start order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Time each span covers minus its children, in seconds.
    fn self_secs(&self) -> Vec<f64> {
        let mut own: Vec<f64> = self.spans.iter().map(Span::secs).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                own[p] -= s.secs();
            }
        }
        own
    }

    /// Self time summed per layer, in seconds.
    pub fn layer_self(&self) -> BTreeMap<&'static str, f64> {
        let mut out = BTreeMap::new();
        for (s, own) in self.spans.iter().zip(self.self_secs()) {
            *out.entry(s.layer()).or_insert(0.0) += own;
        }
        out
    }

    /// Self time summed per span name, in seconds.
    pub fn name_self(&self) -> BTreeMap<&'static str, f64> {
        let mut out = BTreeMap::new();
        for (s, own) in self.spans.iter().zip(self.self_secs()) {
            *out.entry(s.name).or_insert(0.0) += own;
        }
        out
    }

    /// Seconds covered by top-level spans (equal to the sum of all
    /// self times).
    pub fn covered_secs(&self) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.parent.is_none())
            .map(Span::secs)
            .sum()
    }

    /// The spans as JSON lines.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"req\":{}}}",
                s.name,
                s.start.as_nanos(),
                s.end.as_nanos(),
                s.req
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn busy(ms: u64) {
        let t = Instant::now();
        while t.elapsed() < Duration::from_millis(ms) {
            std::hint::spin_loop();
        }
    }

    #[test]
    fn off_records_nothing_but_runs_the_call() {
        let mut sp = Spans::new(false);
        let v = sp.span("trace.record", 0, |_| 7);
        assert_eq!(v, 7);
        assert!(sp.spans().is_empty());
        assert_eq!(sp.covered_secs(), 0.0);
    }

    #[test]
    fn self_time_subtracts_children() {
        let mut sp = Spans::new(true);
        sp.span("lab.campaign", 0, |sp| {
            busy(5);
            sp.span("pipeline.replay", 1, |_| busy(20));
        });
        let spans = sp.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[1].req, 1);
        let layers = sp.layer_self();
        assert!(layers["pipeline"] >= 0.020);
        assert!(layers["lab"] >= 0.005 && layers["lab"] < layers["pipeline"]);
        let total: f64 = layers.values().sum();
        assert!((total - sp.covered_secs()).abs() < 1e-9);
        assert_eq!(sp.name_self().len(), 2);
    }

    #[test]
    fn jsonl_has_one_line_per_span() {
        let mut sp = Spans::new(true);
        sp.span("serve.submit", 3, |sp| sp.span("serve.wait", 3, |_| ()));
        let text = sp.to_jsonl();
        assert_eq!(text.lines().count(), 2);
        assert!(text.contains("\"parent\":0"));
        assert!(text.contains("\"req\":3"));
    }
}
