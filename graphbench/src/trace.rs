//! The benchmark's own span recorder (traced runs only).
//!
//! Spans are recorded from the benchmark's files around each call into a
//! layer: name, start, end, parent, and the request's trace id (the id
//! the client stamps with `WireSession::set_trace_id`).  They stay in
//! memory and are written out once, when the run ends.

use crate::stats::median;
use std::borrow::Cow;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: Cow<'static, str>,
    pub trace: u64,
    pub id: u64,
    pub parent: u64,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// One thread's recorder.  Span ids are `base + index + 1`, so recorders
/// with distinct bases merge without clashes; id 0 means "no span".  A
/// recorder that is off records nothing, so untraced runs pay only a
/// branch per call.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    base: u64,
    on: bool,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new(origin: Instant, base: u64, on: bool) -> Tracer {
        Tracer { origin, base, on, spans: Vec::new() }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span and returns its id.
    pub fn begin(&mut self, name: impl Into<Cow<'static, str>>, trace: u64, parent: u64) -> u64 {
        if !self.on {
            return 0;
        }
        let start_ns = self.now_ns();
        let id = self.base + self.spans.len() as u64 + 1;
        self.spans.push(Span { name: name.into(), trace, id, parent, start_ns, end_ns: start_ns });
        id
    }

    pub fn end(&mut self, id: u64) {
        if id == 0 {
            return;
        }
        let now = self.now_ns();
        self.spans[(id - self.base - 1) as usize].end_ns = now;
    }

    /// Runs `f` inside a span named `name`.
    pub fn time<T>(
        &mut self,
        name: impl Into<Cow<'static, str>>,
        trace: u64,
        parent: u64,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.begin(name, trace, parent);
        let out = f();
        self.end(id);
        out
    }

    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }
}

/// Per span name, the median self µs.  A span's self time is its
/// duration minus the durations of its direct children.  The median, so
/// that a replayed call the scheduler preempts once does not set a
/// layer's figure.
pub fn self_times(spans: &[Span]) -> BTreeMap<String, f64> {
    let mut child_ns: BTreeMap<u64, u64> = BTreeMap::new();
    for s in spans.iter().filter(|s| s.parent != 0) {
        *child_ns.entry(s.parent).or_default() += s.end_ns - s.start_ns;
    }
    let mut own: BTreeMap<String, Vec<f64>> = BTreeMap::new();
    for s in spans {
        let ns = (s.end_ns - s.start_ns).saturating_sub(child_ns.get(&s.id).copied().unwrap_or(0));
        own.entry(s.name.to_string()).or_default().push(ns as f64 / 1000.0);
    }
    own.into_iter().map(|(name, us)| (name, median(&us))).collect()
}

/// Median self µs of the spans named `name` (0 when there are none).
pub fn self_us(times: &BTreeMap<String, f64>, name: &str) -> f64 {
    times.get(name).copied().unwrap_or(0.0)
}

/// Spans as a JSON array, one object per span.
pub fn to_json(spans: &[Span]) -> String {
    let mut out = String::with_capacity(spans.len() * 96 + 2);
    out.push('[');
    for (i, s) in spans.iter().enumerate() {
        if i > 0 {
            out.push_str(",\n");
        }
        let _ = write!(
            out,
            "{{\"name\":\"{}\",\"trace\":{},\"id\":{},\"parent\":{},\"start_ns\":{},\"end_ns\":{}}}",
            graphiti_obs::json_escape(&s.name),
            s.trace,
            s.id,
            s.parent,
            s.start_ns,
            s.end_ns
        );
    }
    out.push(']');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_direct_children() {
        let spans = vec![
            Span { name: "a".into(), trace: 1, id: 1, parent: 0, start_ns: 0, end_ns: 10_000 },
            Span { name: "b".into(), trace: 1, id: 2, parent: 1, start_ns: 1_000, end_ns: 4_000 },
            Span { name: "c".into(), trace: 1, id: 3, parent: 2, start_ns: 2_000, end_ns: 3_000 },
        ];
        let t = self_times(&spans);
        assert_eq!(self_us(&t, "a"), 7.0);
        assert_eq!(t.len(), 3);
        assert_eq!(self_us(&t, "b"), 2.0);
        assert_eq!(self_us(&t, "c"), 1.0);
        assert_eq!(self_us(&t, "missing"), 0.0);
    }
}
