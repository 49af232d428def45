//! Spans of the traced run, kept in memory and written out at exit as
//! Chrome trace JSON through `sim_core::telemetry::Registry`, under a
//! `host` process.
//!
//! Each span records a call from the benchmark into one layer's public
//! function: its name, start, end, parent span and request id. A layer's
//! self time is its span's duration minus the time its child spans cover.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use sim_core::telemetry::Registry;

use crate::median;

/// One timed call into a layer.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer call name, e.g. `emesh.run`.
    pub name: &'static str,
    /// The traced request the span belongs to (1-based).
    pub req: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Start, nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// End, nanoseconds since the tracer was created.
    pub end_ns: u64,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Records spans and per-request simulated counters in memory.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    /// First span index of each request, in request order.
    req_start: Vec<usize>,
    /// Simulated counters of each request, in request order.
    counters: Vec<Vec<(&'static str, f64)>>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::new()
    }
}

impl Tracer {
    /// Name of the root span around every traced request.
    pub const REQUEST: &'static str = "request";

    /// An empty tracer; its clock starts now.
    pub fn new() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            req_start: Vec::new(),
            counters: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Run `f` inside a span named `name`, nested in the innermost open
    /// span.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> R) -> R {
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            req: self.req_start.len() as u64,
            parent: self.open.last().copied(),
            start_ns,
            end_ns: start_ns,
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.spans[id].end_ns = self.now_ns();
        out
    }

    /// Run one traced request under a root [`Tracer::REQUEST`] span;
    /// returns its output and latency. Spans and counters recorded after it
    /// returns, until the next request, belong to this request too.
    pub fn request<R>(&mut self, f: impl FnOnce(&mut Tracer) -> R) -> (R, Duration) {
        let root = self.spans.len();
        self.req_start.push(root);
        self.counters.push(Vec::new());
        let out = self.span(Self::REQUEST, f);
        (out, Duration::from_nanos(self.spans[root].ns()))
    }

    /// Record simulated counter `name` for the current request.
    pub fn count(&mut self, name: &'static str, value: f64) {
        if let Some(c) = self.counters.last_mut() {
            c.push((name, value));
        }
    }

    /// Every traced request, in order.
    pub fn requests(&self) -> Vec<RequestView<'_>> {
        (0..self.req_start.len())
            .map(|i| {
                let end = self
                    .req_start
                    .get(i + 1)
                    .copied()
                    .unwrap_or(self.spans.len());
                RequestView {
                    spans: &self.spans,
                    range: self.req_start[i]..end,
                    counters: &self.counters[i],
                }
            })
            .collect()
    }

    /// A per-layer summary over all traced requests: for each span name,
    /// calls, total and self milliseconds per request (medians), then the
    /// simulated counters per request (medians).
    pub fn summary_lines(&self) -> Vec<String> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.ns();
            }
        }
        // name -> per-request (calls, total ms, self ms); first-seen order.
        let mut order: Vec<&'static str> = Vec::new();
        let mut per_name: BTreeMap<&'static str, Vec<(f64, f64, f64)>> = BTreeMap::new();
        for view in self.requests() {
            let mut this: BTreeMap<&'static str, (f64, f64, f64)> = BTreeMap::new();
            for i in view.range.clone() {
                let s = &self.spans[i];
                let e = this.entry(s.name).or_default();
                e.0 += 1.0;
                e.1 += s.ns() as f64 / 1e6;
                e.2 += s.ns().saturating_sub(child_ns[i]) as f64 / 1e6;
            }
            for (name, v) in this {
                if !per_name.contains_key(name) {
                    order.push(name);
                }
                per_name.entry(name).or_default().push(v);
            }
        }
        let mut lines = vec![
            format!(
                "{} traced requests; per request (medians):",
                self.req_start.len()
            ),
            format!(
                "  {:<20} {:>7} {:>12} {:>12}",
                "span", "calls", "total ms", "self ms"
            ),
        ];
        for name in order {
            let v = &per_name[name];
            let col = |f: fn(&(f64, f64, f64)) -> f64| median(&v.iter().map(f).collect::<Vec<_>>());
            lines.push(format!(
                "  {:<20} {:>7} {:>12.4} {:>12.4}",
                name,
                col(|x| x.0),
                col(|x| x.1),
                col(|x| x.2)
            ));
        }
        let mut counters: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
        for c in &self.counters {
            for &(name, v) in c {
                counters.entry(name).or_default().push(v);
            }
        }
        for (name, v) in counters {
            lines.push(format!("  counter {name} = {}", median(&v)));
        }
        lines
    }

    /// The spans as Chrome trace JSON under a `host` process, one track.
    /// Each span carries its id, parent and request id; each request's
    /// root span also carries that request's simulated counters.
    pub fn chrome_trace_json(&self) -> String {
        let reg = Registry::new();
        for (req, view) in self.requests().iter().enumerate() {
            for i in view.range.clone() {
                let s = &self.spans[i];
                let mut args = vec![
                    ("id", i.to_string()),
                    (
                        "parent",
                        s.parent.map_or_else(|| "-".to_string(), |p| p.to_string()),
                    ),
                    ("req", s.req.to_string()),
                ];
                if s.name == Self::REQUEST {
                    args.extend(self.counters[req].iter().map(|&(n, v)| (n, v.to_string())));
                }
                reg.span(
                    "host",
                    "benchmark",
                    s.name,
                    s.start_ns as f64 / 1e3,
                    s.ns() as f64 / 1e3,
                    &args,
                );
            }
        }
        reg.chrome_trace_json()
    }
}

/// One traced request: its spans and simulated counters.
#[derive(Debug)]
pub struct RequestView<'a> {
    spans: &'a [Span],
    range: std::ops::Range<usize>,
    counters: &'a [(&'static str, f64)],
}

impl RequestView<'_> {
    /// Total milliseconds of this request's spans named `name`.
    pub fn ms(&self, name: &str) -> f64 {
        self.spans[self.range.clone()]
            .iter()
            .filter(|s| s.name == name)
            .map(Span::ns)
            .sum::<u64>() as f64
            / 1e6
    }

    /// Sum of this request's counter `name` (0 if never recorded).
    pub fn counter(&self, name: &str) -> f64 {
        self.counters
            .iter()
            .filter(|(n, _)| *n == name)
            .map(|p| p.1)
            .sum()
    }

    /// Share of the request's root span covered by its direct children.
    pub fn coverage(&self) -> f64 {
        let root = self.range.start;
        let total = self.spans[root].ns();
        let covered: u64 = self.spans[self.range.clone()]
            .iter()
            .filter(|s| s.parent == Some(root))
            .map(Span::ns)
            .sum();
        covered as f64 / total.max(1) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_belong_to_their_request() {
        let mut tr = Tracer::new();
        let ((), _) = tr.request(|tr| {
            tr.span("outer", |tr| tr.span("inner", |_| ()));
        });
        tr.count("sim.cycles", 7.0);
        tr.span("replay", |_| ());
        let views = tr.requests();
        assert_eq!(views.len(), 1);
        let v = &views[0];
        assert_eq!(v.counter("sim.cycles"), 7.0);
        assert!(v.ms("outer") >= v.ms("inner"));
        assert_eq!(tr.spans[2].parent, Some(1));
        assert_eq!(tr.spans[3].parent, None);
        assert_eq!(tr.spans[3].req, 1);
        let trace = tr.chrome_trace_json();
        assert!(trace.contains("\"host\"") && trace.contains("\"sim.cycles\": \"7\""));
    }
}
