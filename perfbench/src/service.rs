//! `service`: each request re-submits one small batch, one `submit` line
//! per `JobSpec` family, against a `ResultCache` warmed during set-up.
//!
//! Every line goes through the public functions `psyncd` chains, called in
//! process on one thread with no socket and no worker pool:
//! `protocol::parse_request` (which runs `JobSpec::from_value` and its
//! validation), `jobs::supervised_work` (canonical JSON, the FNV cache key,
//! the cache hit) and `protocol::event_result` (re-rendering the result).
//! No simulation runs in the timed path. The seed sets the order of the
//! lines; the set is the same every time.

use std::sync::Arc;

use bench::cache::ResultCache;
use bench::jobs::supervised_work;
use bench::service::protocol::{event_result, parse_request, Request};
use sim_core::rng::permutation;

use crate::{RequestView, Tracer, Workload};

/// The batch: one small spec per `JobSpec` family.
pub const LINES: [&str; 6] = [
    r#"{"v":1,"verb":"submit","spec":{"family":"table3","procs":16,"row_len":8},"tag":"perfbench"}"#,
    r#"{"v":1,"verb":"submit","spec":{"family":"perf_mesh","procs":16,"row_len":16},"tag":"perfbench"}"#,
    r#"{"v":1,"verb":"submit","spec":{"family":"ablate_faults","procs":16,"row_len":16,"gathers":4,"rates":[0.0,0.01]},"tag":"perfbench"}"#,
    r#"{"v":1,"verb":"submit","spec":{"family":"crosscheck_models","procs":8,"n":64,"ks":[1,8]},"tag":"perfbench"}"#,
    r#"{"v":1,"verb":"submit","spec":{"family":"full_matrix","fidelity":"analytic","reference":false},"tag":"perfbench"}"#,
    r#"{"v":1,"verb":"submit","spec":{"family":"collectives","width":4,"height":4,"words":4},"tag":"perfbench"}"#,
];

/// The `service` workload.
pub struct ServiceWorkload {
    cache: Arc<ResultCache>,
    order: Vec<usize>,
    /// The warm-up pass's result event per line (`cached = true`): every
    /// later event must match it byte for byte.
    pub expected: Vec<String>,
    /// Lines the cache answered in the last traced request.
    hits: usize,
}

/// Run `f`, inside a span named `name` when tracing.
fn step<R>(tr: &mut Option<&mut Tracer>, name: &'static str, f: impl FnOnce() -> R) -> R {
    match tr {
        Some(t) => t.span(name, |_| f()),
        None => f(),
    }
}

/// One line through parse, cache and render; `None` when a step refused it.
/// The job id is the line's index, so events compare across orders.
fn submit(
    cache: &Arc<ResultCache>,
    id: usize,
    tr: &mut Option<&mut Tracer>,
) -> Option<(String, bool)> {
    let Request::Submit {
        spec,
        timeout_s,
        tag,
    } = step(tr, "bench.parse", || parse_request(LINES[id])).ok()?
    else {
        return None;
    };
    let done = step(tr, "bench.cache", || {
        supervised_work(spec, timeout_s, Arc::clone(cache), None, None)(None)
    })
    .ok()?;
    let event = step(tr, "bench.render", || {
        event_result(
            id as u64,
            done.cached,
            done.fingerprint,
            1,
            &done.json,
            tag.as_deref(),
        )
    });
    Some((event, done.cached))
}

impl ServiceWorkload {
    fn pass(&mut self, mut tr: Option<&mut Tracer>) -> Vec<Option<String>> {
        let mut events = vec![None; LINES.len()];
        self.hits = 0;
        for &id in &self.order {
            if let Some((event, cached)) = submit(&self.cache, id, &mut tr) {
                events[id] = Some(event);
                self.hits += usize::from(cached);
            }
        }
        events
    }
}

impl Workload for ServiceWorkload {
    /// The result event per line, indexed by line; `None` where refused.
    type Output = Vec<Option<String>>;

    fn setup(seed: u64) -> Self {
        let mut w = ServiceWorkload {
            cache: Arc::new(ResultCache::new()),
            order: (0..LINES.len()).collect(),
            expected: Vec::new(),
            hits: 0,
        };
        // Warm the cache in line order: every family simulates once.
        w.pass(None);
        w.order = permutation(LINES.len(), seed);
        w.expected = w
            .pass(None)
            .into_iter()
            .map(Option::unwrap_or_default)
            .collect();
        w
    }

    fn run(&mut self) -> Self::Output {
        self.pass(None)
    }

    fn run_traced(&mut self, tr: &mut Tracer) -> Self::Output {
        self.pass(Some(tr))
    }

    fn account(&mut self, out: &Self::Output, tr: &mut Tracer) {
        let bytes: usize = out.iter().flatten().map(String::len).sum();
        tr.count("bench.result_bytes", bytes as f64);
        tr.count("bench.cache.hits", self.hits as f64);
        tr.count("bench.lines", LINES.len() as f64);
    }

    fn layer_metrics(r: &RequestView) -> Vec<(&'static str, f64)> {
        vec![
            ("bench.parse_us", r.ms("bench.parse") * 1e3),
            ("bench.cache_us", r.ms("bench.cache") * 1e3),
            ("bench.render_us", r.ms("bench.render") * 1e3),
            (
                "bench.cache.hit_ratio",
                r.counter("bench.cache.hits") / r.counter("bench.lines"),
            ),
            ("bench.result_bytes", r.counter("bench.result_bytes")),
        ]
    }

    fn check(&self, out: &Self::Output) -> bool {
        out.len() == self.expected.len()
            && out.iter().zip(&self.expected).all(|(got, want)| {
                want.contains("\"cached\":true") && got.as_deref() == Some(want.as_str())
            })
    }
}
