//! Host-time benchmark of the P-sync reproduction.
//!
//! Four closed-loop workloads: one caller on one thread sends the next
//! request only after the previous one returned, every fabric runs at
//! `threads = 1`, and nothing in the timed path fans out to other cores.
//! Requests within a workload are homogeneous and short, so one run holds
//! many samples, and every request's output is checked. A separate traced
//! run wraps each call into a layer's public function in a span
//! ([`Tracer`]) and derives the per-layer metrics from those spans. The
//! metric table and the reasons behind each design choice are in
//! `README.md`.

use std::time::{Duration, Instant};

pub mod calib;
pub mod collectives;
pub mod fft2d;
pub mod service;
pub mod trace;
pub mod transpose;

pub use trace::{RequestView, Tracer};

/// Workload names, in `BENCHMARK.json` order.
pub const WORKLOADS: [&str; 4] = ["transpose", "fft2d", "collectives", "service"];

/// Metrics of an untraced run, as `(name, unit)`. Host times are the [`low`]
/// sample, corrected for the host's speed by the run's calibration passes
/// ([`calib`]): on a host whose speed switches between a fast and a slow
/// state, the median and the mean move with the share of the run spent in
/// each state, while the low sample reads the fastest state the run
/// visited. The raw median, mean and tail are printed too, but not gated.
pub const END_TO_END: &[(&str, &str)] = &[
    ("latency_ms.low", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
];

/// Metrics of a traced run, as `(name, unit)`. Every traced run prints all
/// of them; a workload reports 0 for the layers it bypasses.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("emesh.build_ms", "ms"),
    ("emesh.run_ms", "ms"),
    ("emesh.cycles", "count"),
    ("emesh.flit_moves", "count"),
    ("emesh.ns_per_flit_move", "ns"),
    ("emesh.cycles_per_s", "cycles/s"),
    ("emesh.collective_ms", "ms"),
    ("emesh.rounds", "count"),
    ("emesh.us_per_round", "us"),
    ("psync.scatter_ms", "ms"),
    ("psync.gather_ms", "ms"),
    ("psync.compute_ms", "ms"),
    ("psync.self_ms", "ms"),
    ("psync.bus_slots", "count"),
    ("psync.collective_ms", "ms"),
    ("psync.collective_bus_slots", "count"),
    ("pscan.ms", "ms"),
    ("pscan.ns_per_slot", "ns"),
    ("memory.ms", "ms"),
    ("memory.dram_cycles", "count"),
    ("memory.row_hit_ratio", "ratio"),
    ("memory.ns_per_access", "ns"),
    ("fft.ms", "ms"),
    ("fft.multiplies", "count"),
    ("fft.ns_per_multiply", "ns"),
    ("bench.parse_us", "us"),
    ("bench.cache_us", "us"),
    ("bench.render_us", "us"),
    ("bench.cache.hit_ratio", "ratio"),
    ("bench.result_bytes", "bytes"),
    ("trace.overhead", "ratio"),
    ("trace.coverage_min", "ratio"),
];

/// Requests a run times at least, however short `--seconds` is: with 40
/// samples the tail sample sits at p75 or above with ten samples beyond it.
pub const MIN_SAMPLES: usize = 40;

/// Set-ups per run, spread evenly over it; `setup_s` is their [`low`]
/// sample, which with ten set-ups is the fastest.
pub const SETUPS: usize = 10;

/// Traced requests a run keeps spans for; later iterations run untraced
/// only, which bounds the trace's memory on the microsecond workloads.
pub const MAX_TRACED: usize = 2000;

/// A request kind the benchmark repeats in a closed loop.
pub trait Workload: Sized {
    /// What one request returns; [`Workload::check`] judges it.
    type Output;

    /// Generate the inputs from `seed`, compute the reference results,
    /// warm every cache, and run one discarded warm-up request.
    fn setup(seed: u64) -> Self;

    /// One untraced request.
    fn run(&mut self) -> Self::Output;

    /// One request with a span around each call into a layer.
    fn run_traced(&mut self, tr: &mut Tracer) -> Self::Output;

    /// After a traced request, outside its timed window: record its
    /// simulated counters, and any replay spans, into `tr`.
    fn account(&mut self, out: &Self::Output, tr: &mut Tracer);

    /// This workload's per-layer metrics for one traced request.
    fn layer_metrics(req: &RequestView) -> Vec<(&'static str, f64)>;

    /// Whether `out` is correct. A wrong output returns `false`; it never
    /// panics.
    fn check(&self, out: &Self::Output) -> bool;
}

/// How one run measures.
#[derive(Debug, Clone, Copy)]
pub struct RunConfig {
    /// Seconds of timed requests.
    pub seconds: f64,
    /// Requests timed at least, whatever `seconds` says.
    pub min_samples: usize,
    /// Set-ups per run: one before the first timed request, the rest spread
    /// evenly over the timed window.
    pub setups: usize,
    /// Interleave traced requests and report per-layer metrics.
    pub trace: bool,
}

impl RunConfig {
    /// The configuration the command line runs.
    pub fn new(seconds: f64, trace: bool) -> Self {
        RunConfig {
            seconds,
            min_samples: MIN_SAMPLES,
            setups: SETUPS,
            trace,
        }
    }
}

/// What one run measured.
#[derive(Debug)]
pub struct RunReport {
    /// Requests issued, traced ones included.
    pub attempted: u64,
    /// Requests whose output check failed.
    pub failed: u64,
    /// `(name, value, unit)` for every metric of the run's kind.
    pub metrics: Vec<(&'static str, f64, &'static str)>,
    /// Untraced request latencies in milliseconds, in issue order.
    pub latencies_ms: Vec<f64>,
    /// Set-up times in seconds, in order.
    pub setups_s: Vec<f64>,
    /// Human-readable lines that explain the metrics.
    pub notes: Vec<String>,
    /// The traced run's spans, for the Chrome trace.
    pub tracer: Option<Tracer>,
}

impl RunReport {
    /// The one-line JSON result: `correct`, `attempted`, `failed`, and
    /// every metric with its unit.
    pub fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                format!(
                    "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                    number(*value)
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.attempted > 0 && self.failed == 0,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }

    /// The value of metric `name`, if the run reported it.
    pub fn metric(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|(n, _, _)| *n == name)
            .map(|&(_, v, _)| v)
    }
}

/// A JSON number; a value that is not finite (a ratio over a zero count)
/// prints as 0.
fn number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

/// Run workload `name` with inputs from `seed`; `None` for an unknown name.
pub fn run_named(name: &str, seed: u64, cfg: &RunConfig) -> Option<RunReport> {
    Some(match name {
        "transpose" => run::<transpose::TransposeWorkload>(seed, cfg),
        "fft2d" => run::<fft2d::Fft2dWorkload>(seed, cfg),
        "collectives" => run::<collectives::CollectivesWorkload>(seed, cfg),
        "service" => run::<service::ServiceWorkload>(seed, cfg),
        _ => return None,
    })
}

/// Measure workload `W` with inputs from `seed`.
pub fn run<W: Workload>(seed: u64, cfg: &RunConfig) -> RunReport {
    measure(|| W::setup(seed), cfg)
}

/// Time requests in a closed loop for `cfg.seconds` (and at least
/// `cfg.min_samples` of them), check each output, and derive the metrics.
/// `setup` builds the workload; it runs `cfg.setups` times, the first before
/// the first request and the rest at even intervals of the timed window, and
/// each new workload replaces the previous one.
pub fn measure<W: Workload>(mut setup: impl FnMut() -> W, cfg: &RunConfig) -> RunReport {
    let setups_wanted = cfg.setups.max(1);
    let mut setups = Vec::with_capacity(setups_wanted);
    let mut timed_setup = |w: &mut Option<W>| {
        // Free the previous workload first, so each set-up pays for its own
        // allocations and two never coexist in the peak RSS.
        drop(w.take());
        let t = Instant::now();
        *w = Some(setup());
        setups.push(t.elapsed().as_secs_f64());
    };
    let mut slot = None;
    timed_setup(&mut slot);

    let mut cal = calib::Calibration::new();
    let mut cal_ms = vec![cal.pass()];
    let mut tracer = cfg.trace.then(Tracer::new);
    let mut plain: Vec<f64> = Vec::new();
    let mut traced: Vec<f64> = Vec::new();
    let (mut attempted, mut failed) = (0u64, 0u64);
    let budget = Duration::from_secs_f64(cfg.seconds.max(0.0));
    let start = Instant::now();
    let mut setups_done = 1;
    while start.elapsed() < budget
        || plain.len() < cfg.min_samples
        || (cfg.trace && traced.len() < cfg.min_samples)
    {
        if setups_done < setups_wanted
            && start.elapsed() >= budget.mul_f64(setups_done as f64 / setups_wanted as f64)
        {
            timed_setup(&mut slot);
            setups_done += 1;
        }
        let w = slot.as_mut().expect("a set-up ran");
        let t = Instant::now();
        let out = w.run();
        plain.push(ms(t.elapsed()));
        attempted += 1;
        failed += u64::from(!w.check(&out));
        drop(out);
        if let Some(tr) = tracer.as_mut().filter(|_| traced.len() < MAX_TRACED) {
            let (out, dt) = tr.request(|tr| w.run_traced(tr));
            traced.push(ms(dt));
            w.account(&out, tr);
            attempted += 1;
            failed += u64::from(!w.check(&out));
        }
        if ms(start.elapsed()) >= calib::EVERY_MS * cal_ms.len() as f64 {
            cal_ms.push(cal.pass());
        }
    }
    let wall = start.elapsed().as_secs_f64();
    while setups_done < setups_wanted {
        timed_setup(&mut slot);
        setups_done += 1;
    }
    drop(slot);

    let (tail_ms, pct, beyond) = tail(&plain);
    let cal_low = low(&cal_ms);
    let speed = calib::REFERENCE_MS / cal_low;
    let mut notes = vec![
        format!("{attempted} requests in {wall:.2} s, closed loop: 1 client, 1 thread"),
        format!(
            "failed_ratio = {} ratio ({failed} of {attempted})",
            failed as f64 / attempted.max(1) as f64
        ),
        format!(
            "latency_ms.p50 = {:.4} ms, latency_ms.mean = {:.4} ms over {} samples",
            median(&plain),
            mean(&plain),
            plain.len()
        ),
        format!(
            "latency_ms.tail = {tail_ms:.4} ms at p{pct:.2}: {beyond} of {} samples beyond it",
            plain.len()
        ),
        format!(
            "setup_s over {} set-ups: median {:.4} s, all {setups:.4?}",
            setups.len(),
            median(&setups)
        ),
        format!(
            "host speed: calibration pass low = {cal_low:.4} ms over {} passes \
             (reference {} ms), so gated host times are the raw ones x {speed:.4}",
            cal_ms.len(),
            calib::REFERENCE_MS
        ),
        format!(
            "raw latency_ms.low = {:.4} ms, raw setup_s = {:.4} s",
            low(&plain),
            low(&setups)
        ),
    ];
    let metrics = match &tracer {
        None => vec![
            ("latency_ms.low", low(&plain) * speed, "ms"),
            ("setup_s", low(&setups) * speed, "s"),
            ("peak_rss_mb", peak_rss_mb().unwrap_or(f64::NAN), "MiB"),
        ],
        Some(tr) => {
            let requests = tr.requests();
            let per_request: Vec<Vec<(&'static str, f64)>> =
                requests.iter().map(W::layer_metrics).collect();
            let coverage = requests
                .iter()
                .map(RequestView::coverage)
                .fold(f64::INFINITY, f64::min);
            notes.extend(tr.summary_lines());
            PER_LAYER
                .iter()
                .map(|&(name, unit)| {
                    let value = match name {
                        "trace.overhead" => low(&traced) / low(&plain),
                        "trace.coverage_min" => coverage,
                        _ => {
                            let xs: Vec<f64> = per_request
                                .iter()
                                .filter_map(|m| m.iter().find(|(n, _)| *n == name).map(|p| p.1))
                                .collect();
                            if xs.is_empty() {
                                0.0
                            } else {
                                low(&xs)
                            }
                        }
                    };
                    (name, value, unit)
                })
                .collect()
        }
    };
    RunReport {
        attempted,
        failed,
        metrics,
        latencies_ms: plain,
        setups_s: setups,
        notes,
        tracer,
    }
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Arithmetic mean of `xs`; NaN when empty.
pub fn mean(xs: &[f64]) -> f64 {
    xs.iter().sum::<f64>() / xs.len() as f64
}

/// Median of `xs` (the mean of the middle two for an even count); NaN
/// when empty.
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    let mut s = xs.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// The low sample of `xs`: the lower decile (nearest rank), but never with
/// more than ten samples below it, the mirror of [`tail`]. With many samples
/// it needs only eleven requests in the host's fast state to read that
/// state. NaN when empty.
pub fn low(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    let mut s = xs.to_vec();
    s.sort_by(f64::total_cmp);
    let decile = (s.len() as f64 * 0.1).ceil() as usize;
    s[decile.clamp(1, 11) - 1]
}

/// Highest percentile [`tail`] reports.
pub const TAIL_CAP: f64 = 0.99;

/// The tail sample of `xs`: the highest nearest-rank percentile, up to
/// [`TAIL_CAP`], with at least ten samples beyond it. Returns the value, the
/// percentile, and how many samples lie beyond it. With fewer than 11
/// samples it returns the smallest one and fewer than ten beyond.
pub fn tail(xs: &[f64]) -> (f64, f64, usize) {
    if xs.is_empty() {
        return (f64::NAN, 0.0, 0);
    }
    let mut s = xs.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    let capped = ((n as f64 * TAIL_CAP).ceil() as usize).max(1) - 1;
    let idx = n.saturating_sub(11).min(capped);
    (s[idx], 100.0 * (idx + 1) as f64 / n as f64, n - idx - 1)
}

/// Peak resident set size (`VmHWM`) of this process in MiB, where the
/// platform reports it.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))?
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .ok()?;
    Some(kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_leaves_ten_samples_beyond_until_the_cap() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(tail(&xs), (90.0, 90.0, 10));
        let xs: Vec<f64> = (1..=5000).map(f64::from).collect();
        assert_eq!(tail(&xs), (4950.0, 99.0, 50));
        let xs: Vec<f64> = (1..=40).map(f64::from).collect();
        assert_eq!(tail(&xs), (30.0, 75.0, 10));
    }

    #[test]
    fn low_is_the_lower_decile_with_at_most_ten_below() {
        let xs: Vec<f64> = (1..=1000).rev().map(f64::from).collect();
        assert_eq!(low(&xs), 11.0);
        assert_eq!(low(&xs[900..]), 10.0);
        assert_eq!(low(&xs[960..]), 4.0);
        assert_eq!(low(&xs[990..]), 1.0);
        assert_eq!(low(&[5.0]), 5.0);
        assert!(low(&[]).is_nan());
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn json_line_has_the_contract_keys() {
        let r = RunReport {
            attempted: 3,
            failed: 0,
            metrics: vec![("latency_ms.p50", 1.25, "ms"), ("x", f64::NAN, "ratio")],
            latencies_ms: Vec::new(),
            setups_s: Vec::new(),
            notes: Vec::new(),
            tracer: None,
        };
        assert_eq!(
            r.json(),
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": \
             {\"latency_ms.p50\": {\"value\": 1.25, \"unit\": \"ms\"}, \
             \"x\": {\"value\": 0, \"unit\": \"ratio\"}}}"
        );
    }
}
