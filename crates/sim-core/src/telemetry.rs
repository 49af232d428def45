//! Unified observability: named metric series plus span-based event
//! tracing, serializable to Chrome trace-event JSON (loadable in
//! `chrome://tracing` / [Perfetto](https://ui.perfetto.dev)) and to a flat
//! metrics JSON.
//!
//! The paper's evaluation is all about *where cycles and picojoules go*
//! (Tables I–III, Figs. 5/11/13/14); this module is how the simulators
//! attribute them. Every fabric exposes an `enable_telemetry()` switch that
//! attaches a [`Registry`]; with no registry attached the hot paths do no
//! telemetry work at all (a single `Option` check per service batch), so
//! the zero-fault goldens stay byte-identical and the perf harness sees
//! < 2% overhead.
//!
//! # Naming convention
//!
//! Metric series are named `fabric.component.metric`, e.g.
//! `emesh.router.forwards` or `pscan.crc.retries`. Per-component instances
//! are distinguished by labels, canonicalized into the series key as
//! `name{k=v,...}` with label keys sorted, e.g.
//! `emesh.router.forwards{node=12}`.
//!
//! # Timebase
//!
//! Chrome trace timestamps are microseconds. Each fabric maps its native
//! unit onto the µs axis (documented per fabric): the mesh renders one
//! cycle as 1 µs, the PSCAN one bus slot as 1 µs, and the P-sync machine
//! renders real seconds scaled by 10⁶. Tracks from different fabrics live
//! in different trace *processes*, so mixed timebases never share an axis.
//!
//! ```
//! use sim_core::telemetry::Registry;
//!
//! let reg = Registry::new();
//! reg.counter_add("emesh.mesh.injections", 2);
//! reg.counter_add_labeled("emesh.router.forwards", &[("node", "3".into())], 14);
//! reg.span("emesh", "router 3", "active", 0.0, 12.0, &[]);
//! assert_eq!(reg.series_count(), 2);
//! let trace = reg.chrome_trace_json();
//! assert!(trace.contains("\"traceEvents\""));
//! ```

use std::cell::RefCell;
use std::collections::BTreeMap;

use serde::{Serialize, Value};

/// One completed Chrome trace event (phase `"X"`: a span with a duration).
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct TraceEvent {
    /// Event name (the span label).
    pub name: String,
    /// Category: the fabric that emitted it (`emesh`, `pscan`, `psync`,
    /// `dram`).
    pub cat: String,
    /// Trace process id (one per fabric).
    pub pid: u32,
    /// Trace thread id (one per component track).
    pub tid: u32,
    /// Start timestamp in microseconds.
    pub ts_us: f64,
    /// Duration in microseconds.
    pub dur_us: f64,
    /// Free-form annotations rendered into the event's `args`.
    pub args: Vec<(String, String)>,
}

/// Sparse power-of-two-bucket histogram used for metric series. Unlike
/// [`crate::stats::Histogram`] it needs no up-front bucket sizing, so
/// callers can record into a fresh series without knowing its range.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SeriesHistogram {
    /// Sample count per power-of-two bucket: bucket `i` holds samples in
    /// `[2^(i-1), 2^i)` (bucket 0 holds the sample `0`).
    buckets: BTreeMap<u32, u64>,
    count: u64,
    sum: u128,
    min: u64,
    max: u64,
}

impl SeriesHistogram {
    fn bucket(sample: u64) -> u32 {
        64 - sample.leading_zeros()
    }

    /// Record one sample.
    pub fn record(&mut self, sample: u64) {
        if self.count == 0 {
            self.min = sample;
            self.max = sample;
        } else {
            self.min = self.min.min(sample);
            self.max = self.max.max(sample);
        }
        self.count += 1;
        self.sum += u128::from(sample);
        *self.buckets.entry(Self::bucket(sample)).or_insert(0) += 1;
    }

    /// Number of samples recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Smallest sample, or `None` if empty.
    pub fn min(&self) -> Option<u64> {
        (self.count > 0).then_some(self.min)
    }

    /// Largest sample, or `None` if empty.
    pub fn max(&self) -> Option<u64> {
        (self.count > 0).then_some(self.max)
    }

    /// Arithmetic mean, or `None` if empty.
    pub fn mean(&self) -> Option<f64> {
        (self.count > 0).then(|| self.sum as f64 / self.count as f64)
    }

    /// Fold another histogram into this one. Exact, not approximate: every
    /// aggregate this type maintains (bucket counts, count, sum, min, max)
    /// is commutative and associative, so merging per-worker shards yields
    /// byte-identical state to recording every sample into one histogram —
    /// the property the parallel mesh telemetry path relies on.
    pub fn merge(&mut self, other: &SeriesHistogram) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            self.min = other.min;
            self.max = other.max;
        } else {
            self.min = self.min.min(other.min);
            self.max = self.max.max(other.max);
        }
        self.count += other.count;
        self.sum += other.sum;
        for (&b, &n) in &other.buckets {
            *self.buckets.entry(b).or_insert(0) += n;
        }
    }

    /// Upper edge of the bucket holding the `q`-quantile sample (a
    /// conservative estimate), or `None` if empty.
    pub fn quantile(&self, q: f64) -> Option<u64> {
        if self.count == 0 {
            return None;
        }
        assert!((0.0..=1.0).contains(&q), "quantile must be in [0, 1]");
        let target = ((self.count as f64) * q).ceil().max(1.0) as u64;
        let mut seen = 0;
        for (&b, &n) in &self.buckets {
            seen += n;
            if seen >= target {
                // Upper edge of bucket b, clamped to the observed max.
                let edge = if b == 0 { 0 } else { (1u64 << b) - 1 };
                return Some(edge.min(self.max));
            }
        }
        Some(self.max)
    }

    fn to_value(&self) -> Value {
        Value::Object(vec![
            ("count".into(), Value::UInt(self.count)),
            (
                "sum".into(),
                Value::UInt(self.sum.min(u128::from(u64::MAX)) as u64),
            ),
            ("min".into(), Value::UInt(self.min().unwrap_or(0))),
            ("max".into(), Value::UInt(self.max().unwrap_or(0))),
            ("mean".into(), Value::Float(self.mean().unwrap_or(0.0))),
            ("p50".into(), Value::UInt(self.quantile(0.5).unwrap_or(0))),
            ("p99".into(), Value::UInt(self.quantile(0.99).unwrap_or(0))),
        ])
    }
}

/// A metric series value.
#[derive(Debug, Clone, PartialEq)]
enum SeriesValue {
    Counter(u64),
    Gauge(f64),
    Histogram(SeriesHistogram),
}

#[derive(Debug, Clone, Default)]
struct Inner {
    series: BTreeMap<String, SeriesValue>,
    events: Vec<TraceEvent>,
    /// Interned (process, track) → (pid, tid); insertion order defines ids.
    tracks: Vec<(String, String)>,
}

impl Inner {
    fn intern(&mut self, process: &str, track: &str) -> (u32, u32) {
        let pid = match self.tracks.iter().position(|(p, _)| p == process) {
            Some(i) => self.tracks[i].0.clone(),
            None => process.to_string(),
        };
        if let Some(i) = self
            .tracks
            .iter()
            .position(|(p, t)| *p == pid && t == track)
        {
            return (self.pid_of(&self.tracks[i].0), i as u32);
        }
        self.tracks.push((pid.clone(), track.to_string()));
        (self.pid_of(&pid), (self.tracks.len() - 1) as u32)
    }

    /// pid = 1 + index of first track belonging to this process.
    fn pid_of(&self, process: &str) -> u32 {
        1 + self
            .tracks
            .iter()
            .position(|(p, _)| p == process)
            .expect("interned") as u32
    }
}

/// Canonical series key: `name` or `name{k=v,...}` with keys sorted.
fn series_key(name: &str, labels: &[(&str, String)]) -> String {
    if labels.is_empty() {
        return name.to_string();
    }
    let mut ls: Vec<&(&str, String)> = labels.iter().collect();
    ls.sort_by_key(|(k, _)| *k);
    let body: Vec<String> = ls.iter().map(|(k, v)| format!("{k}={v}")).collect();
    format!("{name}{{{}}}", body.join(","))
}

/// A registry of named metric series and trace spans.
///
/// Interior-mutable (single-threaded `RefCell`) so that instrumentation
/// points with `&self` receivers can record; each simulator instance owns
/// its registry, and registries from different fabrics are combined with
/// [`Registry::merge`] before export.
#[derive(Debug, Clone, Default)]
pub struct Registry {
    inner: RefCell<Inner>,
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Self {
        Registry::default()
    }

    /// Add `delta` to counter `name`.
    pub fn counter_add(&self, name: &str, delta: u64) {
        self.counter_add_labeled(name, &[], delta);
    }

    /// Add `delta` to counter `name` with labels.
    pub fn counter_add_labeled(&self, name: &str, labels: &[(&str, String)], delta: u64) {
        let key = series_key(name, labels);
        let mut inner = self.inner.borrow_mut();
        match inner.series.entry(key).or_insert(SeriesValue::Counter(0)) {
            SeriesValue::Counter(c) => *c += delta,
            other => *other = SeriesValue::Counter(delta),
        }
    }

    /// Set counter `name` to an absolute value (end-of-run flushes use this
    /// so repeated `run()` calls publish totals, not sums of totals).
    pub fn counter_set_labeled(&self, name: &str, labels: &[(&str, String)], value: u64) {
        let key = series_key(name, labels);
        self.inner
            .borrow_mut()
            .series
            .insert(key, SeriesValue::Counter(value));
    }

    /// Set counter `name` (no labels) to an absolute value.
    pub fn counter_set(&self, name: &str, value: u64) {
        self.counter_set_labeled(name, &[], value);
    }

    /// Set gauge `name` to `value`.
    pub fn gauge_set(&self, name: &str, value: f64) {
        self.gauge_set_labeled(name, &[], value);
    }

    /// Set gauge `name` with labels to `value`.
    pub(crate) fn gauge_set_labeled(&self, name: &str, labels: &[(&str, String)], value: f64) {
        let key = series_key(name, labels);
        self.inner
            .borrow_mut()
            .series
            .insert(key, SeriesValue::Gauge(value));
    }

    /// Absorb a whole pre-built histogram as series `name` (end-of-run
    /// flush of a histogram accumulated outside the registry).
    pub fn histogram_set_labeled(
        &self,
        name: &str,
        labels: &[(&str, String)],
        hist: SeriesHistogram,
    ) {
        let key = series_key(name, labels);
        self.inner
            .borrow_mut()
            .series
            .insert(key, SeriesValue::Histogram(hist));
    }

    /// Record a completed span on `(process, track)` from `ts_us` for
    /// `dur_us` microseconds.
    pub fn span(
        &self,
        process: &str,
        track: &str,
        name: &str,
        ts_us: f64,
        dur_us: f64,
        args: &[(&str, String)],
    ) {
        let mut inner = self.inner.borrow_mut();
        let (pid, tid) = inner.intern(process, track);
        inner.events.push(TraceEvent {
            name: name.to_string(),
            cat: process.to_string(),
            pid,
            tid,
            ts_us,
            dur_us: dur_us.max(0.0),
            args: args
                .iter()
                .map(|(k, v)| (k.to_string(), v.clone()))
                .collect(),
        });
    }

    /// Number of distinct named metric series.
    pub fn series_count(&self) -> usize {
        self.inner.borrow().series.len()
    }

    /// Number of recorded (completed) trace spans.
    pub fn span_count(&self) -> usize {
        self.inner.borrow().events.len()
    }

    /// Current value of counter series `key` (canonical key, including any
    /// `{labels}`), if it exists and is a counter.
    pub fn counter_value(&self, key: &str) -> Option<u64> {
        match self.inner.borrow().series.get(key) {
            Some(SeriesValue::Counter(c)) => Some(*c),
            _ => None,
        }
    }

    /// Current value of gauge series `key`, if it exists and is a gauge.
    pub fn gauge_value(&self, key: &str) -> Option<f64> {
        match self.inner.borrow().series.get(key) {
            Some(SeriesValue::Gauge(g)) => Some(*g),
            _ => None,
        }
    }

    /// Absorb `other`'s series and spans into `self`. Counters add,
    /// gauges/histograms from `other` win on key collision; `other`'s
    /// tracks are re-interned (pids/tids may change, process/track names
    /// are preserved).
    pub fn merge(&self, other: Registry) {
        let other = other.inner.into_inner();
        {
            let mut inner = self.inner.borrow_mut();
            for (key, val) in other.series {
                match (inner.series.get_mut(&key), val) {
                    (Some(SeriesValue::Counter(a)), SeriesValue::Counter(b)) => *a += b,
                    (slot, val) => {
                        let _ = slot;
                        inner.series.insert(key, val);
                    }
                }
            }
        }
        for ev in other.events {
            let (process, track) = other.tracks[ev.tid as usize].clone();
            let mut inner = self.inner.borrow_mut();
            let (pid, tid) = inner.intern(&process, &track);
            inner.events.push(TraceEvent { pid, tid, ..ev });
        }
    }

    /// Render the Chrome trace-event JSON: an object with a `traceEvents`
    /// array of phase-`"X"` span events plus `"M"` metadata events naming
    /// each process and track. Loadable in `chrome://tracing` and Perfetto.
    pub fn chrome_trace_json(&self) -> String {
        let inner = self.inner.borrow();
        let mut events: Vec<Value> = Vec::new();
        // Metadata: process and thread names.
        let mut seen_pids: Vec<u32> = Vec::new();
        for (i, (process, track)) in inner.tracks.iter().enumerate() {
            let pid = inner.pid_of(process);
            let tid = i as u32;
            if !seen_pids.contains(&pid) {
                seen_pids.push(pid);
                events.push(Value::Object(vec![
                    ("name".into(), Value::Str("process_name".into())),
                    ("ph".into(), Value::Str("M".into())),
                    ("pid".into(), Value::UInt(u64::from(pid))),
                    ("tid".into(), Value::UInt(0)),
                    (
                        "args".into(),
                        Value::Object(vec![("name".into(), Value::Str(process.clone()))]),
                    ),
                ]));
            }
            events.push(Value::Object(vec![
                ("name".into(), Value::Str("thread_name".into())),
                ("ph".into(), Value::Str("M".into())),
                ("pid".into(), Value::UInt(u64::from(pid))),
                ("tid".into(), Value::UInt(u64::from(tid))),
                (
                    "args".into(),
                    Value::Object(vec![("name".into(), Value::Str(track.clone()))]),
                ),
            ]));
        }
        for ev in &inner.events {
            let args: Vec<(String, Value)> = ev
                .args
                .iter()
                .map(|(k, v)| (k.clone(), Value::Str(v.clone())))
                .collect();
            events.push(Value::Object(vec![
                ("name".into(), Value::Str(ev.name.clone())),
                ("cat".into(), Value::Str(ev.cat.clone())),
                ("ph".into(), Value::Str("X".into())),
                ("ts".into(), Value::Float(ev.ts_us)),
                ("dur".into(), Value::Float(ev.dur_us)),
                ("pid".into(), Value::UInt(u64::from(ev.pid))),
                ("tid".into(), Value::UInt(u64::from(ev.tid))),
                ("args".into(), Value::Object(args)),
            ]));
        }
        let root = Value::Object(vec![
            ("traceEvents".into(), Value::Array(events)),
            ("displayTimeUnit".into(), Value::Str("ms".into())),
        ]);
        struct W(Value);
        impl Serialize for W {
            fn to_value(&self) -> Value {
                self.0.clone()
            }
        }
        serde_json::to_string_pretty(&W(root)).expect("infallible")
    }

    /// Render the flat metrics JSON: `{"series": {key: value, ...}}` with
    /// counters as integers, gauges as floats, and histograms as summary
    /// objects (`count`/`sum`/`min`/`max`/`mean`/`p50`/`p99`).
    pub fn metrics_json(&self) -> String {
        let inner = self.inner.borrow();
        let series: Vec<(String, Value)> = inner
            .series
            .iter()
            .map(|(k, v)| {
                let val = match v {
                    SeriesValue::Counter(c) => Value::UInt(*c),
                    SeriesValue::Gauge(g) => Value::Float(*g),
                    SeriesValue::Histogram(h) => h.to_value(),
                };
                (k.clone(), val)
            })
            .collect();
        let root = Value::Object(vec![
            ("series".into(), Value::Object(series)),
            (
                "series_count".into(),
                Value::UInt(inner.series.len() as u64),
            ),
        ]);
        struct W(Value);
        impl Serialize for W {
            fn to_value(&self) -> Value {
                self.0.clone()
            }
        }
        serde_json::to_string_pretty(&W(root)).expect("infallible")
    }
}

/// Record a completed span with inline `key = value` annotations:
///
/// ```
/// use sim_core::{span, telemetry::Registry};
/// let reg = Registry::new();
/// span!(reg, "psync", "phases", "transpose", 0.0, 42.0, retries = 1, k = 8);
/// assert_eq!(reg.span_count(), 1);
/// ```
#[macro_export]
macro_rules! span {
    ($reg:expr, $process:expr, $track:expr, $name:expr, $ts:expr, $dur:expr
     $(, $k:ident = $v:expr)* $(,)?) => {
        $reg.span(
            $process,
            $track,
            $name,
            $ts,
            $dur,
            &[$((stringify!($k), ::std::string::ToString::to_string(&$v))),*],
        )
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    impl Registry {
        /// Snapshot of histogram series `key`, if it exists and is a histogram.
        fn histogram_value(&self, key: &str) -> Option<SeriesHistogram> {
            match self.inner.borrow().series.get(key) {
                Some(SeriesValue::Histogram(h)) => Some(h.clone()),
                _ => None,
            }
        }
    }

    #[test]
    fn counters_accumulate_and_set_overwrites() {
        let r = Registry::new();
        r.counter_add("a.b.c", 2);
        r.counter_add("a.b.c", 3);
        assert_eq!(r.counter_value("a.b.c"), Some(5));
        r.counter_set("a.b.c", 7);
        assert_eq!(r.counter_value("a.b.c"), Some(7));
    }

    #[test]
    fn labels_canonicalize_sorted() {
        let r = Registry::new();
        r.counter_add_labeled("m", &[("b", "2".into()), ("a", "1".into())], 1);
        r.counter_add_labeled("m", &[("a", "1".into()), ("b", "2".into())], 1);
        assert_eq!(r.series_count(), 1);
        assert_eq!(r.counter_value("m{a=1,b=2}"), Some(2));
    }

    #[test]
    fn gauges_and_histograms() {
        let r = Registry::new();
        r.gauge_set("util", 0.75);
        assert_eq!(r.gauge_value("util"), Some(0.75));
        let mut depth = SeriesHistogram::default();
        for s in [1u64, 2, 3, 100] {
            depth.record(s);
        }
        r.histogram_set_labeled("depth", &[], depth);
        let h = r.histogram_value("depth").unwrap();
        assert_eq!(h.count(), 4);
        assert_eq!(h.min(), Some(1));
        assert_eq!(h.max(), Some(100));
        assert!((h.mean().unwrap() - 26.5).abs() < 1e-12);
        assert!(h.quantile(0.5).unwrap() <= 3);
    }

    #[test]
    fn sharded_histogram_merge_is_exact() {
        // Recording a sample stream into one histogram must equal recording
        // an arbitrary partition of it into shards and merging — including
        // the serialized form (PartialEq covers buckets/count/sum/min/max).
        let samples: Vec<u64> = (0..257u64).map(|i| i.wrapping_mul(0x9E37) % 5000).collect();
        let mut whole = SeriesHistogram::default();
        for &s in &samples {
            whole.record(s);
        }
        for parts in [1usize, 2, 3, 7] {
            let mut merged = SeriesHistogram::default();
            for p in 0..parts {
                let mut shard = SeriesHistogram::default();
                for (i, &s) in samples.iter().enumerate() {
                    if i % parts == p {
                        shard.record(s);
                    }
                }
                merged.merge(&shard);
            }
            assert_eq!(merged, whole, "{parts}-way shard merge diverged");
        }
        // Merging an empty histogram is the identity, in both directions.
        let mut id = whole.clone();
        id.merge(&SeriesHistogram::default());
        assert_eq!(id, whole);
        let mut from_empty = SeriesHistogram::default();
        from_empty.merge(&whole);
        assert_eq!(from_empty, whole);
    }

    #[test]
    fn histogram_of_zeros() {
        let r = Registry::new();
        let mut z = SeriesHistogram::default();
        z.record(0);
        z.record(0);
        r.histogram_set_labeled("z", &[], z);
        let h = r.histogram_value("z").unwrap();
        assert_eq!((h.min(), h.max(), h.count()), (Some(0), Some(0), 2));
        assert_eq!(h.quantile(1.0), Some(0));
    }

    #[test]
    fn chrome_trace_has_metadata_and_events() {
        let r = Registry::new();
        r.span("emesh", "router 0", "active", 0.0, 10.0, &[]);
        r.span("pscan", "cp 1", "drive", 2.0, 4.0, &[("slots", "4".into())]);
        let t = r.chrome_trace_json();
        assert!(t.contains("\"traceEvents\""));
        assert!(t.contains("\"process_name\""));
        assert!(t.contains("\"thread_name\""));
        assert!(t.contains("\"emesh\""));
        assert!(t.contains("\"router 0\""));
        assert!(t.contains("\"ph\": \"X\""));
        assert!(t.contains("\"slots\": \"4\""));
        // Distinct fabrics land in distinct trace processes.
        assert!(t.contains("\"pscan\""));
    }

    #[test]
    fn metrics_json_flattens_all_series() {
        let r = Registry::new();
        r.counter_add("a", 1);
        r.gauge_set("b", 2.5);
        let mut c = SeriesHistogram::default();
        c.record(9);
        r.histogram_set_labeled("c", &[], c);
        let m = r.metrics_json();
        assert!(m.contains("\"series\""));
        assert!(m.contains("\"a\": 1"));
        assert!(m.contains("\"b\": 2.5"));
        assert!(m.contains("\"count\": 1"));
        assert!(m.contains("\"series_count\": 3"));
    }

    #[test]
    fn merge_adds_counters_and_reinterns_tracks() {
        let a = Registry::new();
        a.counter_add("n", 1);
        a.span("f", "t0", "x", 0.0, 1.0, &[]);
        let b = Registry::new();
        b.counter_add("n", 2);
        b.gauge_set("g", 1.0);
        b.span("f", "t1", "y", 0.0, 1.0, &[]);
        b.span("f2", "t0", "z", 0.0, 1.0, &[]);
        a.merge(b);
        assert_eq!(a.counter_value("n"), Some(3));
        assert_eq!(a.gauge_value("g"), Some(1.0));
        assert_eq!(a.span_count(), 3);
        let t = a.chrome_trace_json();
        assert!(t.contains("\"f2\"") && t.contains("\"t1\""));
    }

    #[test]
    fn span_macro_records_args() {
        let r = Registry::new();
        span!(
            r,
            "psync",
            "phases",
            "wb",
            1.0,
            2.0,
            retries = 3,
            node = "h"
        );
        assert_eq!(r.span_count(), 1);
        let t = r.chrome_trace_json();
        assert!(t.contains("\"retries\": \"3\""));
        assert!(t.contains("\"node\": \"h\""));
    }
}
