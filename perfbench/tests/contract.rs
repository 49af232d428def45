//! The benchmark's own contract: metric names, tail sample counts, failure
//! accounting on a wrong reference, and the traced metric set. Run with
//! `cargo test --release --manifest-path perfbench/Cargo.toml`.

use perfbench::collectives::CollectivesWorkload;
use perfbench::fft2d::Fft2dWorkload;
use perfbench::service::ServiceWorkload;
use perfbench::transpose::TransposeWorkload;
use perfbench::{
    measure, run_named, tail, RunConfig, RunReport, Workload, END_TO_END, MIN_SAMPLES, PER_LAYER,
    SETUPS, WORKLOADS,
};

/// `(name, unit)` pairs of one metric list in `BENCHMARK.json`.
fn benchmark_metrics(list: &str) -> Vec<(String, String)> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json is readable");
    let doc = serde_json::from_str(&text).expect("BENCHMARK.json parses");
    doc.get(list)
        .and_then(|v| v.as_array())
        .expect("metric list present")
        .iter()
        .map(|m| {
            let field = |k: &str| m.get(k).and_then(|v| v.as_str()).unwrap_or("").to_string();
            (field("name"), field("unit"))
        })
        .collect()
}

fn pairs(list: &[(&str, &str)]) -> Vec<(String, String)> {
    list.iter()
        .map(|(n, u)| (n.to_string(), u.to_string()))
        .collect()
}

fn well_formed(name: &str) -> bool {
    !name.is_empty()
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

#[test]
fn metric_names_are_well_formed_and_match_benchmark_json() {
    assert_eq!(benchmark_metrics("end_to_end"), pairs(END_TO_END));
    assert_eq!(benchmark_metrics("per_layer"), pairs(PER_LAYER));
    for (name, _) in END_TO_END.iter().chain(PER_LAYER) {
        assert!(well_formed(name), "metric name {name:?}");
    }
}

fn short(trace: bool) -> RunConfig {
    RunConfig {
        seconds: 0.0,
        min_samples: MIN_SAMPLES,
        setups: SETUPS,
        trace,
    }
}

#[test]
fn short_runs_rest_the_tail_on_ten_samples() {
    for w in WORKLOADS {
        let r = run_named(w, 7, &short(false)).expect("known workload");
        assert_eq!(r.failed, 0, "{w}: {:?}", r.notes);
        assert_eq!(r.setups_s.len(), SETUPS, "{w}");
        let (_, pct, beyond) = tail(&r.latencies_ms);
        assert!(beyond >= 10, "{w}: {beyond} samples beyond p{pct}");
        let names: Vec<&str> = r.metrics.iter().map(|m| m.0).collect();
        let want: Vec<&str> = END_TO_END.iter().map(|m| m.0).collect();
        assert_eq!(names, want, "{w}");
        assert!(r.metrics.iter().all(|m| m.1 > 0.0), "{w}: {:?}", r.metrics);
    }
}

/// Measure `W` briefly with every set-up's reference broken by `corrupt`.
fn with_wrong_reference<W: Workload>(corrupt: impl Fn(&mut W)) -> RunReport {
    let cfg = RunConfig {
        seconds: 0.0,
        min_samples: 2,
        setups: 2,
        trace: true,
    };
    let setup = || {
        let mut w = W::setup(1);
        corrupt(&mut w);
        w
    };
    measure(setup, &cfg)
}

#[test]
fn a_wrong_reference_counts_as_failed_without_panicking() {
    let reports = [
        with_wrong_reference(|w: &mut TransposeWorkload| w.expected.cycles += 1),
        with_wrong_reference(|w: &mut Fft2dWorkload| w.reference.data[0].re += 1.0),
        with_wrong_reference(|w: &mut CollectivesWorkload| w.fingerprints[3] ^= 1),
        with_wrong_reference(|w: &mut ServiceWorkload| w.expected[2].push(' ')),
    ];
    for (w, r) in WORKLOADS.iter().zip(&reports) {
        assert!(r.attempted >= 4, "{w}");
        assert_eq!(r.failed, r.attempted, "{w}: every request fails its check");
        assert!(r.json().starts_with("{\"correct\": false"), "{w}");
    }
}

#[test]
fn traced_runs_emit_every_per_layer_metric_with_full_coverage() {
    let want = benchmark_metrics("per_layer");
    for w in WORKLOADS {
        let r = run_named(w, 3, &short(true)).expect("known workload");
        assert_eq!(r.failed, 0, "{w}: {:?}", r.notes);
        let got: Vec<(String, String)> = r
            .metrics
            .iter()
            .map(|(n, _, u)| (n.to_string(), u.to_string()))
            .collect();
        assert_eq!(got, want, "{w}");
        let coverage = r.metric("trace.coverage_min").expect("reported");
        assert!(coverage >= 0.9, "{w}: layer spans cover {coverage}");
        assert!(r.metric("trace.overhead").expect("reported") > 0.0, "{w}");
        let trace = r.tracer.as_ref().expect("traced").chrome_trace_json();
        assert!(trace.contains("\"host\""), "{w}");
    }
}

#[test]
fn traced_fft2d_replay_reproduces_the_machine_bills() {
    let r = run_named("fft2d", 5, &short(true)).expect("known workload");
    let m = |n| r.metric(n).expect("reported");
    // Four SCA phases of n² = 65536 payload slots plus one header slot per
    // 32-word DRAM row.
    assert_eq!(m("psync.bus_slots"), 4.0 * (65536.0 + 2048.0));
    assert_eq!(m("memory.dram_cycles"), 4.0 * 65536.0);
    assert_eq!(
        m("fft.multiplies"),
        2.0 * 256.0 * fft::multiplies(256) as f64
    );
    assert!(m("pscan.ms") > 0.0 && m("memory.ms") > 0.0 && m("fft.ms") > 0.0);
    for req in r.tracer.as_ref().expect("traced").requests() {
        assert_eq!(
            req.counter("memory.replay_dram_cycles"),
            req.counter("memory.dram_cycles"),
            "the replay repeats the request's DRAM traffic"
        );
    }
}
