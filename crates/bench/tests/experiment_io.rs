//! The `Experiment` writer path must stay byte-identical to the seed's
//! `write_json` (pretty serde_json straight to `results/<name>.json`): the
//! committed goldens are diffed byte-for-byte by CI, so any drift in
//! formatting or routing here shows up as a spurious golden churn.

use bench::Experiment;
use serde::Serialize;

#[derive(Serialize)]
struct Row {
    k: u64,
    eta: f64,
    label: String,
}

/// Single test so the process-global results-dir override can't race a
/// sibling test.
#[test]
fn results_file_is_byte_identical_to_pretty_serde_json() {
    let dir = std::env::temp_dir().join(format!("bench_io_{}", std::process::id()));
    std::env::set_var("PSYNC_RESULTS_DIR", &dir);

    let rows = vec![
        Row {
            k: 64,
            eta: 0.875,
            label: "peak".into(),
        },
        Row {
            k: 128,
            eta: 0.5,
            label: "past the knee".into(),
        },
    ];
    Experiment::with_args("experiment_io_test", std::iter::empty())
        .expect("no flags to parse")
        .note("byte-identity check")
        .rows(&rows)
        .run()
        .expect("run succeeds");

    let written = std::fs::read_to_string(dir.join("experiment_io_test.json")).expect("file");
    let expected = serde_json::to_string_pretty(&rows).expect("serializable");
    assert_eq!(
        written, expected,
        "results writer drifted from the seed format"
    );

    std::env::remove_var("PSYNC_RESULTS_DIR");
    let _ = std::fs::remove_dir_all(&dir);
}

/// Spawn the `table1` harness binary (the cheapest closed-form bin) with
/// `args` and return (exit code, stderr).
fn spawn_table1(args: &[&str]) -> (i32, String) {
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_table1"))
        .args(args)
        .env(
            "PSYNC_RESULTS_DIR",
            std::env::temp_dir().join("bench_errpath"),
        )
        .output()
        .expect("harness binary spawns");
    (
        out.status.code().expect("no signal"),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

#[test]
fn unknown_flag_exits_2_with_usage() {
    let (code, err) = spawn_table1(&["--quikc"]);
    assert_eq!(code, 2, "bad usage must exit 2: {err}");
    assert!(err.contains("--quikc"), "names the offender: {err}");
    assert!(err.contains("usage:"), "prints usage: {err}");
}

#[test]
fn threads_flag_is_unknown_and_exits_2() {
    // The mesh executor is sequential, so there is no thread knob.
    let (code, err) = spawn_table1(&["--threads", "4"]);
    assert_eq!(code, 2, "--threads must exit 2: {err}");
    assert!(
        err.contains("unknown argument \"--threads\""),
        "names the flag: {err}"
    );
    assert!(
        !err.contains("[--threads"),
        "usage no longer offers it: {err}"
    );
}

#[test]
fn missing_flag_value_exits_2() {
    let (code, err) = spawn_table1(&["--trace-out"]);
    assert_eq!(code, 2, "dangling flag must exit 2: {err}");
    assert!(err.contains("needs a value"), "explains: {err}");
}

#[test]
fn unwritable_trace_out_exits_1() {
    // The parent of the target path is a regular file, so the directory
    // creation inside the writer must fail with a plumbing error.
    let blocker = std::env::temp_dir().join(format!("bench_blocker_{}", std::process::id()));
    std::fs::write(&blocker, b"not a directory").expect("blocker file");
    let target = blocker.join("trace.json");
    let (code, err) = spawn_table1(&["--no-json", "--trace-out", target.to_str().unwrap()]);
    let _ = std::fs::remove_file(&blocker);
    assert_eq!(code, 1, "io failure must exit 1: {err}");
    assert!(
        err.contains("error") || err.contains("Error"),
        "reports: {err}"
    );
}

#[test]
fn unwritable_metrics_out_exits_1() {
    let blocker = std::env::temp_dir().join(format!("bench_blocker_m_{}", std::process::id()));
    std::fs::write(&blocker, b"not a directory").expect("blocker file");
    let target = blocker.join("metrics.json");
    let (code, err) = spawn_table1(&["--no-json", "--metrics-out", target.to_str().unwrap()]);
    let _ = std::fs::remove_file(&blocker);
    assert_eq!(code, 1, "io failure must exit 1: {err}");
}
