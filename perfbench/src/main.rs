//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! [--trace-dir <dir>]`
//!
//! Runs one workload in this process and prints, as the last line of
//! standard output, one JSON object with `correct`, `attempted`, `failed`
//! and `metrics`. `--trace 0` reports the end-to-end metrics; `--trace 1`
//! reports the per-layer metrics and, with `--trace-dir`, writes the spans
//! as Chrome trace JSON there.

use std::path::PathBuf;
use std::process::ExitCode;

use perfbench::{run_named, RunConfig, WORKLOADS};

const USAGE: &str = "usage: perfbench --workload <transpose|fft2d|collectives|service> \
                     --seed <n> --seconds <s> --trace <0|1> [--trace-dir <dir>]";

struct Options {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    trace_dir: Option<PathBuf>,
}

fn parse(args: &[String]) -> Result<Options, String> {
    let (mut workload, mut seed, mut seconds, mut trace, mut trace_dir) =
        (None, None, None, None, None);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value"))?
            .as_str();
        match flag.as_str() {
            "--workload" if WORKLOADS.contains(&value) => workload = Some(value.to_string()),
            "--workload" => return Err(format!("unknown workload {value:?}")),
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s >= 0.0) {
                    return Err(format!("--seconds must be a non-negative number, got {s}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace must be 0 or 1, got {other:?}")),
                })
            }
            "--trace-dir" => trace_dir = Some(PathBuf::from(value)),
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    Ok(Options {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
        trace_dir,
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let cfg = RunConfig::new(opts.seconds, opts.trace);
    let report = run_named(&opts.workload, opts.seed, &cfg).expect("workload name was validated");
    println!(
        "perfbench {} seed={} trace={}",
        opts.workload,
        opts.seed,
        u8::from(opts.trace)
    );
    for line in &report.notes {
        println!("  {line}");
    }
    for (name, value, unit) in &report.metrics {
        println!("  {name:<28} {value:>16.6} {unit}");
    }
    if let (Some(dir), Some(tracer)) = (&opts.trace_dir, &report.tracer) {
        let path = dir.join(format!("{}-seed{}.trace.json", opts.workload, opts.seed));
        let written = std::fs::create_dir_all(dir)
            .and_then(|()| std::fs::write(&path, tracer.chrome_trace_json()));
        match written {
            Ok(()) => println!("  trace written to {}", path.display()),
            Err(e) => {
                eprintln!("perfbench: cannot write {}: {e}", path.display());
                return ExitCode::FAILURE;
            }
        }
    }
    println!("{}", report.json());
    ExitCode::SUCCESS
}
