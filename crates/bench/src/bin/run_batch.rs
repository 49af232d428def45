//! Supervised experiment batch driver — the `run_batch` bin.
//!
//! Runs a batch of Table III jobs under the [`bench::supervisor`] worker
//! pool with the [`bench::cache`] exact result cache, demonstrating every
//! structured outcome the supervision layer produces:
//!
//! * **pass** — the job simulated to completion; its result JSON is written
//!   to `results/batch/<job>.json` and is byte-identical to what the direct
//!   `table3_transpose` bin writes (same [`bench::jobs`] code path);
//! * **cached** — a duplicate configuration served from the result cache
//!   without re-simulating, with the same fingerprint as the pass;
//! * **deadline** — a job submitted with a zero deadline, cancelled at the
//!   fabric's first interrupt poll (`Cancelled` with a structured cause);
//! * **panicked** — a job whose body deliberately panics; the panic is
//!   caught, the payload reported, and the worker respawned.
//!
//! ```text
//! cargo run --release -p bench --bin run_batch [--quick] [--timeout-s <s>]
//! ```
//!
//! `--quick` uses the Table III quick configuration (P = N = 256) for the
//! pass/cached jobs; the full mode uses the paper configuration
//! (P = N = 1024) so an external interrupt test has something long-lived
//! to cancel. SIGINT (ctrl-C, or
//! `timeout -s INT`) triggers a graceful drain: cancel-all, flush the
//! partial batch report, exit 130.
//!
//! The batch summary goes to `results/run_batch.json`. Worker count is 1 so
//! completion order — and therefore which duplicate is the cache hit — is
//! deterministic and the quick golden is byte-stable.

use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Duration;

use bench::cache::{fingerprint_hex, ResultCache};
use bench::jobs::{supervised_work, JobSpec, Table3Spec};
use bench::supervisor::{JobError, JobReport, JobSuccess, Supervisor, SupervisorConfig, Work};
use bench::{BenchError, Experiment};
use serde::Serialize;

/// SIGINT latch + handler installation (no-op off unix).
mod sig {
    use std::sync::atomic::AtomicBool;

    /// Set by the handler; polled by the drain loop.
    pub static INTERRUPTED: AtomicBool = AtomicBool::new(false);

    #[cfg(unix)]
    mod imp {
        use std::sync::atomic::Ordering;

        const SIGINT: i32 = 2;

        extern "C" {
            fn signal(signum: i32, handler: usize) -> usize;
        }

        extern "C" fn on_sigint(_: i32) {
            // Async-signal-safe: a single atomic store.
            super::INTERRUPTED.store(true, Ordering::Release);
        }

        pub fn install() {
            unsafe {
                signal(SIGINT, on_sigint as *const () as usize);
            }
        }
    }

    /// Route SIGINT to the latch instead of killing the process.
    pub fn install() {
        #[cfg(unix)]
        imp::install();
    }
}

/// One row of the batch summary (`results/run_batch.json`). Deterministic:
/// no wall-clock fields, no host-dependent payloads.
#[derive(Serialize)]
struct BatchRow {
    job: String,
    /// `pass` / `cached` / `deadline` / `panicked` / `failed` / `cancelled`.
    outcome: String,
    attempts: u32,
    /// Always 0: jobs are not retried; kept for the row format and golden.
    backoff_ms: u64,
    /// Result fingerprint (perf-gate witness) for pass/cached rows.
    fingerprint: Option<String>,
    /// Structured failure detail for the non-pass rows.
    detail: Option<String>,
}

/// Classify a report into the summary row vocabulary.
fn row_for(report: &JobReport) -> BatchRow {
    let (outcome, fingerprint, detail) = match &report.result {
        Ok(JobSuccess {
            cached,
            fingerprint,
            ..
        }) => (
            if *cached { "cached" } else { "pass" },
            Some(fingerprint_hex(*fingerprint)),
            None,
        ),
        Err(JobError::Cancelled { detail }) => {
            let outcome = if detail.contains("deadline") {
                "deadline"
            } else {
                "cancelled"
            };
            (outcome, None, Some(detail.clone()))
        }
        Err(JobError::Panicked { payload }) => ("panicked", None, Some(payload.clone())),
        Err(e) => ("failed", None, Some(e.to_string())),
    };
    BatchRow {
        job: report.name.clone(),
        outcome: outcome.to_string(),
        attempts: report.attempts,
        backoff_ms: 0,
        fingerprint,
        detail,
    }
}

/// A supervised Table III job body via the shared [`bench::jobs`] builder:
/// cache lookup keyed on the canonical spec JSON plus the deadline bits,
/// simulation on miss — the same code path `psyncd` routes daemon jobs
/// through.
fn table3_work(cfg: Table3Spec, timeout_s: Option<f64>, cache: Arc<ResultCache>) -> Arc<Work> {
    supervised_work(JobSpec::Table3(cfg), timeout_s, cache, None, None)
}

fn main() -> Result<(), BenchError> {
    let ex = Experiment::new("run_batch");
    sig::install();
    // Suppress the default panic hook's backtrace spam for the supervisor's
    // worker threads — their panics are caught and reported structurally.
    let default_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        let in_worker = std::thread::current()
            .name()
            .is_some_and(|n| n.starts_with("sup-worker-"));
        if !in_worker {
            default_hook(info);
        }
    }));

    let cfg = if ex.quick() {
        Table3Spec::quick()
    } else {
        // Paper-scale Table III: long-lived enough that an external
        // `timeout -s INT` lands mid-simulation (procs must stay a perfect
        // square for the mesh topology).
        Table3Spec::paper()
    };

    let cache = Arc::new(ResultCache::new());
    // One worker: completion order (and which duplicate hits the cache) is
    // deterministic, so the quick golden is byte-stable.
    let sup = Supervisor::new(SupervisorConfig {
        workers: 1,
        queue_cap: 16,
    });

    // The four-outcome smoke batch. `--timeout-s` additionally bounds the
    // pass/cached jobs (the deadline demo keeps its forced 0 s budget).
    let batch_timeout = ex.timeout_s();
    let submissions: Vec<(&str, Option<f64>, Arc<Work>)> = vec![
        (
            "table3",
            batch_timeout,
            table3_work(cfg.clone(), batch_timeout, Arc::clone(&cache)),
        ),
        (
            "table3-cached",
            batch_timeout,
            table3_work(cfg.clone(), batch_timeout, Arc::clone(&cache)),
        ),
        (
            "table3-deadline",
            Some(0.0),
            table3_work(cfg.clone(), Some(0.0), Arc::clone(&cache)),
        ),
        (
            "table3-panic",
            None,
            Arc::new(|_| panic!("forced panic: supervisor smoke")),
        ),
    ];
    for (name, timeout_s, work) in submissions {
        // Backpressure protocol: on QueueFull wait the suggested delay and
        // resubmit (cannot trigger at this batch size, but the loop is the
        // documented producer idiom).
        loop {
            match sup.submit(name, timeout_s, Arc::clone(&work)) {
                Ok(_) => break,
                Err(JobError::QueueFull { retry_after_ms }) => {
                    std::thread::sleep(Duration::from_millis(retry_after_ms));
                }
                Err(e) => return Err(BenchError::run("run_batch", e)),
            }
        }
    }

    // Drain loop: collect one report per submitted job, relaying SIGINT to
    // the pool as a cancel-all so in-flight simulations stop at their next
    // interrupt poll and queued jobs drain unrun.
    let mut reports: Vec<JobReport> = Vec::new();
    let mut interrupted = false;
    while (reports.len() as u64) < sup.submitted() {
        if sig::INTERRUPTED.swap(false, Ordering::AcqRel) {
            interrupted = true;
            eprintln!("run_batch: SIGINT — cancelling batch, draining in-flight jobs...");
            sup.cancel_all();
        }
        if let Some(report) = sup.recv_timeout(Duration::from_millis(50)) {
            eprintln!(
                "run_batch: {} -> {}",
                report.name,
                match &report.result {
                    Ok(s) if s.cached => "cached".to_string(),
                    Ok(_) => "pass".to_string(),
                    Err(e) => e.to_string(),
                }
            );
            reports.push(report);
        }
    }
    reports.extend(sup.shutdown());
    reports.sort_by_key(|r| r.id);

    // Flush per-job result files for fresh passes (cache hits share the
    // pass's file; the direct bins own `results/<name>.json`).
    for r in &reports {
        if let Ok(s) = &r.result {
            if !s.cached {
                bench::write_results_at(&format!("batch/{}.json", r.name), &s.json)?;
            }
        }
    }

    let rows: Vec<BatchRow> = reports.iter().map(row_for).collect();
    let cells: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.job.clone(),
                r.outcome.clone(),
                r.attempts.to_string(),
                r.backoff_ms.to_string(),
                r.fingerprint.clone().unwrap_or_else(|| "-".to_string()),
            ]
        })
        .collect();
    // Cache accounting goes out with the batch's telemetry (visible under
    // `--metrics-out` as the `service.cache.*` counters, same names the
    // psyncd `status` verb reports).
    let cache_reg = sim_core::telemetry::Registry::new();
    cache.record_telemetry(&cache_reg);
    ex.table(
        &format!(
            "Supervised batch: {} jobs, P = {}, N = {} ({} respawned worker(s))",
            rows.len(),
            cfg.procs,
            cfg.row_len,
            sup.respawns(),
        ),
        &["job", "outcome", "attempts", "backoff ms", "fingerprint"],
        &cells,
    )
    .telemetry(cache_reg)
    .rows(&rows)
    .run()?;

    if interrupted {
        // Partial results are flushed; exit with the conventional SIGINT
        // status so wrappers see the interruption.
        std::process::exit(130);
    }
    Ok(())
}
