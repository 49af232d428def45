//! Multi-fidelity sweep: the complete 21-row ablation matrix, answered
//! per-row at the cheapest validated fidelity (DESIGN.md §15).
//!
//! Each row's operating point is looked up in the machine-checked
//! validation registry (`ci/validation_envelopes.json`, regenerated from
//! `bench::crosscheck::envelope_catalog` with `--write-envelopes`). Under
//! the default `auto` policy a row inside a validated region is answered
//! from the closed form with the conformance envelope attached as its
//! error bar; rows outside every region — unvalidated geometry, an
//! unvalidated routing policy, a nonzero fault rate — fall back to the
//! cycle-accurate fabric. The matrix composition guarantees at least one
//! fallback on every run, so the slow path can never silently rot.
//!
//! With the reference pass enabled (the default at `--quick` scale), every
//! analytic answer is re-measured on its fabric and the harness asserts:
//!
//! * each analytic row lands inside its validated envelope, and
//! * the fast path is ≥ 100× cheaper than the simulation it displaced.
//!
//! ```text
//! cargo run --release -p bench --bin full_matrix -- --quick
//! cargo run --release -p bench --bin full_matrix -- --fidelity cycle_accurate
//! cargo run --release -p bench --bin full_matrix -- --write-envelopes
//! ```

use bench::fidelity::{ValidationRegistry, REGISTRY_RELATIVE_PATH};
use bench::jobs::{run_full_matrix, FullMatrixResult, FullMatrixSpec, FullMatrixTiming};
use bench::{f, BenchError, Experiment};
use serde::Serialize;

/// Bin-specific flags plus the shared harness surface.
const USAGE: &str = "usage: full_matrix [--quick] [--fidelity <policy>] \
                     [--reference|--no-reference] [--write-envelopes] \
                     [--no-json] [--trace-out <path>] \
                     [--metrics-out <path>] [--timeout-s <secs>]";

/// The floor the fast path must clear against the simulation it displaced.
const MIN_FASTPATH_SPEEDUP: f64 = 100.0;

/// Wall-clock accounting, serialized beside the matrix rows. Field names
/// carry the `wall`/`speedup` markers `scripts/goldens_freshness.py`
/// scrubs, so goldens stay machine-independent.
#[derive(Debug, Clone, Serialize)]
struct TimingReport {
    selected_wall_s: f64,
    analytic_wall_s: f64,
    reference_wall_s: f64,
    reference_analytic_wall_s: f64,
    fastpath_speedup: f64,
    matrix_speedup: f64,
}

/// The full result document: the deterministic matrix plus the timing.
#[derive(Debug, Clone, Serialize)]
struct MatrixReport {
    matrix: FullMatrixResult,
    timing: TimingReport,
}

/// Write the builtin registry to `ci/validation_envelopes.json` (workspace
/// root, found the same way the committed copy is read).
fn write_envelopes() -> Result<(), BenchError> {
    let path = if std::path::Path::new("ci").is_dir() {
        REGISTRY_RELATIVE_PATH.to_string()
    } else {
        format!(
            "{}/../../{REGISTRY_RELATIVE_PATH}",
            env!("CARGO_MANIFEST_DIR")
        )
    };
    std::fs::write(&path, ValidationRegistry::builtin().to_json_pretty()).map_err(|source| {
        BenchError::Io {
            path: path.clone().into(),
            source,
        }
    })?;
    eprintln!("wrote {path}");
    Ok(())
}

fn timing_report(timing: &FullMatrixTiming, result: &FullMatrixResult) -> TimingReport {
    // Guard the ratios: a pass that ran nothing (or a clock too coarse to
    // see it) must not divide by zero.
    let ratio = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
    TimingReport {
        selected_wall_s: timing.selected_wall_s,
        analytic_wall_s: timing.analytic_wall_s,
        reference_wall_s: timing.reference_wall_s,
        reference_analytic_wall_s: timing.reference_analytic_wall_s,
        fastpath_speedup: if result.reference {
            ratio(timing.reference_analytic_wall_s, timing.analytic_wall_s)
        } else {
            0.0
        },
        matrix_speedup: if result.reference {
            ratio(timing.reference_wall_s, timing.selected_wall_s)
        } else {
            0.0
        },
    }
}

fn main() -> Result<(), BenchError> {
    // Bin-specific flags are peeled off before the shared harness parse.
    let mut reference: Option<bool> = None;
    let mut envelopes_only = false;
    let mut rest = Vec::new();
    for a in std::env::args().skip(1) {
        match a.as_str() {
            "--reference" => reference = Some(true),
            "--no-reference" => reference = Some(false),
            "--write-envelopes" => envelopes_only = true,
            _ => rest.push(a),
        }
    }
    let ex = Experiment::with_args("full_matrix", rest).unwrap_or_else(|e| {
        eprintln!("error: {e}");
        eprintln!("{USAGE}");
        std::process::exit(2);
    });

    if envelopes_only {
        return write_envelopes();
    }

    // The committed registry must match the envelope catalog compiled into
    // this binary — the same byte-for-byte check the library tests make.
    match ValidationRegistry::load_committed() {
        Ok(_) => {}
        Err(e) => {
            eprintln!(
                "error: committed validation registry unreadable ({e}); \
                 regenerate with `cargo run -p bench --bin full_matrix -- --write-envelopes`"
            );
            std::process::exit(1);
        }
    }

    let quick = ex.quick();
    let spec = FullMatrixSpec {
        scale: if quick { "quick" } else { "paper" }.to_string(),
        fidelity: ex.fidelity().wire(),
        // Reference defaults: measured per-PR at quick scale, opt-in at
        // paper scale (the reference is the expensive part by design).
        reference: reference.unwrap_or(quick),
    };
    let interrupt = ex.interrupt();
    let (result, timing) = run_full_matrix(&spec, interrupt.as_ref(), Some(ex.registry()))
        .map_err(|e| BenchError::run("full_matrix", e))?;
    let timing = timing_report(&timing, &result);

    // The matrix's own guarantee: rows 19–21 sit outside every validated
    // region, so any registry-consulting policy exercises the fallback.
    if spec.fidelity != "cycle_accurate" {
        assert!(
            result.cycle_accurate_rows >= 1,
            "no cycle-accurate fallback row — the registry accepted every \
             point, so the fallback path went unexercised"
        );
    }
    if result.reference {
        let misses: Vec<String> = result
            .rows
            .iter()
            .filter(|r| r.within_envelope == Some(false))
            .map(|r| {
                format!(
                    "row {} {} [{}]: rel err {:.3e} exceeds envelope {:.0e}",
                    r.id,
                    r.family,
                    r.point,
                    r.reference_rel_err.unwrap_or(f64::NAN),
                    r.envelope_rel_err.unwrap_or(f64::NAN),
                )
            })
            .collect();
        assert!(
            misses.is_empty(),
            "analytic fast path diverged from the cycle-accurate reference:\n  {}",
            misses.join("\n  ")
        );
        if result.analytic_rows > 0 {
            assert!(
                timing.fastpath_speedup >= MIN_FASTPATH_SPEEDUP,
                "fast path too slow: {:.1}x < {MIN_FASTPATH_SPEEDUP}x \
                 (analytic {:.3e}s vs displaced simulation {:.3e}s)",
                timing.fastpath_speedup,
                timing.analytic_wall_s,
                timing.reference_analytic_wall_s,
            );
        }
    }

    let table: Vec<Vec<String>> = result
        .rows
        .iter()
        .map(|r| {
            vec![
                r.id.to_string(),
                format!("{} [{}]", r.family, r.point),
                r.fidelity.clone(),
                format!("{:.6e}", r.value),
                r.unit.clone(),
                r.envelope_rel_err
                    .map(|e| format!("{e:.0e}"))
                    .unwrap_or_else(|| "-".to_string()),
                r.reference_rel_err
                    .map(|e| format!("{e:.1e}"))
                    .unwrap_or_else(|| "-".to_string()),
            ]
        })
        .collect();

    let mut notes = vec![format!(
        "{} rows: {} analytic, {} cycle-accurate (policy {})",
        result.rows.len(),
        result.analytic_rows,
        result.cycle_accurate_rows,
        spec.fidelity,
    )];
    if result.reference {
        notes.push(format!(
            "reference pass: every analytic row in-envelope; fast path {}x \
             vs displaced simulation, matrix {}x end-to-end",
            f(timing.fastpath_speedup, 0),
            f(timing.matrix_speedup, 0),
        ));
    }
    let report = MatrixReport {
        matrix: result,
        timing,
    };
    let mut ex = ex.table(
        "Full-scale matrix (multi-fidelity, validated analytic fast path)",
        &[
            "row", "point", "fidelity", "value", "unit", "envelope", "ref err",
        ],
        &table,
    );
    for n in notes {
        ex = ex.note(n);
    }
    ex.rows(&report).run()
}
