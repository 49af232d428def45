//! Support library for the `crosscheck_models` conformance oracle: the §V
//! closed forms (Eqs. 11/14/20/21/22, Table I/III, Fig. 11) checked
//! differentially against the cycle-accurate fabrics, with every comparison
//! recorded as a perf-gate-compatible row.
//!
//! Each check produces a [`CheckRow`] whose `(policy, threads)` pair is a
//! unique gate key (`"crosscheck:<check>[<point>]"`), whose `cycles` field
//! is a deterministic integer witness of the measured quantity (so the
//! goldens-freshness and perf-gate byte/equality diffs catch any numeric
//! drift), and whose `cycles_per_s` is the only wall-clock-dependent field
//! (scrubbed from goldens, gated loosely in CI).
//!
//! Tolerances are per-check and documented in DESIGN.md §12:
//!
//! * `TOL_ALGEBRAIC` — the Model II machine and Eq. 11 perform the same
//!   arithmetic on the same inputs in a different association order, so
//!   they may differ only by f64 rounding accumulated over `k` rounds.
//! * [`TOL_CLOSED_FORM`] — two closed-form expressions of the same
//!   quantity (e.g. Fig. 11's ideal curve vs Eq. 11 at the Eq. 19 balance
//!   point) must agree to f64 round-off.
//! * [`TOL_EQ21_MESH`] — Eq. 21 models the mesh scatter as serial
//!   injection plus one route latency; the simulator adds wormhole stalls
//!   and pipelining overlap the closed form ignores. 35 % brackets the
//!   observed gap across block sizes (see `tests/cross_validation.rs`).
//! * [`TOL_LINE_RATE`] — a gap-free SCA must sustain the WDM plan's
//!   nominal line rate; 5 % covers the fencepost slot at burst edges.

use analytic::model::ModelIi;
use analytic::table3::Table3Params;
use emesh::mesh::{MeshConfig, MeshError, RoutingPolicy};
use emesh::topology::{MemifPlacement, Topology};
use emesh::workloads::load_scatter;
use emesh::MeshFaultConfig;
use fft::BlockedFft;
use pscan::bus::BusError;
use pscan::compiler::GatherSpec;
use pscan::network::{Pscan, PscanConfig};
use serde::Serialize;
use sim_core::cancel::Interrupt;

use crate::fidelity::{ValidatedRegion, ValidationEnvelope};

/// Same-arithmetic tolerance: cycle-accurate Model II vs Eq. 11.
pub(crate) const TOL_ALGEBRAIC: f64 = 1e-9;
/// Closed-form-vs-closed-form tolerance (pure f64 round-off).
pub const TOL_CLOSED_FORM: f64 = 1e-12;
/// Eq. 21/22 vs the wormhole mesh simulator.
pub const TOL_EQ21_MESH: f64 = 0.35;
/// Sustained SCA line rate vs the WDM plan's nominal bandwidth.
pub const TOL_LINE_RATE: f64 = 0.05;

/// The validation claims this oracle earns: which closed form tracks which
/// fabric, how tightly, and over exactly which configuration region.
///
/// This is the source of truth behind `ci/validation_envelopes.json` and
/// the fidelity engine's analytic fast path (`crate::fidelity`,
/// DESIGN.md §15). Regions are the unions of the grids the oracle actually
/// sweeps — the `crosscheck_models` bin's quick grid (gated per-PR), its
/// full grid (gated nightly), and the unit/differential tests in this
/// crate — with inclusive bounds, so the validated maxima themselves are
/// answerable analytically and anything beyond them is not. Tolerances are
/// the same constants the oracle gates on; loosening one here without the
/// corresponding oracle change fails the byte-equality machine check.
pub fn envelope_catalog() -> Vec<ValidationEnvelope> {
    let model2_region = ValidatedRegion {
        p_min: 4,
        p_max: 16,
        n_min: 16,
        n_max: 1024,
        fault_rate: 0.0,
        policies: vec!["sca".to_string()],
    };
    vec![
        ValidationEnvelope {
            family: "model2_eq11".to_string(),
            check: "eq11_total_time".to_string(),
            rel_err: TOL_ALGEBRAIC,
            region: model2_region.clone(),
            source: "bench::crosscheck::TOL_ALGEBRAIC (conformance CI job)".to_string(),
        },
        ValidationEnvelope {
            family: "model2_eq14".to_string(),
            check: "eq14_efficiency".to_string(),
            rel_err: TOL_ALGEBRAIC,
            region: model2_region,
            source: "bench::crosscheck::TOL_ALGEBRAIC (conformance CI job)".to_string(),
        },
        ValidationEnvelope {
            family: "mesh_eq21".to_string(),
            check: "eq21_delivery".to_string(),
            rel_err: TOL_EQ21_MESH,
            region: ValidatedRegion {
                p_min: 64,
                p_max: 64,
                n_min: 16,
                n_max: 256,
                fault_rate: 0.0,
                policies: vec!["Xy".to_string()],
            },
            source: "bench::crosscheck::TOL_EQ21_MESH (conformance CI job)".to_string(),
        },
        ValidationEnvelope {
            family: "table3_pscan".to_string(),
            check: "table3_cycles".to_string(),
            rel_err: 0.0,
            region: ValidatedRegion {
                p_min: 32,
                p_max: 1024,
                n_min: 32,
                n_max: 1024,
                fault_rate: 0.0,
                policies: vec!["sca".to_string()],
            },
            source: "bench::crosscheck::check_exact_u64 (conformance CI job)".to_string(),
        },
    ]
}

/// One model-vs-simulator comparison, shaped to double as a perf-gate row:
/// `perf_gate.py` keys on `(policy, threads)`, requires `cycles` equality,
/// and ratio-checks `cycles_per_s`.
#[derive(Debug, Clone, Serialize)]
pub struct CheckRow {
    /// Unique gate key, `"crosscheck:<check>[<point>]"`. The prefix keeps
    /// these rows disjoint from the `perf_mesh` policies in the shared
    /// baseline file.
    pub policy: String,
    /// Always 1: the checks are single-threaded by construction.
    pub threads: usize,
    /// Deterministic integer witness of the measured quantity (simulated
    /// cycles, bus slots, or a fixed-point encoding of a closed form).
    pub cycles: u64,
    /// Witness throughput against wall clock — the only volatile field.
    pub cycles_per_s: f64,
    /// Human-readable operating point (`P`, `N`, `k`, rates…).
    pub point: String,
    /// Fabric-side value.
    pub measured: f64,
    /// Closed-form prediction.
    pub predicted: f64,
    /// `|measured − predicted| / |predicted|` (absolute error when the
    /// prediction is zero).
    pub rel_err: f64,
    /// Tolerance this row was held to.
    pub tol: f64,
    /// `rel_err <= tol`.
    pub pass: bool,
}

/// Build a [`CheckRow`] comparing `measured` against `predicted` within
/// `tol`, with `cycles` as the deterministic witness and `wall_s` the
/// elapsed wall-clock the witness is rated against.
pub fn check(
    name: &str,
    point: &str,
    measured: f64,
    predicted: f64,
    tol: f64,
    cycles: u64,
    wall_s: f64,
) -> CheckRow {
    let rel_err = rel_err(measured, predicted);
    CheckRow {
        policy: format!("crosscheck:{name}[{point}]"),
        threads: 1,
        cycles,
        cycles_per_s: cycles as f64 / wall_s.max(1e-9),
        point: point.to_string(),
        measured,
        predicted,
        rel_err,
        tol,
        pass: rel_err <= tol,
    }
}

/// `|measured − predicted| / |predicted|`, or the absolute error when the
/// prediction is zero.
pub(crate) fn rel_err(measured: f64, predicted: f64) -> f64 {
    if predicted == 0.0 {
        (measured - predicted).abs()
    } else {
        (measured - predicted).abs() / predicted.abs()
    }
}

/// [`check`] for exact integer identities (span counts, slot accounting):
/// tolerance zero, witness = the measured integer.
pub fn check_exact_u64(
    name: &str,
    point: &str,
    measured: u64,
    predicted: u64,
    wall_s: f64,
) -> CheckRow {
    check(
        name,
        point,
        measured as f64,
        predicted as f64,
        0.0,
        measured,
        wall_s,
    )
}

/// Encode a closed-form f64 as a deterministic `cycles` witness:
/// nanosecond-scale fixed point, exactly reproducible across runs since
/// every input is deterministic.
pub fn witness(value_seconds: f64) -> u64 {
    (value_seconds * 1e12).round() as u64
}

/// Failure lines for every non-passing row (empty = full conformance).
pub fn failures(rows: &[CheckRow]) -> Vec<String> {
    rows.iter()
        .filter(|r| !r.pass)
        .map(|r| {
            format!(
                "{}: measured {:.6e} vs predicted {:.6e} (rel err {:.3e} > tol {:.1e})",
                r.policy, r.measured, r.predicted, r.rel_err, r.tol
            )
        })
        .collect()
}

/// The measured Table III SCA writeback: `procs` CPs each drive `row_len`
/// words onto the bus, one word per slot in round-robin order.
#[derive(Debug, Clone, Copy)]
pub struct ScaWriteback {
    /// Picoseconds from the first arrival at the terminus to the end of the
    /// last arrival's slot.
    pub span_ps: u64,
    /// One slot, picoseconds.
    pub slot_ps: u64,
    /// One header slot per DRAM row the burst fills.
    pub header_slots: u64,
    /// Fraction of slots in the span that carried data.
    pub utilization: f64,
    /// Data bits modulated onto the bus.
    pub bits: u64,
}

impl ScaWriteback {
    /// Slots the burst spans at the terminus.
    pub fn span_slots(&self) -> u64 {
        self.span_ps / self.slot_ps
    }
}

/// Run the Table III SCA gather on a paper-default PSCAN of `procs` nodes.
pub fn sca_writeback(procs: usize, row_len: usize) -> Result<ScaWriteback, BusError> {
    let pscan = Pscan::new(PscanConfig::paper_default().with_nodes(procs));
    let spec = GatherSpec {
        slot_source: (0..procs * row_len).map(|k| k % procs).collect(),
    };
    let data: Vec<Vec<u64>> = (0..procs).map(|p| vec![p as u64; row_len]).collect();
    let out = pscan.gather(&spec, &data)?;
    let slot_ps = pscan.slot().as_ps();
    let t3 = Table3Params {
        n: row_len as u64,
        p: procs as u64,
        ..Default::default()
    };
    Ok(ScaWriteback {
        span_ps: out.last_arrival.since(out.first_arrival).as_ps() + slot_ps,
        slot_ps,
        header_slots: ((procs * row_len) as u64).div_ceil(t3.s_r / t3.s_b),
        utilization: out.utilization,
        bits: out.bits,
    })
}

/// Run the Eq. 21 scatter: the corner memory interface of a square
/// `nodes`-router mesh sends one `block`-word block to every other node.
/// Returns the completion cycles.
pub fn eq21_scatter_cycles(
    nodes: usize,
    block: usize,
    policy: RoutingPolicy,
    faults: Option<MeshFaultConfig>,
    interrupt: Option<&Interrupt>,
) -> Result<u64, MeshError> {
    let cfg = MeshConfig::paper_default()
        .with_topology(Topology::square(nodes, MemifPlacement::SingleCorner))
        .with_policy(policy)
        .with_max_cycles(1 << 30);
    let mut mesh = load_scatter(cfg, block, 1);
    if let Some(faults) = faults {
        mesh.enable_faults(faults);
    }
    if let Some(intr) = interrupt {
        mesh.set_interrupt(intr.clone());
    }
    Ok(mesh.run()?.cycles)
}

/// The Eq. 11/14 prediction for a [`psync::run_model2_rows`] execution.
///
/// `run_model2_rows` reports the overlapped (Model II) and serialized
/// (Model I) wall clocks of the same machine run. The serialized time
/// decomposes exactly as `comm_end + k·t_ck + t_cf` with
/// `comm_end = k · round_secs`, so the per-block delivery time Eq. 11
/// wants, `t_dk = round_secs / P`, is recoverable from the serialized
/// measurement alone — no second simulation needed. The returned
/// prediction is then `ModelIi::total_time() + t_cf` (Eq. 11 covers the
/// `k` overlapped blocks; the final combine `t_cf` is serial in both
/// models) and Eq. 14's efficiency with `t_c = k·t_ck + t_cf`.
pub struct Model2Prediction {
    /// Predicted overlapped wall-clock, seconds (Eq. 11 + `t_cf`).
    pub overlapped_seconds: f64,
    /// Predicted compute efficiency (Eq. 14).
    pub efficiency: f64,
    /// Whether Eq. 15's compute-bound case applies at this point.
    pub compute_bound: bool,
}

/// Predict the Model II overlapped time/efficiency from the serialized
/// measurement — see [`Model2Prediction`].
pub fn predict_model2(
    procs: usize,
    n: usize,
    k: usize,
    serialized_seconds: f64,
) -> Model2Prediction {
    let bf = BlockedFft::new(n, k);
    let mult_s = psync::machine::MachineConfig::paper_default(procs, procs * n)
        .exec
        .mult_ns
        * 1e-9;
    let t_ck = bf.multiplies_per_block() as f64 * mult_s;
    let t_cf = bf.multiplies_final() as f64 * mult_s;
    let round_secs = (serialized_seconds - k as f64 * t_ck - t_cf) / k as f64;
    let model = ModelIi {
        p: procs as u64,
        t_dk: round_secs / procs as f64,
        t_ck,
        k: k as u64,
    };
    let total = model.total_time() + t_cf;
    Model2Prediction {
        overlapped_seconds: total,
        efficiency: (k as f64 * t_ck + t_cf) / total,
        compute_bound: model.is_compute_bound(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn passing_and_failing_rows() {
        let ok = check("eq", "p=1", 1.0005, 1.0, 1e-3, 42, 1.0);
        assert!(ok.pass);
        assert_eq!(ok.policy, "crosscheck:eq[p=1]");
        assert_eq!(ok.cycles, 42);
        let bad = check("eq", "p=2", 2.0, 1.0, 1e-3, 1, 1.0);
        assert!(!bad.pass);
        assert_eq!(failures(&[ok, bad]).len(), 1);
    }

    #[test]
    fn zero_prediction_uses_absolute_error() {
        let r = check("z", "p", 1e-15, 0.0, 1e-12, 0, 1.0);
        assert!(r.pass);
        assert_eq!(r.rel_err, 1e-15);
    }

    #[test]
    fn exact_rows_have_zero_tolerance() {
        assert!(check_exact_u64("n", "p", 7, 7, 1.0).pass);
        assert!(!check_exact_u64("n", "p", 7, 8, 1.0).pass);
    }

    #[test]
    fn witness_is_deterministic_fixed_point() {
        assert_eq!(witness(1.5e-3), 1_500_000_000);
        assert_eq!(witness(0.0), 0);
    }

    #[test]
    fn model2_prediction_matches_machine_exactly() {
        // The machine's overlapped clock and Eq. 11 are the same arithmetic:
        // the prediction recovered from the serialized measurement must land
        // within f64 round-off.
        let (procs, n, k) = (4usize, 64usize, 4usize);
        let rows = crate::jobs::crosscheck_signal_rows(procs, n);
        let run = psync::run_model2_rows(procs, n, k, &rows);
        let pred = predict_model2(procs, n, k, run.serialized_seconds);
        let rel =
            (run.overlapped_seconds - pred.overlapped_seconds).abs() / pred.overlapped_seconds;
        assert!(rel < TOL_ALGEBRAIC, "rel err {rel}");
        let eff_rel = (run.efficiency - pred.efficiency).abs() / pred.efficiency;
        assert!(eff_rel < TOL_ALGEBRAIC, "efficiency rel err {eff_rel}");
    }
}
