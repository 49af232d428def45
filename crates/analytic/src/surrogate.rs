//! Closed-form surrogates for the cycle-accurate fabrics — the analytic
//! fast path of the multi-fidelity sweep engine.
//!
//! Each function here reproduces, from the paper's §V closed forms alone,
//! the exact quantity one of the simulators measures:
//!
//! * [`model2_point`] — the overlapped/serialized wall clocks and Eq. 14
//!   efficiency of `psync::run_model2_rows`, rebuilt from Eq. 11 with the
//!   machine's own slot/header/multiply timing ([`Model2TimingParams`]).
//! * [`mesh_scatter_cycles`] — Eq. 21's delivery cycles for the corner
//!   scatter workload `emesh::workloads::load_scatter` measures, in the
//!   same integer arithmetic as `eq21_delivery_cycles`.
//! * [`table3_writeback_cycles`] — the Table III PSCAN writeback
//!   (Eqs. 23/24), identical to the slot span the SCA gather produces.
//!
//! The conformance oracle (`bench::crosscheck`, DESIGN.md §12) bounds how
//! far each surrogate can sit from its simulator; the fidelity engine
//! (`bench::fidelity`, DESIGN.md §15) only answers a sweep point from here
//! when the point lies inside a validated region, and attaches that
//! envelope to the result as an error bar.

use serde::Serialize;

use crate::model::ModelIi;
use crate::table3::Table3Params;

/// Machine timing the Model II surrogate needs: the paper-default P-sync
/// machine reduced to three numbers.
#[derive(Debug, Clone, Copy, Serialize)]
pub struct Model2TimingParams {
    /// Nanoseconds per floating-point multiply (paper: 2 ns).
    pub mult_ns: f64,
    /// Bus slot period in seconds (64 λ × 5 Gb/s plan: one 64-bit word
    /// every 200 ps).
    pub slot_secs: f64,
    /// DRAM row size in 64-bit words (`S_r / S_s` = 2048 / 64 = 32): one
    /// header slot is charged per row of payload.
    pub row_words: u64,
}

impl Default for Model2TimingParams {
    /// The timing of `psync::machine::MachineConfig::paper_default`.
    fn default() -> Self {
        Model2TimingParams {
            mult_ns: 2.0,
            slot_secs: 200e-12,
            row_words: 32,
        }
    }
}

/// One Model II operating point answered in closed form.
#[derive(Debug, Clone, Copy, Serialize)]
pub struct Model2Point {
    /// Eq. 11 total time plus the serial final combine, seconds.
    pub overlapped_seconds: f64,
    /// The Model I serialization of the same work, seconds.
    pub serialized_seconds: f64,
    /// Eq. 14 efficiency with `t_c = k·t_ck + t_cf`.
    pub efficiency: f64,
}

/// Evaluate the Model II machine's timing at (`procs`, `n`, `k`) from
/// Eq. 11 alone.
///
/// The machine delivers each round as `procs·(n/k)` payload slots plus one
/// header slot per DRAM row, so the per-block delivery time Eq. 11 wants is
/// `t_dk = round_secs / P`; its overlapped clock folds exactly as
/// `P·t_dk + (k−1)·max(t_ck, P·t_dk) + t_ck` plus the serial `t_cf`
/// (the identity `bench::crosscheck::predict_model2` recovers from the
/// serialized measurement — here both sides come from the closed form).
///
/// # Panics
/// Panics if `k` is zero, does not divide `n`, or `procs` is zero — the
/// same preconditions `psync::run_model2_rows` imposes.
pub fn model2_point(procs: u64, n: u64, k: u64, params: &Model2TimingParams) -> Model2Point {
    assert!(procs >= 1, "model2_point: procs must be >= 1");
    assert!(
        k >= 1 && n.is_multiple_of(k),
        "model2_point: k must divide n (n = {n}, k = {k})"
    );
    let payload = procs * (n / k);
    let round_secs = (payload + payload.div_ceil(params.row_words)) as f64 * params.slot_secs;
    let t_ck = fft::ops::multiplies_per_block(n, k) as f64 * params.mult_ns * 1e-9;
    let t_cf = fft::ops::multiplies_final(n, k) as f64 * params.mult_ns * 1e-9;
    let model = ModelIi {
        p: procs,
        t_dk: round_secs / procs as f64,
        t_ck,
        k,
    };
    let overlapped = model.total_time() + t_cf;
    let compute_total = k as f64 * t_ck + t_cf;
    Model2Point {
        overlapped_seconds: overlapped,
        serialized_seconds: k as f64 * round_secs + compute_total,
        efficiency: compute_total / overlapped,
    }
}

/// Eq. 21 delivery cycles for the corner-scatter workload: `nodes − 1`
/// receivers of `block_words + 1` flits each (payload plus one header),
/// `P·F + P·⌊√P⌋·t_r` — the same truncating integer form as
/// `emesh::workloads::eq21_delivery_cycles`, so the two can be compared
/// exactly.
///
/// # Panics
/// Panics if `nodes < 2` (a scatter needs at least one receiver), or if
/// `nodes` is not a perfect square — the truncated `⌊√P⌋` is only the mean
/// corner distance on a square mesh; rectangular and torus geometries go
/// through [`mesh_scatter_cycles_dims`].
pub fn mesh_scatter_cycles(nodes: u64, block_words: u64, t_r: u64) -> u64 {
    assert!(nodes >= 2, "mesh_scatter_cycles: nodes must be >= 2");
    assert!(
        nodes.isqrt().pow(2) == nodes,
        "mesh_scatter_cycles: nodes must be a perfect square, got {nodes}; \
         use mesh_scatter_cycles_dims for rectangular or torus geometries"
    );
    let p = nodes - 1;
    let f = block_words + 1;
    p * f + p * p.isqrt() * t_r
}

/// Eq. 21 delivery cycles generalized to a `width × height` rectangle (or
/// torus): `P·F + P·H̄·t_r` with `P = width·height − 1` receivers,
/// `F = block_words + 1` flits, and `H̄` the truncating mean hop distance
/// from the corner memory interface — per-dimension distance sums
/// `w(w−1)/2` (mesh) or `⌊w²/4⌋` (torus). Matches
/// `emesh::workloads::eq21_delivery_cycles_dims` exactly, and
/// [`mesh_scatter_cycles`] on square meshes.
pub fn mesh_scatter_cycles_dims(
    width: u64,
    height: u64,
    block_words: u64,
    t_r: u64,
    torus: bool,
) -> u64 {
    assert!(
        width >= 1 && height >= 1 && width * height >= 2,
        "mesh_scatter_cycles_dims: need at least one receiver, got {width}x{height}"
    );
    let dim_sum = |w: u64| if torus { w * w / 4 } else { w * (w - 1) / 2 };
    let mean_hops = (dim_sum(width) * height + dim_sum(height) * width) / (width * height);
    let p = width * height - 1;
    let f = block_words + 1;
    p * f + p * mean_hops * t_r
}

/// Table III PSCAN writeback cycles (Eqs. 23/24) for a `p × n` transpose
/// of 64-bit samples at the paper's bus/row/header widths.
///
/// # Panics
/// Panics unless the sample volume divides into whole DRAM rows
/// (`p·n·64` a multiple of 2048, i.e. `p·n` a multiple of 32) — partial
/// rows are outside Eq. 23's arithmetic and outside the validated region.
pub fn table3_writeback_cycles(p: u64, n: u64) -> u64 {
    let params = Table3Params {
        n,
        p,
        ..Default::default()
    };
    assert!(
        (n * params.s_s * p).is_multiple_of(params.s_r),
        "table3_writeback_cycles: p·n must fill whole DRAM rows (p = {p}, n = {n})"
    );
    params.pscan_cycles()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn close(a: f64, b: f64, tol: f64) {
        assert!((a - b).abs() <= tol * b.abs().max(1e-300), "{a} vs {b}");
    }

    #[test]
    fn model2_matches_hand_rolled_eq11() {
        // P = 4, N = 64, k = 4: payload = 64 slots + 2 header slots,
        // round = 66 × 200 ps = 13.2 ns.
        let params = Model2TimingParams::default();
        let pt = model2_point(4, 64, 4, &params);
        let round = 66.0 * 200e-12;
        let t_ck = fft::ops::multiplies_per_block(64, 4) as f64 * 2e-9;
        let t_cf = fft::ops::multiplies_final(64, 4) as f64 * 2e-9;
        let expect = round + 3.0 * t_ck.max(round) + t_ck + t_cf;
        close(pt.overlapped_seconds, expect, 1e-12);
        close(
            pt.serialized_seconds,
            4.0 * round + 4.0 * t_ck + t_cf,
            1e-12,
        );
        close(pt.efficiency, (4.0 * t_ck + t_cf) / expect, 1e-12);
    }

    #[test]
    fn model2_k1_has_nothing_to_overlap() {
        let pt = model2_point(8, 256, 1, &Model2TimingParams::default());
        close(pt.overlapped_seconds, pt.serialized_seconds, 1e-12);
    }

    #[test]
    fn model2_overlap_beats_serialization() {
        let pt = model2_point(8, 256, 8, &Model2TimingParams::default());
        assert!(pt.overlapped_seconds < pt.serialized_seconds);
        assert!(pt.efficiency > 0.0 && pt.efficiency <= 1.0);
    }

    #[test]
    #[should_panic(expected = "k must divide n")]
    fn model2_rejects_indivisible_k() {
        model2_point(4, 64, 3, &Model2TimingParams::default());
    }

    #[test]
    fn mesh_scatter_matches_eq21_integer_form() {
        // 64 nodes minus the memory corner: P = 63, ⌊√63⌋ = 7.
        assert_eq!(mesh_scatter_cycles(64, 16, 1), 63 * 17 + 63 * 7);
        // Perfect-square receiver count: P = 255, ⌊√255⌋ = 15.
        assert_eq!(mesh_scatter_cycles(256, 1024, 1), 255 * 1025 + 255 * 15);
        // t_r scales only the routing term.
        assert_eq!(
            mesh_scatter_cycles(64, 16, 4) - mesh_scatter_cycles(64, 16, 0),
            63 * 7 * 4
        );
    }

    #[test]
    #[should_panic(expected = "perfect square")]
    fn mesh_scatter_rejects_non_square_node_counts() {
        mesh_scatter_cycles(48, 16, 1);
    }

    #[test]
    fn mesh_scatter_dims_agrees_with_square_form() {
        assert_eq!(
            mesh_scatter_cycles_dims(8, 8, 16, 1, false),
            mesh_scatter_cycles(64, 16, 1)
        );
        assert_eq!(
            mesh_scatter_cycles_dims(16, 16, 1024, 1, false),
            mesh_scatter_cycles(256, 1024, 1)
        );
        // Rectangle: 8×4, dim sums 28 and 6, H̄ = (28·4 + 6·8)/32 = 5.
        assert_eq!(
            mesh_scatter_cycles_dims(8, 4, 16, 1, false),
            31 * 17 + 31 * 5
        );
        // Torus wrap halves the mean: 8×8 torus H̄ = 4.
        assert_eq!(
            mesh_scatter_cycles_dims(8, 8, 16, 1, true),
            63 * 17 + 63 * 4
        );
    }

    #[test]
    fn table3_matches_paper_arithmetic() {
        assert_eq!(table3_writeback_cycles(1024, 1024), 1_081_344);
        // 32 × 32 = 1024 samples = 32 DRAM rows of 32 words, 33 cycles each.
        assert_eq!(table3_writeback_cycles(32, 32), 32 * 33);
    }

    #[test]
    #[should_panic(expected = "whole DRAM rows")]
    fn table3_rejects_partial_rows() {
        table3_writeback_cycles(3, 5);
    }
}
