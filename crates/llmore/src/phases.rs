//! Per-phase timing models for the §VI 2-D FFT flow.
//!
//! The five phases are: deliver, row FFTs, reorganize (transpose),
//! column FFTs, writeback. Delivery, compute and writeback are common to
//! both architectures (Model I, equalized bandwidth). The *reorganization*
//! phase is where they diverge:
//!
//! * **Mesh (block-wise transpose)**: every element crosses a memory port
//!   twice (read + write). Transactions shrink as cores grow — a core's
//!   tile row is `N/√P` elements — so the per-transaction header/routing
//!   overhead `√P·t_r` eats an ever-larger share, exactly the Eq. (22)
//!   delivery-efficiency form; and the reorder staging costs `t_p` per
//!   element at the port. This is what makes the mesh's reorganization
//!   fraction grow with core count (Fig. 14) and its GFLOPS peak and fall
//!   (Fig. 13).
//! * **P-sync (SCA)**: one gather writes the transposed stream at full
//!   line rate (utilization 1.0, §III), one scatter reloads it; the only
//!   overheads are the per-DRAM-row header (33/32) and a single optical
//!   flight. Constant in P.

use serde::Serialize;

use crate::arch::{ArchKind, SystemParams};

/// Wall-clock seconds per phase.
#[derive(Debug, Clone, Copy, Default, Serialize)]
pub struct PhaseBreakdown {
    /// Initial Model-I delivery of the matrix to the cores.
    pub deliver: f64,
    /// Row-FFT compute.
    pub row_fft: f64,
    /// Transpose / data reorganization between the FFT passes.
    pub reorg: f64,
    /// Column-FFT compute.
    pub col_fft: f64,
    /// Final result writeback.
    pub writeback: f64,
}

impl PhaseBreakdown {
    /// Total runtime.
    pub fn total(&self) -> f64 {
        self.deliver + self.row_fft + self.reorg + self.col_fft + self.writeback
    }

    /// Fraction of the runtime spent reorganizing data (Fig. 14's y-axis).
    pub fn reorg_fraction(&self) -> f64 {
        self.reorg / self.total()
    }
}

/// Delivery-efficiency factor for transactions of `beats` payload beats
/// against a fixed per-transaction latency of `lat` cycles — Eq. (22).
fn eta_d(beats: f64, lat: f64) -> f64 {
    beats / (beats + lat)
}

/// Time for the initial Model-I delivery (or final writeback) of the whole
/// matrix through the memory ports.
pub fn stream_phase_secs(kind: ArchKind, params: &SystemParams, p: u64) -> f64 {
    let base = params.matrix_stream_secs();
    match kind {
        ArchKind::Ideal => base,
        ArchKind::Psync => {
            // Pre-scheduled SCA⁻¹: full line rate; one flight latency.
            base + 10e-9
        }
        ArchKind::ElectronicMesh => {
            // Each core's share arrives as one wormhole transfer; the
            // header pays √P·t_r route cycles (Eq. 21/22). Per-core beats:
            let beats = (params.n * params.n / p) as f64; // 64-bit flits
            let lat = (p as f64).sqrt() * params.t_r as f64;
            base / eta_d(beats, lat)
        }
    }
}

/// Time for the reorganization (transpose) phase.
pub fn reorg_phase_secs(kind: ArchKind, params: &SystemParams, p: u64) -> f64 {
    // Everyone moves the matrix out and back in: 2 passes of payload.
    let two_pass = 2.0 * params.matrix_stream_secs();
    match kind {
        ArchKind::Ideal => two_pass,
        ArchKind::Psync => {
            // SCA gather + SCA⁻¹ scatter at full utilization; per-DRAM-row
            // header amortization (t_t = 33 cycles per 32-beat row,
            // Table III) plus one optical flight each way.
            two_pass * (33.0 / 32.0) + 20e-9
        }
        ArchKind::ElectronicMesh => {
            // Block-wise transpose: a core's transaction is one tile row of
            // N/√P elements; per-transaction overhead is the √P·t_r header
            // walk to the hotspot port (Eq. 22 shape), and the port's
            // reorder staging costs (2 + t_p)/2 relative to pure streaming
            // of the 2-flit element packets (§V-C-2).
            let sqrt_p = (p as f64).sqrt();
            let tx_beats = (params.n as f64 / sqrt_p).max(1.0);
            let header_walk = sqrt_p * params.t_r as f64;
            let staging = (2.0 + params.t_p as f64) / 2.0;
            two_pass * staging / eta_d(tx_beats, header_walk)
        }
    }
}

/// Delivery model (§V-A): Model I serializes delivery before compute;
/// Model II overlaps them with k-way blocking (Fig. 9).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum DeliveryModel {
    /// All data before compute (Fig. 8) — what the paper's §VI runs used.
    ModelI,
    /// k-way blocked, overlapped delivery (Fig. 9).
    ModelII {
        /// Blocks per delivery.
        k: u64,
    },
}

/// Compute one full phase set under Model I.
pub fn phase_breakdown(kind: ArchKind, params: &SystemParams, p: u64) -> PhaseBreakdown {
    phase_breakdown_with(kind, params, p, DeliveryModel::ModelI)
}

/// Compute one full phase set under either delivery model.
///
/// Under Model II a delivery phase and its following compute phase overlap:
/// the pair costs `max(t_d, t_c) + min(t_d, t_c)/k` (the un-overlapped
/// first/last block), which reduces to `t_d + t_c` at k = 1. We fold the
/// saving into the compute entries so the reorg fraction stays comparable.
pub fn phase_breakdown_with(
    kind: ArchKind,
    params: &SystemParams,
    p: u64,
    model: DeliveryModel,
) -> PhaseBreakdown {
    let pass = params.pass_compute_secs(p);
    let deliver = stream_phase_secs(kind, params, p);
    let reorg = reorg_phase_secs(kind, params, p);
    match model {
        DeliveryModel::ModelI => PhaseBreakdown {
            deliver,
            row_fft: pass,
            reorg,
            col_fft: pass,
            writeback: deliver,
        },
        DeliveryModel::ModelII { k } => {
            assert!(k >= 1);
            let overlap = |d: f64, c: f64| d.max(c) + d.min(c) / k as f64;
            // deliver+row overlap; the reorg's redelivery half overlaps the
            // column pass the same way.
            let d_and_row = overlap(deliver, pass);
            let redeliver = reorg / 2.0;
            let r_and_col = overlap(redeliver, pass);
            PhaseBreakdown {
                deliver: 0.0,
                row_fft: d_and_row,
                reorg: reorg - redeliver,
                col_fft: r_and_col,
                writeback: deliver,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn psync_reorg_is_constant_in_p() {
        let s = SystemParams::default();
        let a = reorg_phase_secs(ArchKind::Psync, &s, 16);
        let b = reorg_phase_secs(ArchKind::Psync, &s, 4096);
        assert!((a - b).abs() < 1e-12);
    }

    #[test]
    fn mesh_reorg_grows_with_p() {
        let s = SystemParams::default();
        let mut last = 0.0;
        for p in [16u64, 64, 256, 1024, 4096] {
            let t = reorg_phase_secs(ArchKind::ElectronicMesh, &s, p);
            assert!(t > last, "P = {p}");
            last = t;
        }
    }

    #[test]
    fn mesh_to_psync_reorg_ratio_band() {
        // The Table III / Fig. 13 story: mesh reorganization lands roughly
        // 2–10× slower than the SCA for P > 256.
        let s = SystemParams::default();
        for (p, lo, hi) in [(1024u64, 2.0, 6.0), (4096, 3.0, 12.0)] {
            let mesh = reorg_phase_secs(ArchKind::ElectronicMesh, &s, p);
            let psync = reorg_phase_secs(ArchKind::Psync, &s, p);
            let ratio = mesh / psync;
            assert!((lo..hi).contains(&ratio), "P = {p}: ratio {ratio}");
        }
    }

    #[test]
    fn ideal_is_a_lower_bound() {
        let s = SystemParams::default();
        for p in [4u64, 64, 1024, 4096] {
            let ideal = phase_breakdown(ArchKind::Ideal, &s, p).total();
            let psync = phase_breakdown(ArchKind::Psync, &s, p).total();
            let mesh = phase_breakdown(ArchKind::ElectronicMesh, &s, p).total();
            assert!(ideal <= psync && psync <= mesh, "P = {p}");
        }
    }

    #[test]
    fn model2_never_slower_than_model1() {
        let s = SystemParams::default();
        for kind in [ArchKind::Psync, ArchKind::ElectronicMesh, ArchKind::Ideal] {
            for p in [16u64, 256, 4096] {
                let m1 = phase_breakdown_with(kind, &s, p, DeliveryModel::ModelI).total();
                let m2 = phase_breakdown_with(kind, &s, p, DeliveryModel::ModelII { k: 8 }).total();
                assert!(m2 <= m1 + 1e-15, "{kind:?} P={p}: {m2} > {m1}");
            }
        }
    }

    #[test]
    fn model2_k1_equals_model1() {
        let s = SystemParams::default();
        let m1 = phase_breakdown_with(ArchKind::Psync, &s, 256, DeliveryModel::ModelI).total();
        let m2 =
            phase_breakdown_with(ArchKind::Psync, &s, 256, DeliveryModel::ModelII { k: 1 }).total();
        assert!((m1 - m2).abs() < 1e-15);
    }

    #[test]
    fn model2_gain_largest_near_balance() {
        // Overlap saves most when delivery and compute are comparable —
        // P ≈ 256 is where Fig. 13 bends, so the gain should peak there
        // rather than at either extreme.
        let s = SystemParams::default();
        let gain = |p: u64| {
            let m1 = phase_breakdown_with(ArchKind::Psync, &s, p, DeliveryModel::ModelI).total();
            let m2 = phase_breakdown_with(ArchKind::Psync, &s, p, DeliveryModel::ModelII { k: 16 })
                .total();
            (m1 - m2) / m1
        };
        assert!(gain(256) > gain(4u64));
        assert!(gain(256) > 0.05);
    }

    #[test]
    fn reorg_fraction_sums() {
        let b = PhaseBreakdown {
            deliver: 1.0,
            row_fft: 2.0,
            reorg: 3.0,
            col_fft: 2.0,
            writeback: 2.0,
        };
        assert!((b.total() - 10.0).abs() < 1e-12);
        assert!((b.reorg_fraction() - 0.3).abs() < 1e-12);
    }
}
