//! Core-count sweeps for Figs. 13 and 14.

use rayon::prelude::*;
use serde::Serialize;

use crate::arch::{ArchKind, SystemParams};
use crate::sim::simulate_fft2d;

/// One x-position of the Fig. 13 / Fig. 14 plots.
#[derive(Debug, Clone, Copy, Serialize)]
pub struct SweepPoint {
    /// Core count (x-axis; paper sweeps 4 → 4096).
    pub cores: u64,
    /// Ideal GFLOPS (red curve).
    pub ideal_gflops: f64,
    /// P-sync GFLOPS (green curve).
    pub psync_gflops: f64,
    /// Mesh GFLOPS (blue curve).
    pub mesh_gflops: f64,
    /// P-sync reorganization fraction (Fig. 14 green).
    pub psync_reorg_frac: f64,
    /// Mesh reorganization fraction (Fig. 14 blue).
    pub mesh_reorg_frac: f64,
}

/// The paper's core counts: square meshes from 2×2 to 64×64.
pub fn paper_core_counts() -> Vec<u64> {
    (1..=6).map(|i| 4u64.pow(i)).collect() // 4, 16, 64, 256, 1024, 4096
}

/// Sweep all three architectures over `cores` (parallelized — each point is
/// independent).
pub fn sweep_cores(params: &SystemParams, cores: &[u64]) -> Vec<SweepPoint> {
    cores
        .par_iter()
        .map(|&p| {
            let ideal = simulate_fft2d(ArchKind::Ideal, params, p);
            let psync = simulate_fft2d(ArchKind::Psync, params, p);
            let mesh = simulate_fft2d(ArchKind::ElectronicMesh, params, p);
            SweepPoint {
                cores: p,
                ideal_gflops: ideal.gflops,
                psync_gflops: psync.gflops,
                mesh_gflops: mesh.gflops,
                psync_reorg_frac: psync.reorg_fraction,
                mesh_reorg_frac: mesh.reorg_fraction,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_counts_are_square_mesh_sides_2_to_64() {
        assert_eq!(paper_core_counts(), vec![4, 16, 64, 256, 1024, 4096]);
    }

    #[test]
    fn sweep_preserves_order_and_bounds() {
        let pts = sweep_cores(&SystemParams::default(), &paper_core_counts());
        assert_eq!(pts.len(), 6);
        for (pt, &p) in pts.iter().zip(&paper_core_counts()) {
            assert_eq!(pt.cores, p);
            assert!(pt.ideal_gflops >= pt.psync_gflops);
            assert!(pt.psync_gflops >= pt.mesh_gflops * 0.99);
            assert!(pt.mesh_reorg_frac > 0.0 && pt.mesh_reorg_frac < 1.0);
        }
    }

    #[test]
    fn ideal_is_monotone_nondecreasing() {
        let pts = sweep_cores(&SystemParams::default(), &paper_core_counts());
        for w in pts.windows(2) {
            assert!(w[1].ideal_gflops >= w[0].ideal_gflops - 1e-9);
        }
    }

    #[test]
    fn sweep_is_deterministic_despite_parallelism() {
        let a = sweep_cores(&SystemParams::default(), &paper_core_counts());
        let b = sweep_cores(&SystemParams::default(), &paper_core_counts());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.psync_gflops.to_bits(), y.psync_gflops.to_bits());
        }
    }
}
