//! The phase-level simulator.

use crate::arch::{ArchKind, SystemParams};
use crate::phases::{phase_breakdown, PhaseBreakdown};

/// Performance data for one (architecture, core count) point.
#[derive(Debug, Clone, Copy)]
pub struct PerfResult {
    /// Architecture simulated.
    pub arch: ArchKind,
    /// Core count.
    pub cores: u64,
    /// Phase timing.
    pub phases: PhaseBreakdown,
    /// Total runtime in seconds.
    pub runtime_secs: f64,
    /// Achieved performance in GFLOPS (multiply ops / runtime / 1e9,
    /// matching the paper's multiply-only costing).
    pub gflops: f64,
    /// Fraction of runtime spent in data reorganization (Fig. 14).
    pub reorg_fraction: f64,
}

/// Simulate the full 2-D FFT flow on `arch` with `cores` cores.
pub fn simulate_fft2d(arch: ArchKind, params: &SystemParams, cores: u64) -> PerfResult {
    assert!(cores >= 1, "need at least one core");
    let phases = phase_breakdown(arch, params, cores);
    let runtime = phases.total();
    let total_mults = 2 * params.mults_per_pass(); // row pass + column pass
    PerfResult {
        arch,
        cores,
        phases,
        runtime_secs: runtime,
        gflops: total_mults as f64 / runtime / 1e9,
        reorg_fraction: phases.reorg_fraction(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gflops_is_work_over_time() {
        let s = SystemParams::default();
        let r = simulate_fft2d(ArchKind::Ideal, &s, 256);
        let expect = (2 * s.mults_per_pass()) as f64 / r.runtime_secs / 1e9;
        assert!((r.gflops - expect).abs() < 1e-9);
    }

    #[test]
    fn psync_converges_toward_ideal() {
        // Fig. 13: "As the number of cores is increased, the performance of
        // the P-sync architecture converges to ideal performance."
        let s = SystemParams::default();
        let gap = |arch: ArchKind, p: u64| {
            let i = simulate_fft2d(ArchKind::Ideal, &s, p).gflops;
            let a = simulate_fft2d(arch, &s, p).gflops;
            (i - a) / i
        };
        // P-sync stays within a few percent of ideal at every scale...
        for p in [16u64, 256, 4096] {
            assert!(gap(ArchKind::Psync, p) < 0.05, "P = {p}");
        }
        // ...while the mesh departs dramatically at scale.
        assert!(gap(ArchKind::ElectronicMesh, 4096) > 0.5);
    }

    #[test]
    fn mesh_peaks_near_256_then_declines() {
        // Fig. 13: "the performance of the electronic mesh architecture
        // peaks around 256 cores and decreases for larger numbers".
        let s = SystemParams::default();
        let g = |p: u64| simulate_fft2d(ArchKind::ElectronicMesh, &s, p).gflops;
        let sweep: Vec<(u64, f64)> = [4u64, 16, 64, 256, 1024, 4096]
            .iter()
            .map(|&p| (p, g(p)))
            .collect();
        let (peak_p, _) = sweep
            .iter()
            .copied()
            .max_by(|a, b| a.1.partial_cmp(&b.1).unwrap())
            .unwrap();
        assert!((64..=1024).contains(&peak_p), "mesh peak at {peak_p} cores");
        assert!(g(4096) < g(256), "mesh must decline past its peak");
    }

    #[test]
    fn psync_2_to_10x_better_past_256() {
        // Fig. 13: "performance for the P-sync architecture for P > 256 is
        // two to ten times better than the electronic mesh".
        let s = SystemParams::default();
        for p in [512u64, 1024, 2048, 4096] {
            let ratio = simulate_fft2d(ArchKind::Psync, &s, p).gflops
                / simulate_fft2d(ArchKind::ElectronicMesh, &s, p).gflops;
            assert!(
                (1.5..=12.0).contains(&ratio),
                "P = {p}: P-sync/mesh = {ratio:.2}"
            );
        }
        let r4096 = simulate_fft2d(ArchKind::Psync, &s, 4096).gflops
            / simulate_fft2d(ArchKind::ElectronicMesh, &s, 4096).gflops;
        assert!(
            r4096 >= 2.0,
            "at 4096 cores the gap should exceed 2x: {r4096}"
        );
    }

    #[test]
    fn reorg_fraction_shapes() {
        // Fig. 14: mesh fraction grows with cores; P-sync levels off.
        let s = SystemParams::default();
        let mesh: Vec<f64> = [16u64, 256, 4096]
            .iter()
            .map(|&p| simulate_fft2d(ArchKind::ElectronicMesh, &s, p).reorg_fraction)
            .collect();
        assert!(mesh[0] < mesh[1] && mesh[1] < mesh[2]);
        assert!(mesh[2] > 0.5, "mesh reorg should dominate at 4096 cores");

        let ps16 = simulate_fft2d(ArchKind::Psync, &s, 16).reorg_fraction;
        let ps1024 = simulate_fft2d(ArchKind::Psync, &s, 1024).reorg_fraction;
        let ps4096 = simulate_fft2d(ArchKind::Psync, &s, 4096).reorg_fraction;
        assert!(ps1024 >= ps16);
        // Leveling off: the late-sweep increase is small.
        assert!(ps4096 - ps1024 < 0.05);
        assert!(ps4096 < 0.55, "P-sync reorg stays reasonable: {ps4096}");
    }
}
