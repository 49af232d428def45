//! Fig. 11 — FFT compute efficiency vs k: P-sync vs electronic mesh.
//!
//! "Global synchrony and pre-scheduled communication allow P-sync to achieve
//! near ideal FFT compute efficiency as k increases. Such efficiency gains
//! in the mesh are limited by the increased overhead of routing smaller
//! packets."
//!
//! The P-sync curve is the zero-latency Table I efficiency degraded only by
//! the (tiny, sub-slot) optical flight latency; the mesh curve is Table II.

use serde::Serialize;

use crate::model::FftParams;

/// One point of the Fig. 11 curves.
#[derive(Debug, Clone, Copy, Serialize)]
pub struct Fig11Point {
    /// Blocks per row.
    pub k: u64,
    /// Ideal (zero-latency) efficiency, percent.
    pub ideal_pct: f64,
    /// P-sync efficiency, percent.
    pub psync_pct: f64,
    /// Electronic mesh efficiency, percent.
    pub mesh_pct: f64,
}

/// P-sync efficiency with latency: because SCA⁻¹ delivery is pre-scheduled
/// and streams continuously, the optical flight time across the bus
/// (≈ 10 ns for a 2 cm die serpentine ≈ 64 cm at 7 cm/ns) is paid **once**
/// per FFT phase, not per block:
/// `η = t_c / ((k+1)·t_ck + t_cf + flight)`.
pub fn psync_efficiency(params: &FftParams, k: u64, flight_ns: f64) -> f64 {
    let t_ck = params.t_ck_ns(k);
    let t_cf = params.t_cf_ns(k);
    params.t_c_ns(k) / ((k as f64 + 1.0) * t_ck + t_cf + flight_ns)
}

/// Generate the Fig. 11 curves over the given k values.
pub fn fig11_curves_with(params: &FftParams, ks: &[u64], flight_ns: f64) -> Vec<Fig11Point> {
    ks.iter()
        .map(|&k| {
            let ideal = params.efficiency_zero_latency(k);
            Fig11Point {
                k,
                ideal_pct: ideal * 100.0,
                psync_pct: psync_efficiency(params, k, flight_ns) * 100.0,
                mesh_pct: params.mesh_efficiency(k) * 100.0,
            }
        })
        .collect()
}

/// The paper's curves: k ∈ {1..64}, 2 cm die serpentine flight ≈ 9.2 ns.
pub fn fig11_curves() -> Vec<Fig11Point> {
    fig11_curves_with(&FftParams::default(), &[1, 2, 4, 8, 16, 32, 64], 9.2)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn psync_tracks_ideal_upward() {
        let pts = fig11_curves();
        for w in pts.windows(2) {
            assert!(
                w[1].psync_pct > w[0].psync_pct,
                "P-sync must rise monotonically with k"
            );
        }
        // Near-ideal at the largest k.
        let last = pts.last().unwrap();
        assert!(last.psync_pct > 95.0);
        assert!(last.ideal_pct - last.psync_pct < 4.0);
    }

    #[test]
    fn mesh_peaks_then_falls() {
        let pts = fig11_curves();
        let peak = pts
            .iter()
            .max_by(|a, b| a.mesh_pct.partial_cmp(&b.mesh_pct).unwrap())
            .unwrap();
        assert_eq!(peak.k, 8);
        assert!(pts.last().unwrap().mesh_pct < peak.mesh_pct - 20.0);
    }

    #[test]
    fn psync_beats_mesh_at_large_k() {
        let pts = fig11_curves();
        let last = pts.last().unwrap();
        assert!(last.psync_pct > last.mesh_pct * 1.8);
    }

    #[test]
    fn psync_latency_penalty_is_tiny() {
        let p = FftParams::default();
        for k in [1u64, 8, 64] {
            let with = psync_efficiency(&p, k, 9.2);
            let without = p.efficiency_zero_latency(k);
            assert!(without - with < 0.001, "k={k}: {with} vs {without}");
        }
    }
}
