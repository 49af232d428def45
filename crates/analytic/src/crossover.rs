//! Inversions of the §V models: given a target, what does the machine need?
//!
//! Table I reads left-to-right (pick k, read required bandwidth `W_p` and
//! efficiency). Design questions run the other way: *given* a link budget,
//! what k can be sustained and what efficiency follows? And where is the
//! balance point `P·t_dk = t_ck` (Eq. 19) for a concrete machine?

use serde::Serialize;

use crate::model::FftParams;

/// A feasible operating point under a bandwidth budget.
#[derive(Debug, Clone, Copy, Serialize)]
pub struct OperatingPoint {
    /// Blocks per row.
    pub k: u64,
    /// Required bandwidth at this k (Eq. 20), Gb/s.
    pub required_gbps: f64,
    /// Zero-latency efficiency at this k, percent.
    pub eta_pct: f64,
}

/// The largest power-of-two k (≤ `k_max`) whose Eq. (20) bandwidth fits in
/// `available_gbps`, with its efficiency — i.e. how far up Table I a given
/// link can climb.
///
/// The sweep is additionally clamped at `k ≤ params.n`: a block cannot be
/// smaller than one sample, so larger `k_max` values are accepted but
/// never probed past `n`.
pub fn best_k_under_bandwidth(
    params: &FftParams,
    available_gbps: f64,
    k_max: u64,
) -> Option<OperatingPoint> {
    let mut best = None;
    let mut k = 1;
    while k <= k_max.min(params.n) {
        let need = params.required_bandwidth_gbps(k);
        if need <= available_gbps {
            best = Some(OperatingPoint {
                k,
                required_gbps: need,
                eta_pct: params.efficiency_zero_latency(k) * 100.0,
            });
        }
        k *= 2;
    }
    best
}

/// Bandwidth (Gb/s) needed to reach a target zero-latency efficiency
/// (fraction strictly inside `(0,1)`), or `None` if no power-of-two
/// k ≤ `min(k_max, n)` reaches it at finite bandwidth.
///
/// The sweep is clamped at `k ≤ params.n` like
/// [`best_k_under_bandwidth`]; the degenerate `k = n` point (one-sample
/// blocks, `t_ck = 0`) would require infinite bandwidth and is never
/// returned.
///
/// # Panics
/// Panics unless `0 < target < 1`.
pub fn bandwidth_for_efficiency(
    params: &FftParams,
    target: f64,
    k_max: u64,
) -> Option<OperatingPoint> {
    assert!(
        target > 0.0 && target < 1.0,
        "target must be in the open interval (0,1)"
    );
    let mut k = 1;
    while k <= k_max.min(params.n) {
        if params.efficiency_zero_latency(k) >= target {
            let need = params.required_bandwidth_gbps(k);
            if need.is_finite() {
                return Some(OperatingPoint {
                    k,
                    required_gbps: need,
                    eta_pct: params.efficiency_zero_latency(k) * 100.0,
                });
            }
        }
        k *= 2;
    }
    None
}

/// The k at which the mesh's efficiency (Table II product) stops improving —
/// its routing-overhead knee (k = 8 for the paper's parameters). The sweep
/// is clamped at `k ≤ params.n` like [`best_k_under_bandwidth`].
pub fn mesh_knee(params: &FftParams, k_max: u64) -> u64 {
    let mut best_k = 1;
    let mut best = f64::MIN;
    let mut k = 1;
    while k <= k_max.min(params.n) {
        let e = params.mesh_efficiency(k);
        if e > best {
            best = e;
            best_k = k;
        }
        k *= 2;
    }
    best_k
}

/// The P-sync : mesh efficiency ratio at a given k.
pub fn efficiency_ratio(params: &FftParams, k: u64, flight_ns: f64) -> f64 {
    crate::fig11::psync_efficiency(params, k, flight_ns) / params.mesh_efficiency(k)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_bandwidth_ladder() {
        let p = FftParams::default();
        // 409.6 Gb/s buys k = 1 only; 512 buys k = 4; 1024 buys k = 64.
        assert_eq!(best_k_under_bandwidth(&p, 410.0, 64).unwrap().k, 1);
        assert_eq!(best_k_under_bandwidth(&p, 512.0, 64).unwrap().k, 4);
        assert_eq!(best_k_under_bandwidth(&p, 1024.0, 64).unwrap().k, 64);
        // Below the k=1 requirement nothing fits.
        assert!(best_k_under_bandwidth(&p, 400.0, 64).is_none());
    }

    #[test]
    fn efficiency_targets_map_to_table1_rows() {
        let p = FftParams::default();
        let op = bandwidth_for_efficiency(&p, 0.90, 64).unwrap();
        assert_eq!(op.k, 8); // first row ≥ 90 % is k = 8 at 91.95 %
        assert!((op.required_gbps - 585.1).abs() < 0.1);
        assert!(bandwidth_for_efficiency(&p, 0.999, 64).is_none());
    }

    #[test]
    fn knee_is_k8() {
        assert_eq!(mesh_knee(&FftParams::default(), 64), 8);
    }

    #[test]
    fn k_max_beyond_n_is_clamped_not_panicking() {
        // Regression: k_max = 4096 > n = 1024 used to trip the k <= n
        // asserts in model::block_samples / fft::ops and panic. The sweep
        // now clamps at k = n and the answers match the k_max = 64 ones.
        let p = FftParams::default();
        assert_eq!(p.n, 1024);
        assert_eq!(best_k_under_bandwidth(&p, 1024.0, 4096).unwrap().k, 64);
        assert_eq!(bandwidth_for_efficiency(&p, 0.90, 4096).unwrap().k, 8);
        assert_eq!(mesh_knee(&p, 4096), 8);
        // Unreachable targets still answer None (never the degenerate
        // infinite-bandwidth k = n point).
        if let Some(op) = bandwidth_for_efficiency(&p, 0.999_999, 4096) {
            assert!(op.required_gbps.is_finite(), "k = {}", op.k);
        }
    }

    #[test]
    #[should_panic(expected = "open interval")]
    fn target_zero_is_rejected() {
        // The old bound `(0.0..1.0).contains(&target)` accepted 0.0 while
        // the message promised the open interval.
        bandwidth_for_efficiency(&FftParams::default(), 0.0, 64);
    }

    #[test]
    #[should_panic(expected = "open interval")]
    fn target_one_is_rejected() {
        bandwidth_for_efficiency(&FftParams::default(), 1.0, 64);
    }

    #[test]
    fn ratio_grows_with_k() {
        let p = FftParams::default();
        let r8 = efficiency_ratio(&p, 8, 9.2);
        let r64 = efficiency_ratio(&p, 64, 9.2);
        assert!(r64 > r8 && r64 > 1.9, "r8 {r8}, r64 {r64}");
    }
}
