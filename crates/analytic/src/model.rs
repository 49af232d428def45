//! The generalized performance model of §V-A.
//!
//! A parallel computation decomposes into data-delivery time and compute
//! time. Model I (Fig. 8) delivers everything before computing; Model II
//! (Fig. 9) delivers in `k` round-robin blocks so delivery overlaps compute:
//!
//! ```text
//! T = P·t_dk + (k−1)·max(t_ck, P·t_dk) + t_ck          (11)
//! η = t_c / T                                           (14)
//! ```
//!
//! Case 1 (`P·t_dk ≤ t_ck`) is compute-bound; Case 2 is communication-bound;
//! efficiency peaks at the balance point `P·t_dk = t_ck` (Eq. 19).

use serde::Serialize;

/// Parameters of the Table I / Table II FFT analysis.
#[derive(Debug, Clone, Copy, Serialize)]
pub struct FftParams {
    /// Row length in samples (N = 1024).
    pub n: u64,
    /// Processor count (P = 256).
    pub p: u64,
    /// Nanoseconds per floating-point multiply (2 ns).
    pub mult_ns: f64,
    /// Sample size in bits (S_s = 64).
    pub sample_bits: u64,
    /// Header route delay in the mesh, cycles (t_r = 1).
    pub t_r: u64,
}

impl Default for FftParams {
    fn default() -> Self {
        FftParams {
            n: 1024,
            p: 256,
            mult_ns: 2.0,
            sample_bits: 64,
            t_r: 1,
        }
    }
}

impl FftParams {
    /// Block size `S_b = N/k` in samples.
    pub fn block_samples(&self, k: u64) -> u64 {
        assert!(k >= 1 && self.n.is_multiple_of(k));
        self.n / k
    }

    /// Per-block compute time `t_ck` in ns (Eq. 17 × mult time).
    pub fn t_ck_ns(&self, k: u64) -> f64 {
        fft::ops::multiplies_per_block(self.n, k) as f64 * self.mult_ns
    }

    /// Final-phase compute time `t_cf` in ns (Eq. 18 × mult time).
    pub fn t_cf_ns(&self, k: u64) -> f64 {
        fft::ops::multiplies_final(self.n, k) as f64 * self.mult_ns
    }

    /// Total compute time per processor, `t_c = k·t_ck + t_cf`, ns.
    pub fn t_c_ns(&self, k: u64) -> f64 {
        k as f64 * self.t_ck_ns(k) + self.t_cf_ns(k)
    }

    /// Required peak chip bandwidth `W_p = S_b·S_s·P / t_ck` in Gb/s
    /// (Eq. 20): the rate at which blocks must stream so no processor
    /// stalls.
    pub fn required_bandwidth_gbps(&self, k: u64) -> f64 {
        let bits = (self.block_samples(k) * self.sample_bits * self.p) as f64;
        bits / self.t_ck_ns(k)
    }

    /// Zero-latency compute efficiency at the balance point (Table I):
    /// with `P·t_dk = t_ck`, `η = t_c / ((k+1)·t_ck + t_cf)`.
    pub fn efficiency_zero_latency(&self, k: u64) -> f64 {
        let t_ck = self.t_ck_ns(k);
        let t_cf = self.t_cf_ns(k);
        self.t_c_ns(k) / ((k as f64 + 1.0) * t_ck + t_cf)
    }

    /// Mesh delivery efficiency `η_d = F / (F + √P·t_r)` (Eq. 22 with one
    /// flit per sample and the network latency `λ = √P·t_r` route cycles).
    pub fn mesh_delivery_efficiency(&self, k: u64) -> f64 {
        let f = self.block_samples(k) as f64;
        let lambda = (self.p as f64).sqrt() * self.t_r as f64;
        f / (f + lambda)
    }

    /// Mesh compute efficiency: the product of the zero-latency efficiency
    /// and the delivery efficiency (§V-B-2, "the overall efficiency for the
    /// mesh will be the product of those efficiencies").
    pub fn mesh_efficiency(&self, k: u64) -> f64 {
        self.efficiency_zero_latency(k) * self.mesh_delivery_efficiency(k)
    }
}

/// The generalized Model II (Model I is the `k = 1` special case).
#[derive(Debug, Clone, Copy, Serialize)]
pub struct ModelIi {
    /// Processor count.
    pub p: u64,
    /// Time to deliver one block to one processor.
    pub t_dk: f64,
    /// Time to compute on one block.
    pub t_ck: f64,
    /// Number of blocks.
    pub k: u64,
}

impl ModelIi {
    /// Total time — Eq. (11).
    ///
    /// # Panics
    /// Panics if `k = 0` (Eq. 11 is defined for at least one block) or if
    /// `t_dk` / `t_ck` are negative or non-finite — such parameters used to
    /// yield NaN that serialized as `null` in results JSON instead of
    /// erroring.
    pub fn total_time(&self) -> f64 {
        assert!(self.k >= 1, "ModelIi: k must be >= 1 (Eq. 11)");
        assert!(
            self.t_dk.is_finite() && self.t_dk >= 0.0,
            "ModelIi: t_dk must be finite and non-negative, got {}",
            self.t_dk
        );
        assert!(
            self.t_ck.is_finite() && self.t_ck >= 0.0,
            "ModelIi: t_ck must be finite and non-negative, got {}",
            self.t_ck
        );
        let pd = self.p as f64 * self.t_dk;
        pd + (self.k as f64 - 1.0) * self.t_ck.max(pd) + self.t_ck
    }

    /// Compute efficiency — Eq. (14) with `t_c = k·t_ck`.
    ///
    /// # Panics
    /// Panics on the invalid parameters [`ModelIi::total_time`] rejects,
    /// and on all-zero timings (`total_time() == 0`), whose efficiency is
    /// the indeterminate 0/0.
    pub fn efficiency(&self) -> f64 {
        let total = self.total_time();
        assert!(
            total > 0.0,
            "ModelIi: degenerate all-zero parameters (total_time = 0)"
        );
        (self.k as f64 * self.t_ck) / total
    }

    /// Is this operating point compute-bound (Case 1, Eq. 15)?
    pub fn is_compute_bound(&self) -> bool {
        self.p as f64 * self.t_dk <= self.t_ck
    }

    /// The balanced block-delivery time for these compute parameters —
    /// Eq. (19): `t_dk = t_ck / P`.
    pub fn balanced_t_dk(&self) -> f64 {
        self.t_ck / self.p as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn close(a: f64, b: f64, tol: f64) {
        assert!((a - b).abs() < tol, "{a} vs {b}");
    }

    #[test]
    fn model_i_is_k1() {
        // Model I: η = t_c / (P·t_d + t_c) (Eq. 7).
        let m = ModelIi {
            p: 4,
            t_dk: 10.0,
            t_ck: 100.0,
            k: 1,
        };
        close(m.efficiency(), 100.0 / 140.0, 1e-12);
    }

    #[test]
    fn case1_compute_bound_efficiency() {
        // Eq. 15: η = t_c / (P·t_dk + t_c) when P·t_dk <= t_ck.
        let m = ModelIi {
            p: 4,
            t_dk: 5.0,
            t_ck: 100.0,
            k: 8,
        };
        assert!(m.is_compute_bound());
        close(m.efficiency(), 800.0 / (20.0 + 800.0), 1e-12);
    }

    #[test]
    fn case2_comm_bound_efficiency() {
        // Eq. 16: η = t_c / (P·k·t_dk + t_ck) when P·t_dk > t_ck.
        let m = ModelIi {
            p: 4,
            t_dk: 50.0,
            t_ck: 100.0,
            k: 8,
        };
        assert!(!m.is_compute_bound());
        close(m.efficiency(), 800.0 / (4.0 * 8.0 * 50.0 + 100.0), 1e-12);
    }

    #[test]
    fn balance_point_is_the_bandwidth_knee() {
        let base = ModelIi {
            p: 16,
            t_dk: 0.0,
            t_ck: 64.0,
            k: 8,
        };
        let balanced = ModelIi {
            t_dk: base.balanced_t_dk(),
            ..base
        };
        let under = ModelIi {
            t_dk: balanced.t_dk * 0.5,
            ..base
        };
        let over = ModelIi {
            t_dk: balanced.t_dk * 2.0,
            ..base
        };
        // Faster delivery always helps a little (start-up shrinks), but
        // slower-than-balanced delivery stalls compute outright: the drop
        // from balanced→over is far larger than the gain balanced→under.
        assert!(under.efficiency() > balanced.efficiency());
        assert!(balanced.efficiency() > over.efficiency());
        let gain = under.efficiency() - balanced.efficiency();
        let drop = balanced.efficiency() - over.efficiency();
        assert!(drop > 4.0 * gain, "gain {gain}, drop {drop}");
        assert!(balanced.is_compute_bound() && !over.is_compute_bound());
    }

    #[test]
    #[should_panic(expected = "k must be >= 1")]
    fn k_zero_is_rejected() {
        // Regression: k = 0 used to produce NaN (serialized as `null`).
        let m = ModelIi {
            p: 4,
            t_dk: 1.0,
            t_ck: 1.0,
            k: 0,
        };
        let _ = m.total_time();
    }

    #[test]
    #[should_panic(expected = "all-zero parameters")]
    fn all_zero_params_are_rejected() {
        // Regression: 0/0 efficiency used to propagate NaN into JSON.
        let m = ModelIi {
            p: 0,
            t_dk: 0.0,
            t_ck: 0.0,
            k: 1,
        };
        let _ = m.efficiency();
    }

    #[test]
    #[should_panic(expected = "finite and non-negative")]
    fn nan_timing_is_rejected() {
        let m = ModelIi {
            p: 4,
            t_dk: f64::NAN,
            t_ck: 1.0,
            k: 2,
        };
        let _ = m.total_time();
    }

    #[test]
    fn efficiency_improves_with_k_when_balanced() {
        let params = FftParams::default();
        let mut last = 0.0;
        for k in [1u64, 2, 4, 8, 16, 32, 64] {
            let eta = params.efficiency_zero_latency(k);
            assert!(eta > last, "k = {k}: {eta} <= {last}");
            last = eta;
        }
    }

    #[test]
    fn required_bandwidth_grows_with_k() {
        let params = FftParams::default();
        assert!(params.required_bandwidth_gbps(64) > params.required_bandwidth_gbps(1) * 2.0);
    }

    #[test]
    fn t_c_is_constant_in_k() {
        // Blocking reorganizes the same total work: k·t_ck + t_cf is the
        // full FFT's multiply time regardless of k.
        let params = FftParams::default();
        for k in [1u64, 2, 4, 8, 16, 32, 64] {
            close(params.t_c_ns(k), 40_960.0, 1e-9);
        }
    }
}
