//! Iterative radix-2 decimation-in-time FFT.
//!
//! The DIT structure is what makes the paper's Fig. 10 blocking possible:
//! "the non-locality as defined by the span in linear memory between two
//! operands increases as 2ⁿ, where n is the number of butterfly stages
//! executed" — early stages touch only nearby elements, late stages span
//! the whole vector.

use crate::complex::Complex64;

/// A reusable FFT plan: cached twiddle factors for size `n`.
#[derive(Debug, Clone)]
pub struct Radix2Plan {
    n: usize,
    /// Twiddles w_N^j = e^{-2πij/N} for j in 0..n/2.
    twiddles: Vec<Complex64>,
}

impl Radix2Plan {
    /// Plan for transforms of length `n` (a power of two ≥ 1).
    pub fn new(n: usize) -> Self {
        assert!(
            n.is_power_of_two(),
            "radix-2 FFT needs a power of two, got {n}"
        );
        let twiddles = (0..n / 2)
            .map(|j| Complex64::cis(-2.0 * std::f64::consts::PI * j as f64 / n as f64))
            .collect();
        Radix2Plan { n, twiddles }
    }

    /// Transform length.
    pub fn len(&self) -> usize {
        self.n
    }

    /// True for the degenerate length-1 plan.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// In-place forward FFT.
    pub fn forward(&self, x: &mut [Complex64]) {
        assert_eq!(x.len(), self.n, "buffer length must match the plan");
        bit_reverse_permute(x);
        self.butterflies_in_place(x, 0, log2(self.n));
    }

    /// Run butterfly stages `[from_stage, to_stage)` on bit-reversed data.
    /// Stage `s` (0-based) combines blocks of 2^s into blocks of 2^{s+1}.
    ///
    /// This is the primitive the blocked decomposition (Fig. 10) uses: a
    /// sub-block FFT is stages `[0, log2(block))` on its own slice; the
    /// compute-only phase is stages `[log2(block), log2(N))` on the whole
    /// vector.
    pub fn butterflies_in_place(&self, x: &mut [Complex64], from_stage: u32, to_stage: u32) {
        let n = x.len();
        debug_assert!(n.is_power_of_two());
        for s in from_stage..to_stage {
            let half = 1usize << s; // butterflies per block
            let block = half << 1;
            let stride = self.n / block; // twiddle stride in the full plan
            let mut base = 0;
            while base < n {
                for j in 0..half {
                    let w = self.twiddles[j * stride];
                    let t = w * x[base + j + half];
                    let u = x[base + j];
                    x[base + j] = u + t;
                    x[base + j + half] = u - t;
                }
                base += block;
            }
        }
    }
}

/// log₂ of a power of two.
pub(crate) fn log2(n: usize) -> u32 {
    debug_assert!(n.is_power_of_two());
    n.trailing_zeros()
}

/// In-place bit-reversal permutation.
pub(crate) fn bit_reverse_permute(x: &mut [Complex64]) {
    let n = x.len();
    assert!(n.is_power_of_two());
    if n <= 2 {
        return; // 0 or 1 bit: reversal is the identity
    }
    let bits = log2(n);
    for i in 0..n {
        let j = (i.reverse_bits() >> (usize::BITS - bits)) & (n - 1);
        if j > i {
            x.swap(i, j);
        }
    }
}

/// One-shot in-place forward FFT.
pub fn fft_in_place(x: &mut [Complex64]) {
    Radix2Plan::new(x.len()).forward(x);
}

/// One-shot in-place inverse FFT (scaled by 1/N).
pub fn ifft_in_place(x: &mut [Complex64]) {
    let n = x.len();
    for v in x.iter_mut() {
        *v = v.conj();
    }
    fft_in_place(x);
    let s = 1.0 / n as f64;
    for v in x.iter_mut() {
        *v = v.conj().scale(s);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::complex::max_error;
    use crate::dft::dft_reference;

    fn ramp(n: usize) -> Vec<Complex64> {
        (0..n)
            .map(|i| Complex64::new(i as f64 * 0.31 - 1.0, (i as f64 * 0.7).cos()))
            .collect()
    }

    #[test]
    fn matches_reference_across_sizes() {
        for n in [1usize, 2, 4, 8, 16, 64, 256, 1024] {
            let x = ramp(n);
            let mut y = x.clone();
            fft_in_place(&mut y);
            let r = dft_reference(&x);
            assert!(
                max_error(&y, &r) < 1e-7 * n as f64,
                "size {n}: err {}",
                max_error(&y, &r)
            );
        }
    }

    #[test]
    fn inverse_roundtrip() {
        let x = ramp(512);
        let mut y = x.clone();
        fft_in_place(&mut y);
        ifft_in_place(&mut y);
        assert!(max_error(&x, &y) < 1e-10);
    }

    #[test]
    fn bit_reverse_is_involution() {
        let x = ramp(64);
        let mut y = x.clone();
        bit_reverse_permute(&mut y);
        bit_reverse_permute(&mut y);
        assert_eq!(x, y);
    }

    #[test]
    fn bit_reverse_small_case() {
        let mut x: Vec<Complex64> = (0..8).map(|i| Complex64::new(i as f64, 0.0)).collect();
        bit_reverse_permute(&mut x);
        let order: Vec<f64> = x.iter().map(|c| c.re).collect();
        assert_eq!(order, vec![0.0, 4.0, 2.0, 6.0, 1.0, 5.0, 3.0, 7.0]);
    }

    #[test]
    fn staged_butterflies_equal_full_transform() {
        // Running stages [0, m) then [m, log2 n) equals one full pass —
        // the identity the blocked FFT depends on.
        let n = 256;
        let plan = Radix2Plan::new(n);
        let x = ramp(n);
        let mut full = x.clone();
        plan.forward(&mut full);
        for m in 0..=log2(n) {
            let mut staged = x.clone();
            bit_reverse_permute(&mut staged);
            plan.butterflies_in_place(&mut staged, 0, m);
            plan.butterflies_in_place(&mut staged, m, log2(n));
            assert!(max_error(&full, &staged) < 1e-12, "split at stage {m}");
        }
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn rejects_non_power_of_two() {
        Radix2Plan::new(12);
    }

    #[test]
    fn parseval_energy_preserved() {
        let x = ramp(128);
        let mut y = x.clone();
        fft_in_place(&mut y);
        let time_e: f64 = x.iter().map(|v| v.norm_sqr()).sum();
        let freq_e: f64 = y.iter().map(|v| v.norm_sqr()).sum::<f64>() / 128.0;
        assert!((time_e - freq_e).abs() < 1e-8 * time_e);
    }
}
