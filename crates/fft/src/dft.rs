//! Naive O(N²) reference DFT.
//!
//! Slow but obviously correct; every fast path in this crate is verified
//! against it.

use crate::complex::Complex64;

/// Forward DFT: `X[k] = Σ_n x[n]·e^{-2πikn/N}`.
pub fn dft_reference(x: &[Complex64]) -> Vec<Complex64> {
    let n = x.len();
    let mut out = Vec::with_capacity(n);
    for k in 0..n {
        let mut acc = Complex64::ZERO;
        for (j, &v) in x.iter().enumerate() {
            let theta = -2.0 * std::f64::consts::PI * (k as f64) * (j as f64) / (n as f64);
            acc += v * Complex64::cis(theta);
        }
        out.push(acc);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::complex::max_error;

    /// Inverse DFT (unscaled by 1/N inside; scales at the end).
    fn idft_reference(x: &[Complex64]) -> Vec<Complex64> {
        let n = x.len();
        let mut out = Vec::with_capacity(n);
        for k in 0..n {
            let mut acc = Complex64::ZERO;
            for (j, &v) in x.iter().enumerate() {
                let theta = 2.0 * std::f64::consts::PI * (k as f64) * (j as f64) / (n as f64);
                acc += v * Complex64::cis(theta);
            }
            out.push(acc.scale(1.0 / n as f64));
        }
        out
    }

    #[test]
    fn impulse_transforms_to_flat_spectrum() {
        let mut x = vec![Complex64::ZERO; 8];
        x[0] = Complex64::ONE;
        let y = dft_reference(&x);
        for v in y {
            assert!((v - Complex64::ONE).abs() < 1e-12);
        }
    }

    #[test]
    fn constant_transforms_to_impulse() {
        let x = vec![Complex64::ONE; 8];
        let y = dft_reference(&x);
        assert!((y[0] - Complex64::new(8.0, 0.0)).abs() < 1e-9);
        for v in &y[1..] {
            assert!(v.abs() < 1e-9);
        }
    }

    #[test]
    fn single_tone_lands_in_one_bin() {
        let n = 16;
        let x: Vec<Complex64> = (0..n)
            .map(|j| Complex64::cis(2.0 * std::f64::consts::PI * 3.0 * j as f64 / n as f64))
            .collect();
        let y = dft_reference(&x);
        assert!((y[3] - Complex64::new(n as f64, 0.0)).abs() < 1e-9);
        for (k, v) in y.iter().enumerate() {
            if k != 3 {
                assert!(v.abs() < 1e-9, "leak into bin {k}");
            }
        }
    }

    #[test]
    fn idft_inverts_dft() {
        let x: Vec<Complex64> = (0..12)
            .map(|i| Complex64::new(i as f64 * 0.7 - 3.0, (i as f64).sin()))
            .collect();
        let back = idft_reference(&dft_reference(&x));
        assert!(max_error(&x, &back) < 1e-9);
    }

    #[test]
    fn linearity() {
        let a: Vec<Complex64> = (0..8).map(|i| Complex64::new(i as f64, 0.0)).collect();
        let b: Vec<Complex64> = (0..8).map(|i| Complex64::new(0.0, -(i as f64))).collect();
        let sum: Vec<Complex64> = a.iter().zip(&b).map(|(x, y)| *x + *y).collect();
        let lhs = dft_reference(&sum);
        let rhs: Vec<Complex64> = dft_reference(&a)
            .iter()
            .zip(dft_reference(&b))
            .map(|(x, y)| *x + y)
            .collect();
        assert!(max_error(&lhs, &rhs) < 1e-9);
    }
}
