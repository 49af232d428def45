//! 2-D FFT with explicit transpose — the §V-B five-step flow.
//!
//! 1. deliver P rows, 2. P row FFTs, 3. transpose, 4. re-deliver,
//! 5. P column FFTs.
//!
//! The transpose in step 3 is the non-local writeback the whole paper is
//! about.

use crate::complex::Complex64;
use crate::radix2::Radix2Plan;

/// A row-major complex matrix.
#[derive(Debug, Clone, PartialEq)]
pub struct Matrix {
    /// Rows.
    pub rows: usize,
    /// Columns.
    pub cols: usize,
    /// Row-major data, `rows * cols` elements.
    pub data: Vec<Complex64>,
}

impl Matrix {
    /// Zero matrix.
    pub(crate) fn zeros(rows: usize, cols: usize) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![Complex64::ZERO; rows * cols],
        }
    }

    /// Build from a generator `f(row, col)`.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> Complex64) -> Self {
        let mut data = Vec::with_capacity(rows * cols);
        for r in 0..rows {
            for c in 0..cols {
                data.push(f(r, c));
            }
        }
        Matrix { rows, cols, data }
    }

    /// Element accessor.
    pub fn at(&self, r: usize, c: usize) -> Complex64 {
        self.data[r * self.cols + c]
    }

    /// Mutable element accessor.
    pub(crate) fn at_mut(&mut self, r: usize, c: usize) -> &mut Complex64 {
        &mut self.data[r * self.cols + c]
    }

    /// Row slice.
    pub fn row(&self, r: usize) -> &[Complex64] {
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Mutable row slice.
    pub(crate) fn row_mut(&mut self, r: usize) -> &mut [Complex64] {
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Out-of-place transpose.
    pub fn transposed(&self) -> Matrix {
        let mut t = Matrix::zeros(self.cols, self.rows);
        for r in 0..self.rows {
            for c in 0..self.cols {
                *t.at_mut(c, r) = self.at(r, c);
            }
        }
        t
    }
}

/// A 2-D FFT plan for `rows × cols` matrices (both powers of two).
#[derive(Debug, Clone)]
pub struct Fft2d {
    row_plan: Radix2Plan,
    col_plan: Radix2Plan,
}

impl Fft2d {
    /// Plan for `rows × cols`.
    pub fn new(rows: usize, cols: usize) -> Self {
        Fft2d {
            row_plan: Radix2Plan::new(cols),
            col_plan: Radix2Plan::new(rows),
        }
    }

    /// Forward 2-D FFT via row FFTs → transpose → row FFTs (of columns) →
    /// transpose back. Returns the spectrum in natural (row, col) layout.
    pub fn forward(&self, m: &Matrix) -> Matrix {
        assert_eq!(m.cols, self.row_plan.len());
        assert_eq!(m.rows, self.col_plan.len());
        let mut a = m.clone();
        for r in 0..a.rows {
            self.row_plan.forward(a.row_mut(r));
        }
        let mut t = a.transposed();
        for r in 0..t.rows {
            self.col_plan.forward(t.row_mut(r));
        }
        t.transposed()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::complex::max_error;

    /// Reference 2-D DFT (O(N⁴)-ish; tests only).
    fn dft2d_reference(m: &Matrix) -> Matrix {
        use crate::dft::dft_reference;
        let mut a = m.clone();
        for r in 0..a.rows {
            let out = dft_reference(a.row(r));
            a.row_mut(r).copy_from_slice(&out);
        }
        let mut t = a.transposed();
        for r in 0..t.rows {
            let out = dft_reference(t.row(r));
            t.row_mut(r).copy_from_slice(&out);
        }
        t.transposed()
    }

    fn test_matrix(rows: usize, cols: usize) -> Matrix {
        Matrix::from_fn(rows, cols, |r, c| {
            Complex64::new(
                (r as f64 * 1.3 + c as f64 * 0.7).sin(),
                (r as f64 - 2.0 * c as f64).cos() * 0.5,
            )
        })
    }

    #[test]
    fn matches_reference_2d() {
        for (rows, cols) in [(4, 4), (8, 16), (16, 8)] {
            let m = test_matrix(rows, cols);
            let fast = Fft2d::new(rows, cols).forward(&m);
            let slow = dft2d_reference(&m);
            assert!(
                max_error(&fast.data, &slow.data) < 1e-8,
                "{rows}x{cols}: {}",
                max_error(&fast.data, &slow.data)
            );
        }
    }

    #[test]
    fn transpose_is_involution() {
        let m = test_matrix(8, 4);
        assert_eq!(m.transposed().transposed(), m);
    }

    #[test]
    fn transpose_moves_elements() {
        let m = test_matrix(4, 8);
        let t = m.transposed();
        for r in 0..4 {
            for c in 0..8 {
                assert_eq!(m.at(r, c), t.at(c, r));
            }
        }
    }

    #[test]
    fn impulse_gives_flat_2d_spectrum() {
        let mut m = Matrix::zeros(8, 8);
        *m.at_mut(0, 0) = Complex64::ONE;
        let s = Fft2d::new(8, 8).forward(&m);
        for v in &s.data {
            assert!((*v - Complex64::ONE).abs() < 1e-10);
        }
    }

    #[test]
    fn separable_tone_lands_in_one_bin() {
        let n = 16;
        let m = Matrix::from_fn(n, n, |r, c| {
            Complex64::cis(
                2.0 * std::f64::consts::PI * (3.0 * r as f64 + 5.0 * c as f64) / n as f64,
            )
        });
        let s = Fft2d::new(n, n).forward(&m);
        for r in 0..n {
            for c in 0..n {
                let v = s.at(r, c).abs();
                if (r, c) == (3, 5) {
                    assert!((v - (n * n) as f64).abs() < 1e-6);
                } else {
                    assert!(v < 1e-6, "leak at ({r},{c}) = {v}");
                }
            }
        }
    }
}
