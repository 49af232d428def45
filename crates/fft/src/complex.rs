//! A minimal double-precision complex number.
//!
//! The paper's samples are 64-bit complex values (two 32-bit halves, `S_s =
//! 64`). For numerics we compute in f64 pairs.

use std::ops::{Add, AddAssign, Mul, Neg, Sub, SubAssign};

/// A complex number with f64 parts.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Complex64 {
    /// Real part.
    pub re: f64,
    /// Imaginary part.
    pub im: f64,
}

impl Complex64 {
    /// 0 + 0i.
    pub const ZERO: Complex64 = Complex64 { re: 0.0, im: 0.0 };
    /// 1 + 0i.
    pub const ONE: Complex64 = Complex64 { re: 1.0, im: 0.0 };
    /// 0 + 1i.
    pub const I: Complex64 = Complex64 { re: 0.0, im: 1.0 };

    /// Construct from parts.
    pub const fn new(re: f64, im: f64) -> Self {
        Complex64 { re, im }
    }

    /// e^{iθ} = cos θ + i sin θ.
    pub(crate) fn cis(theta: f64) -> Self {
        Complex64 {
            re: theta.cos(),
            im: theta.sin(),
        }
    }

    /// Complex conjugate.
    pub(crate) fn conj(self) -> Self {
        Complex64 {
            re: self.re,
            im: -self.im,
        }
    }

    /// Squared magnitude.
    pub(crate) fn norm_sqr(self) -> f64 {
        self.re * self.re + self.im * self.im
    }

    /// Magnitude.
    pub fn abs(self) -> f64 {
        self.norm_sqr().sqrt()
    }

    /// Scale by a real factor.
    pub fn scale(self, s: f64) -> Self {
        Complex64 {
            re: self.re * s,
            im: self.im * s,
        }
    }
}

impl Add for Complex64 {
    type Output = Complex64;
    fn add(self, rhs: Complex64) -> Complex64 {
        Complex64::new(self.re + rhs.re, self.im + rhs.im)
    }
}

impl AddAssign for Complex64 {
    fn add_assign(&mut self, rhs: Complex64) {
        self.re += rhs.re;
        self.im += rhs.im;
    }
}

impl Sub for Complex64 {
    type Output = Complex64;
    fn sub(self, rhs: Complex64) -> Complex64 {
        Complex64::new(self.re - rhs.re, self.im - rhs.im)
    }
}

impl SubAssign for Complex64 {
    fn sub_assign(&mut self, rhs: Complex64) {
        self.re -= rhs.re;
        self.im -= rhs.im;
    }
}

impl Mul for Complex64 {
    type Output = Complex64;
    fn mul(self, rhs: Complex64) -> Complex64 {
        Complex64::new(
            self.re * rhs.re - self.im * rhs.im,
            self.re * rhs.im + self.im * rhs.re,
        )
    }
}

impl Neg for Complex64 {
    type Output = Complex64;
    fn neg(self) -> Complex64 {
        Complex64::new(-self.re, -self.im)
    }
}

/// Max |a − b| across a pair of slices (∞-norm distance), for tests.
pub fn max_error(a: &[Complex64], b: &[Complex64]) -> f64 {
    assert_eq!(a.len(), b.len());
    a.iter()
        .zip(b)
        .map(|(x, y)| (*x - *y).abs())
        .fold(0.0, f64::max)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arithmetic_identities() {
        let a = Complex64::new(1.0, 2.0);
        let b = Complex64::new(-3.0, 0.5);
        assert_eq!(a + b, Complex64::new(-2.0, 2.5));
        assert_eq!(a - b, Complex64::new(4.0, 1.5));
        assert_eq!(a * Complex64::ONE, a);
        assert_eq!((a * b).re, 1.0 * -3.0 - 2.0 * 0.5);
        assert_eq!(-a, Complex64::new(-1.0, -2.0));
    }

    #[test]
    fn i_squared_is_minus_one() {
        assert_eq!(Complex64::I * Complex64::I, Complex64::new(-1.0, 0.0));
    }

    #[test]
    fn cis_is_unit_magnitude() {
        for k in 0..16 {
            let theta = k as f64 * std::f64::consts::FRAC_PI_8;
            let w = Complex64::cis(theta);
            assert!((w.abs() - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn conjugate_negates_imaginary() {
        let a = Complex64::new(3.0, -4.0);
        assert_eq!(a.conj(), Complex64::new(3.0, 4.0));
        assert!((a.abs() - 5.0).abs() < 1e-12);
        assert_eq!(a.norm_sqr(), 25.0);
    }

    #[test]
    fn max_error_measures_distance() {
        let a = [Complex64::ZERO, Complex64::ONE];
        let b = [Complex64::ZERO, Complex64::new(1.0, 0.5)];
        assert!((max_error(&a, &b) - 0.5).abs() < 1e-12);
    }
}
