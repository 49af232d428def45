//! Optical power and loss units.
//!
//! Optical link budgets are naturally additive in the log (dB) domain:
//! a link closes iff `P_i [dBm] − ΣL [dB] ≥ P_min-pd [dBm]` (paper Eq. 1).
//! We keep power in dBm and loss in dB and convert to linear milliwatts only
//! at the edges.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Mul, Sub};

/// Optical power referenced to 1 mW, in dBm.
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd)]
pub struct OpticalPower(pub f64);

/// Attenuation in dB (non-negative).
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default)]
pub struct DbLoss(pub f64);

impl OpticalPower {
    /// Power from a dBm value.
    pub(crate) const fn from_dbm(dbm: f64) -> Self {
        OpticalPower(dbm)
    }

    /// dBm value.
    pub(crate) const fn dbm(self) -> f64 {
        self.0
    }

    /// Linear milliwatts.
    pub(crate) fn mw(self) -> f64 {
        10f64.powf(self.0 / 10.0)
    }

    /// Linear watts.
    pub(crate) fn watts(self) -> f64 {
        self.mw() * 1e-3
    }
}

impl DbLoss {
    /// Zero attenuation.
    pub const ZERO: DbLoss = DbLoss(0.0);

    /// Loss from a dB value.
    ///
    /// # Panics
    /// Panics on negative values: gain is modeled separately (repeaters),
    /// never as negative loss.
    pub(crate) fn from_db(db: f64) -> Self {
        assert!(db >= 0.0, "loss must be non-negative, got {db} dB");
        DbLoss(db)
    }

    /// dB value.
    pub const fn db(self) -> f64 {
        self.0
    }
}

impl Sub<DbLoss> for OpticalPower {
    type Output = OpticalPower;
    fn sub(self, rhs: DbLoss) -> OpticalPower {
        OpticalPower(self.0 - rhs.0)
    }
}

impl Sub for OpticalPower {
    /// Power ratio between two levels, as a loss (`self` must be ≥ `rhs`).
    type Output = DbLoss;
    fn sub(self, rhs: OpticalPower) -> DbLoss {
        DbLoss::from_db(self.0 - rhs.0)
    }
}

impl Add for DbLoss {
    type Output = DbLoss;
    fn add(self, rhs: DbLoss) -> DbLoss {
        DbLoss(self.0 + rhs.0)
    }
}

impl AddAssign for DbLoss {
    fn add_assign(&mut self, rhs: DbLoss) {
        self.0 += rhs.0;
    }
}

impl Mul<f64> for DbLoss {
    type Output = DbLoss;
    fn mul(self, rhs: f64) -> DbLoss {
        assert!(rhs >= 0.0, "loss scale factor must be non-negative");
        DbLoss(self.0 * rhs)
    }
}

impl Sum for DbLoss {
    fn sum<I: Iterator<Item = DbLoss>>(iter: I) -> DbLoss {
        iter.fold(DbLoss::ZERO, |a, b| a + b)
    }
}

impl fmt::Display for OpticalPower {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.2} dBm", self.0)
    }
}

impl fmt::Display for DbLoss {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.2} dB", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn close(a: f64, b: f64) {
        assert!((a - b).abs() < 1e-9, "{a} != {b}");
    }

    #[test]
    fn dbm_mw_roundtrip() {
        close(OpticalPower::from_dbm(0.0).mw(), 1.0);
        close(OpticalPower::from_dbm(10.0).mw(), 10.0);
        close(OpticalPower::from_dbm(-20.0).mw(), 0.01);
    }

    #[test]
    fn loss_subtraction() {
        let p = OpticalPower::from_dbm(10.0) - DbLoss::from_db(13.0);
        close(p.dbm(), -3.0);
    }

    #[test]
    fn losses_accumulate() {
        let total: DbLoss = [1.0, 0.5, 0.25].iter().map(|&d| DbLoss::from_db(d)).sum();
        close(total.db(), 1.75);
    }

    #[test]
    fn power_difference_is_loss() {
        let l = OpticalPower::from_dbm(5.0) - OpticalPower::from_dbm(-20.0);
        close(l.db(), 25.0);
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn negative_loss_rejected() {
        let _ = DbLoss::from_db(-1.0);
    }

    #[test]
    fn watts_conversion() {
        close(OpticalPower::from_dbm(0.0).watts(), 1e-3);
    }
}
