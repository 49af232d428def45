//! Receiver bit-error-rate model: where `P_min-pd` comes from.
//!
//! Eq. (1) treats the photodiode's minimum detectable power as a given.
//! Physically it falls out of a BER target: the received photocurrent must
//! stand far enough above the receiver's input-referred noise that the
//! Gaussian tail past the decision threshold is below, say, 10⁻¹². With
//! OOK and equal 0/1 likelihoods, `BER = ½·erfc(Q/√2)` and the required
//! average optical power is `P = Q·σ_I / R` (responsivity `R`), halved
//! because the average of full-swing OOK is half the peak.
//!
//! This module derives the sensitivity so the link budget's −20 dBm default
//! is a *consequence*, not an assumption.

use serde::Serialize;

use crate::units::OpticalPower;

/// Receiver front-end parameters.
#[derive(Debug, Clone, Copy, Serialize)]
pub struct ReceiverModel {
    /// Photodiode responsivity, amperes per watt (≈ 1.0 A/W at 1550 nm).
    pub responsivity_a_per_w: f64,
    /// Input-referred noise current spectral density, pA/√Hz
    /// (TIA-dominated: ~20 pA/√Hz for a 10 Gb/s front end of the era).
    pub noise_pa_per_sqrt_hz: f64,
    /// Receiver electrical bandwidth as a fraction of the bit rate (~0.7).
    pub bandwidth_fraction: f64,
}

impl Default for ReceiverModel {
    fn default() -> Self {
        ReceiverModel {
            responsivity_a_per_w: 1.0,
            noise_pa_per_sqrt_hz: 20.0,
            bandwidth_fraction: 0.7,
        }
    }
}

/// `erfc` via the Abramowitz–Stegun 7.1.26 rational approximation
/// (|error| < 1.5e-7 — far tighter than any BER target we set).
fn erfc(x: f64) -> f64 {
    let sign_negative = x < 0.0;
    let x = x.abs();
    let t = 1.0 / (1.0 + 0.3275911 * x);
    let poly = t
        * (0.254829592
            + t * (-0.284496736 + t * (1.421413741 + t * (-1.453152027 + t * 1.061405429))));
    let y = poly * (-x * x).exp();
    if sign_negative {
        2.0 - y
    } else {
        y
    }
}

impl ReceiverModel {
    /// RMS noise current in amperes at a given bit rate.
    pub fn noise_rms_a(&self, rate_gbps: f64) -> f64 {
        let bw_hz = self.bandwidth_fraction * rate_gbps * 1e9;
        self.noise_pa_per_sqrt_hz * 1e-12 * bw_hz.sqrt()
    }

    /// BER for a received *average* OOK power at a bit rate.
    pub fn ber(&self, power: OpticalPower, rate_gbps: f64) -> f64 {
        // Peak current = 2 × average (full-extinction OOK); Q = I_peak/2σ
        // ... signal distance between levels is I_peak, each level sees σ:
        // Q = I_peak / (2σ) with I_peak = 2·R·P_avg.
        let i_peak = 2.0 * self.responsivity_a_per_w * power.watts();
        let q = i_peak / (2.0 * self.noise_rms_a(rate_gbps));
        0.5 * erfc(q / std::f64::consts::SQRT_2)
    }

    /// Minimum average optical power for a BER target — the physically
    /// derived `P_min-pd` of Eq. (1).
    pub fn sensitivity(&self, rate_gbps: f64, ber_target: f64) -> OpticalPower {
        assert!((0.0..0.5).contains(&ber_target), "BER target in (0, 0.5)");
        // Invert numerically: Q grows monotonically as power rises.
        let (mut lo, mut hi): (f64, f64) = (1e-9, 1.0); // watts
        for _ in 0..200 {
            let mid = (lo * hi).sqrt();
            if self.ber(OpticalPower::from_mw(mid * 1e3), rate_gbps) > ber_target {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        OpticalPower::from_mw(hi * 1e3)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn erfc_reference_points() {
        assert!((erfc(0.0) - 1.0).abs() < 1e-7);
        assert!((erfc(1.0) - 0.157_299_2).abs() < 1e-6);
        assert!((erfc(-1.0) - 1.842_700_8).abs() < 1e-6);
        assert!(erfc(5.0) < 2e-12);
    }

    #[test]
    fn sensitivity_near_minus_20_dbm_at_10g() {
        // The crate's default Photodiode sensitivity (−20 dBm at 10 Gb/s)
        // should emerge from this receiver at a 1e-12 BER within a few dB.
        let rx = ReceiverModel::default();
        let s = rx.sensitivity(10.0, 1e-12);
        assert!(
            (-24.0..=-16.0).contains(&s.dbm()),
            "derived sensitivity {s} should be near -20 dBm"
        );
    }

    #[test]
    fn faster_rates_need_more_power() {
        let rx = ReceiverModel::default();
        let s10 = rx.sensitivity(10.0, 1e-12);
        let s40 = rx.sensitivity(40.0, 1e-12);
        // 4x bandwidth -> 2x noise -> +3 dB sensitivity.
        assert!((s40.dbm() - s10.dbm() - 3.0).abs() < 0.3);
    }

    #[test]
    fn ber_falls_monotonically_with_power() {
        let rx = ReceiverModel::default();
        let mut last = 1.0;
        for dbm in [-30.0, -25.0, -20.0, -15.0] {
            let b = rx.ber(OpticalPower::from_dbm(dbm), 10.0);
            assert!(b < last, "{dbm} dBm: {b}");
            last = b;
        }
        assert!(last < 1e-15);
    }

    #[test]
    fn tighter_ber_targets_cost_power() {
        let rx = ReceiverModel::default();
        let loose = rx.sensitivity(10.0, 1e-9);
        let tight = rx.sensitivity(10.0, 1e-15);
        assert!(tight.dbm() > loose.dbm());
        assert!(tight.dbm() - loose.dbm() < 2.0, "but only by a dB or so");
    }
}
