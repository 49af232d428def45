//! Ring spectral response and WDM channel-plan validation.
//!
//! The PSCAN's 32-wavelength plan only works if 32 ring filters fit inside
//! one free spectral range with acceptable inter-channel crosstalk. This
//! module models the add–drop ring's Lorentzian response and checks a
//! [`crate::wdm::WavelengthPlan`] against it — the physical-design check
//! behind the paper's "32 wavelengths each modulated at 10 Gb/s".

use crate::units::DbLoss;

/// Speed of light in vacuum, m/s.
pub(crate) const C_M_PER_S: f64 = 299_792_458.0;

/// Spectral model of one add–drop ring resonator.
#[derive(Debug, Clone, Copy)]
pub struct RingSpectrum {
    /// Resonance (centre) wavelength in nm. The paper's band: 1550 nm.
    pub center_nm: f64,
    /// Loaded quality factor. Typical WDM channel filter: ~20 000
    /// (≈ 10 GHz linewidth at 1550 nm, matched to 10 Gb/s OOK).
    pub q: f64,
    /// Ring circumference in µm (sets the FSR). Typical: ~30 µm.
    pub circumference_um: f64,
    /// Group index of the ring waveguide (≈ 4.3 in silicon).
    pub group_index: f64,
}

impl Default for RingSpectrum {
    fn default() -> Self {
        RingSpectrum {
            center_nm: 1550.0,
            q: 20_000.0,
            circumference_um: 30.0,
            group_index: 4.3,
        }
    }
}

impl RingSpectrum {
    /// Full width at half maximum of the resonance, in GHz.
    /// `FWHM = f₀ / Q`.
    pub(crate) fn fwhm_ghz(&self) -> f64 {
        self.center_freq_ghz() / self.q
    }

    /// Centre frequency in GHz.
    pub(crate) fn center_freq_ghz(&self) -> f64 {
        C_M_PER_S / (self.center_nm * 1e-9) / 1e9
    }

    /// Free spectral range in GHz: `FSR = c / (n_g · L)`.
    pub(crate) fn fsr_ghz(&self) -> f64 {
        C_M_PER_S / (self.group_index * self.circumference_um * 1e-6) / 1e9
    }

    /// Drop-port power transmission at a detuning of `delta_ghz` from
    /// resonance — a Lorentzian: `D(δ) = 1 / (1 + (2δ/FWHM)²)`.
    pub(crate) fn drop_transmission(&self, delta_ghz: f64) -> f64 {
        let x = 2.0 * delta_ghz / self.fwhm_ghz();
        1.0 / (1.0 + x * x)
    }

    /// Crosstalk picked up from a neighbour channel `spacing_ghz` away, as
    /// a (positive) suppression in dB — bigger is better.
    pub(crate) fn crosstalk_suppression_db(&self, spacing_ghz: f64) -> f64 {
        -10.0 * self.drop_transmission(spacing_ghz).log10()
    }
}

/// Result of validating a WDM plan against a ring design.
#[derive(Debug, Clone)]
pub struct PlanCheck {
    /// Channel spacing in GHz.
    pub spacing_ghz: f64,
    /// Total plan width vs one FSR (must be < 1.0 to avoid aliasing).
    pub fsr_occupancy: f64,
    /// Worst-case adjacent-channel crosstalk suppression, dB.
    pub adjacent_suppression_db: f64,
    /// Aggregate crosstalk from *all* other channels at the worst channel,
    /// as a power ratio.
    pub aggregate_crosstalk: f64,
    /// Whether the plan is feasible: fits in an FSR and keeps aggregate
    /// crosstalk below −15 dB.
    pub feasible: bool,
}

/// Check `channels` equally spaced channels of `spacing_ghz` against `ring`.
pub fn check_plan(ring: &RingSpectrum, channels: usize, spacing_ghz: f64) -> PlanCheck {
    assert!(channels >= 1 && spacing_ghz > 0.0);
    let width = spacing_ghz * channels as f64;
    let fsr_occupancy = width / ring.fsr_ghz();
    // Worst channel is in the middle: neighbours on both sides.
    let mid = channels / 2;
    let mut aggregate = 0.0;
    for ch in 0..channels {
        if ch == mid {
            continue;
        }
        let delta = (ch as f64 - mid as f64).abs() * spacing_ghz;
        aggregate += ring.drop_transmission(delta);
    }
    PlanCheck {
        spacing_ghz,
        fsr_occupancy,
        adjacent_suppression_db: ring.crosstalk_suppression_db(spacing_ghz),
        aggregate_crosstalk: aggregate,
        feasible: fsr_occupancy < 1.0 && aggregate < 10f64.powf(-1.5),
    }
}

/// The extra optical power (dB) needed to overcome aggregate crosstalk — a
/// simple power penalty `−10·log₁₀(1 − Σxtalk)`.
pub fn crosstalk_power_penalty(check: &PlanCheck) -> DbLoss {
    let arg: f64 = 1.0 - check.aggregate_crosstalk;
    assert!(arg > 0.0, "crosstalk exceeds unity: infeasible plan");
    DbLoss::from_db(-10.0 * arg.log10())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn resonance_numbers_are_physical() {
        let r = RingSpectrum::default();
        // 1550 nm -> ~193 THz.
        assert!((r.center_freq_ghz() - 193_414.0).abs() < 100.0);
        // Q = 20k -> FWHM ~ 9.7 GHz.
        assert!((r.fwhm_ghz() - 9.67).abs() < 0.05);
        // 30 um ring at ng 4.3 -> FSR ~ 2.3 THz.
        assert!((r.fsr_ghz() - 2324.0).abs() < 10.0);
    }

    #[test]
    fn lorentzian_shape() {
        let r = RingSpectrum::default();
        assert!((r.drop_transmission(0.0) - 1.0).abs() < 1e-12);
        // At half-width detuning, transmission is 1/2.
        let hw = r.fwhm_ghz() / 2.0;
        assert!((r.drop_transmission(hw) - 0.5).abs() < 1e-12);
        // Through + drop = 1.
    }

    #[test]
    fn paper_32_channel_plan_is_feasible() {
        // 32 channels on a 2.3 THz FSR -> up to ~72 GHz spacing; take a
        // standard 50 GHz grid (plenty for 10 Gb/s modulation).
        let r = RingSpectrum::default();
        let check = check_plan(&r, 32, 50.0);
        assert!(
            check.fsr_occupancy < 0.7,
            "occupancy {}",
            check.fsr_occupancy
        );
        assert!(
            check.adjacent_suppression_db > 13.0,
            "adjacent suppression {}",
            check.adjacent_suppression_db
        );
        assert!(check.feasible, "{check:?}");
        // The power penalty is a fraction of a dB.
        assert!(crosstalk_power_penalty(&check).db() < 0.5);
    }

    #[test]
    fn dense_plans_become_infeasible() {
        let r = RingSpectrum::default();
        // 5 GHz spacing: neighbours sit inside the resonance linewidth.
        let check = check_plan(&r, 32, 5.0);
        assert!(!check.feasible);
        assert!(check.aggregate_crosstalk > 0.1);
    }

    #[test]
    fn too_many_channels_overflow_the_fsr() {
        let r = RingSpectrum::default();
        let check = check_plan(&r, 64, 40.0);
        assert!(check.fsr_occupancy > 1.0);
        assert!(!check.feasible);
    }

    #[test]
    fn suppression_grows_with_spacing() {
        let r = RingSpectrum::default();
        let near = r.crosstalk_suppression_db(25.0);
        let far = r.crosstalk_suppression_db(100.0);
        assert!(far > near + 10.0);
    }
}
