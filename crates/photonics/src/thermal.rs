//! Thermal tuning of ring resonators.
//!
//! Rings drift ~10 GHz/K in silicon; microheaters hold each ring on its
//! channel. Tuning power therefore depends on the die's temperature
//! non-uniformity, and — as the Fig. 5 energy results show — at a thousand
//! taps × 33 rings the heater budget becomes a first-order term of the
//! PSCAN's energy per bit. This module models that budget.

use serde::Serialize;

/// Thermal tuning model for one ring.
#[derive(Debug, Clone, Copy, Serialize)]
pub struct ThermalModel {
    /// Resonance drift per kelvin, GHz/K (silicon: ≈ 10).
    pub drift_ghz_per_k: f64,
    /// Heater efficiency: microwatts of heater power per GHz of shift.
    /// Typical undercut heaters: ~1–3 µW/GHz.
    pub heater_uw_per_ghz: f64,
    /// Worst-case fabrication detuning to trim out, GHz.
    pub fab_detuning_ghz: f64,
}

impl Default for ThermalModel {
    fn default() -> Self {
        ThermalModel {
            drift_ghz_per_k: 10.0,
            heater_uw_per_ghz: 2.0,
            fab_detuning_ghz: 50.0,
        }
    }
}

impl ThermalModel {
    /// Heater power (µW) to hold one ring on channel given a local
    /// temperature offset of `delta_t_k` kelvin from the calibration point.
    ///
    /// Heaters can only shift one way (red), so the budget covers the
    /// fabrication trim plus the worst-case thermal swing.
    pub fn per_ring_uw(&self, delta_t_k: f64) -> f64 {
        let thermal_shift = self.drift_ghz_per_k * delta_t_k.abs();
        (self.fab_detuning_ghz + thermal_shift) * self.heater_uw_per_ghz
    }

    /// Total tuning power in watts for a PSCAN with `taps` taps of
    /// `rings_per_tap` rings under a die temperature spread of
    /// `spread_k` kelvin (rings see offsets up to the full spread).
    pub fn bus_tuning_watts(&self, taps: usize, rings_per_tap: usize, spread_k: f64) -> f64 {
        taps as f64 * rings_per_tap as f64 * self.per_ring_uw(spread_k) * 1e-6
    }

    /// Tuning energy per bit in picojoules for an aggregate data rate.
    pub fn tuning_pj_per_bit(
        &self,
        taps: usize,
        rings_per_tap: usize,
        spread_k: f64,
        aggregate_gbps: f64,
    ) -> f64 {
        assert!(aggregate_gbps > 0.0);
        self.bus_tuning_watts(taps, rings_per_tap, spread_k) / (aggregate_gbps * 1e9) * 1e12
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn per_ring_power_scales_with_temperature() {
        let m = ThermalModel::default();
        let cold = m.per_ring_uw(0.0); // trim only: 50 GHz x 2 uW/GHz
        assert!((cold - 100.0).abs() < 1e-9);
        let hot = m.per_ring_uw(10.0); // + 100 GHz thermal
        assert!((hot - 300.0).abs() < 1e-9);
        assert_eq!(m.per_ring_uw(-10.0), hot, "symmetric in |dT|");
    }

    #[test]
    fn bus_budget_at_paper_scale() {
        // 1024 taps x 33 rings, 5 K spread: each ring 200 uW ->
        // ~6.8 W of heaters. This is why Fig. 5's advantage erodes at
        // 1024 nodes.
        let m = ThermalModel::default();
        let w = m.bus_tuning_watts(1024, 33, 5.0);
        assert!((w - 1024.0 * 33.0 * 200e-6).abs() < 1e-9);
        let pj = m.tuning_pj_per_bit(1024, 33, 5.0, 320.0);
        assert!(pj > 10.0, "tuning dominates at scale: {pj} pJ/bit");
    }

    #[test]
    fn small_bus_is_cheap() {
        let m = ThermalModel::default();
        let pj = m.tuning_pj_per_bit(16, 33, 2.0, 320.0);
        assert!(pj < 0.5, "{pj}");
    }

    #[test]
    fn athermal_trim_free_limit() {
        // A perfectly trimmed, temperature-stabilized design costs nothing.
        let m = ThermalModel {
            fab_detuning_ghz: 0.0,
            ..Default::default()
        };
        assert_eq!(m.per_ring_uw(0.0), 0.0);
    }
}
