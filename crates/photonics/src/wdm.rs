//! Wavelength-division multiplexing plans.
//!
//! The paper's PSCAN link is "composed of 32 wavelengths each modulated at
//! 10 Gb/s" for 320 Gb/s aggregate (§III-C). A [`WavelengthPlan`] assigns
//! roles to wavelengths: one clock wavelength `λ_c` plus a set of data
//! wavelengths `λ_d` (paper §III, Fig. 4), and converts between bit slots,
//! bus words and wall-clock time.

use serde::Serialize;
use sim_core::time::Duration;

/// Role a wavelength plays on the PSCAN bus.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum WavelengthRole {
    /// Carries the modulated global clock (`λ_c`).
    Clock,
    /// Carries data (`λ_d`).
    Data,
}

/// A WDM channel plan for one PSCAN bus.
#[derive(Debug, Clone, Serialize)]
pub struct WavelengthPlan {
    /// Number of data wavelengths.
    pub data_lambdas: usize,
    /// Modulation rate per wavelength in Gb/s.
    pub rate_gbps_per_lambda: f64,
    /// Whether the clock rides the data waveguide (single-waveguide design)
    /// or a path-length-matched parallel waveguide (§III-A discusses both).
    pub clock_on_same_waveguide: bool,
}

impl WavelengthPlan {
    /// The paper's evaluation plan: 32 λ × 10 Gb/s = 320 Gb/s, clock on a
    /// parallel path-length-matched waveguide.
    pub fn paper_320g() -> Self {
        WavelengthPlan {
            data_lambdas: 32,
            rate_gbps_per_lambda: 10.0,
            clock_on_same_waveguide: false,
        }
    }

    /// A plan with `n` data wavelengths at `rate` Gb/s each.
    pub fn new(n: usize, rate: f64) -> Self {
        assert!(n > 0, "need at least one data wavelength");
        assert!(rate > 0.0, "rate must be positive");
        WavelengthPlan {
            data_lambdas: n,
            rate_gbps_per_lambda: rate,
            clock_on_same_waveguide: false,
        }
    }

    /// Aggregate bandwidth in Gb/s.
    pub fn aggregate_gbps(&self) -> f64 {
        self.data_lambdas as f64 * self.rate_gbps_per_lambda
    }

    /// Duration of one bit slot on a single wavelength.
    pub fn slot(&self) -> Duration {
        Duration::from_freq_ghz(self.rate_gbps_per_lambda)
    }

    /// Bits carried across all data wavelengths in one slot (a "bus word").
    pub fn bits_per_slot(&self) -> u64 {
        self.data_lambdas as u64
    }

    /// Number of slots (bus cycles) to carry `bits` bits, rounded up.
    pub fn slots_for_bits(&self, bits: u64) -> u64 {
        bits.div_ceil(self.bits_per_slot())
    }

    /// Time to carry `bits` bits at full utilization.
    pub fn time_for_bits(&self, bits: u64) -> Duration {
        self.slot() * self.slots_for_bits(bits)
    }

    /// Total rings per node tap: one modulator ring per data wavelength plus
    /// one clock drop filter.
    pub fn rings_per_tap(&self) -> usize {
        self.data_lambdas + 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_plan_is_320_gbps() {
        let p = WavelengthPlan::paper_320g();
        assert_eq!(p.data_lambdas, 32);
        assert!((p.aggregate_gbps() - 320.0).abs() < 1e-12);
        assert_eq!(p.slot().as_ps(), 100);
        assert_eq!(p.bits_per_slot(), 32);
    }

    #[test]
    fn slots_round_up() {
        let p = WavelengthPlan::paper_320g();
        assert_eq!(p.slots_for_bits(0), 0);
        assert_eq!(p.slots_for_bits(1), 1);
        assert_eq!(p.slots_for_bits(32), 1);
        assert_eq!(p.slots_for_bits(33), 2);
        // A 64-bit FFT sample takes 2 slots = 200 ps.
        assert_eq!(p.time_for_bits(64).as_ps(), 200);
    }

    #[test]
    fn a_2048_bit_dram_row_takes_64_slots() {
        // Cross-check with the Table III parameters: S_r = 2048 bits on a
        // 32-bit-wide bus word -> 64 bus cycles of payload.
        let p = WavelengthPlan::paper_320g();
        assert_eq!(p.slots_for_bits(2048), 64);
    }

    #[test]
    fn rings_include_clock_filter() {
        assert_eq!(WavelengthPlan::paper_320g().rings_per_tap(), 33);
    }

    #[test]
    fn custom_plan() {
        let p = WavelengthPlan::new(64, 10.0);
        assert!((p.aggregate_gbps() - 640.0).abs() < 1e-12);
    }
}
