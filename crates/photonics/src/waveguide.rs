//! Waveguide propagation and chip layout.
//!
//! The paper (§III) gives the one physical fact the whole architecture rests
//! on: 1550 nm light travels ≈ 7 cm/ns in a silicon waveguide and the speed
//! is **independent of the waveguide length** — only loss accumulates with
//! distance. [`Waveguide`] converts positions to flight times exactly (in
//! integer picoseconds via a rational mm-per-ps representation), and
//! [`ChipLayout`] places `n` evenly pitched node taps along a serpentine bus
//! on a fixed-size die, which is how the PSCAN reaches every processor.

use serde::Serialize;
use sim_core::time::Duration;

use crate::units::DbLoss;

/// Propagation speed of light in a silicon waveguide, in mm per ns.
///
/// The paper's figure: "Light with a wavelength of 1550 nm ... will travel
/// approximately 7 cm/ns in a silicon waveguide" (group index ≈ 4.3).
pub const SPEED_MM_PER_NS: f64 = 70.0;

/// A straight run of waveguide with a length and a per-length loss.
#[derive(Debug, Clone, Copy, Serialize)]
pub struct Waveguide {
    /// Physical length in millimetres.
    pub length_mm: f64,
    /// Propagation loss in dB per centimetre (≈ 1 dB/cm for typical
    /// early-2010s silicon strip waveguides).
    pub loss_db_per_cm: f64,
}

impl Waveguide {
    /// A waveguide of `length_mm` with the default 1 dB/cm loss.
    pub fn new(length_mm: f64) -> Self {
        assert!(length_mm >= 0.0, "waveguide length must be non-negative");
        Waveguide {
            length_mm,
            loss_db_per_cm: 1.0,
        }
    }

    /// Same geometry, different propagation loss.
    pub fn with_loss(mut self, db_per_cm: f64) -> Self {
        assert!(db_per_cm >= 0.0);
        self.loss_db_per_cm = db_per_cm;
        self
    }

    /// One-way flight time over the full length.
    pub fn flight_time(&self) -> Duration {
        flight_time_mm(self.length_mm)
    }

    /// Total propagation loss over the full length.
    pub fn loss(&self) -> DbLoss {
        DbLoss::from_db(self.loss_db_per_cm * self.length_mm / 10.0)
    }

    /// Loss over a partial run of `mm` millimetres.
    pub fn loss_over(&self, mm: f64) -> DbLoss {
        assert!(
            (0.0..=self.length_mm + 1e-9).contains(&mm),
            "position {mm} mm outside waveguide of {} mm",
            self.length_mm
        );
        DbLoss::from_db(self.loss_db_per_cm * mm / 10.0)
    }
}

/// Flight time for a distance along a silicon waveguide.
///
/// 70 mm/ns = 0.070 mm/ps, so `t_ps = mm / 0.070`. Rounded to the nearest
/// picosecond; at a 100 ps bit slot (10 Gb/s) this rounding is < 1 % of a
/// slot and absorbed by the per-node constant skew the paper describes.
pub fn flight_time_mm(mm: f64) -> Duration {
    assert!(mm >= 0.0, "distance must be non-negative");
    Duration::from_ps((mm / SPEED_MM_PER_NS * 1e3).round() as u64)
}

/// Placement of `n` node taps along a serpentine waveguide crossing a die.
///
/// The PSCAN "must traverse a chip in a serpentine pattern" (§III-B). We
/// model the serpentine as `rows` horizontal passes of the die width joined
/// by short turns; taps are evenly pitched along the unrolled length, which
/// is the paper's "modulators are evenly spaced along the waveguide"
/// assumption.
#[derive(Debug, Clone, Serialize)]
pub struct ChipLayout {
    /// Die edge in millimetres (paper fixes 2 cm × 2 cm for Fig. 5).
    pub die_mm: f64,
    /// Number of serpentine passes across the die.
    pub rows: usize,
    /// Number of node taps.
    pub nodes: usize,
    /// Extra waveguide length per 180° turn, in millimetres.
    pub turn_mm: f64,
}

impl ChipLayout {
    /// Serpentine layout for `nodes` taps on a square die of `die_mm`,
    /// using √nodes passes (one per processor row of a square array).
    pub fn square(die_mm: f64, nodes: usize) -> Self {
        assert!(nodes > 0, "need at least one node");
        let rows = (nodes as f64).sqrt().ceil() as usize;
        ChipLayout {
            die_mm,
            rows: rows.max(1),
            nodes,
            turn_mm: 0.1,
        }
    }

    /// Total unrolled bus length in millimetres.
    pub fn bus_length_mm(&self) -> f64 {
        let straight = self.die_mm * self.rows as f64;
        let turns = self.turn_mm * self.rows.saturating_sub(1) as f64;
        straight + turns
    }

    /// Position of tap `i` (0-based) along the unrolled bus, in millimetres.
    ///
    /// Taps are evenly pitched with half-pitch margins at both ends, so the
    /// inter-tap pitch equals `bus_length / nodes` — the `D_m` of Eq. (2).
    pub fn tap_position_mm(&self, i: usize) -> f64 {
        assert!(
            i < self.nodes,
            "tap {i} out of range ({} nodes)",
            self.nodes
        );
        let pitch = self.pitch_mm();
        pitch * (i as f64 + 0.5)
    }

    /// Inter-tap pitch `D_m` in millimetres.
    pub fn pitch_mm(&self) -> f64 {
        self.bus_length_mm() / self.nodes as f64
    }

    /// Flight time from the bus head (position 0) to tap `i`.
    pub fn flight_to_tap(&self, i: usize) -> Duration {
        flight_time_mm(self.tap_position_mm(i))
    }

    /// Flight time between taps `i` and `j` (i ≤ j).
    pub fn flight_between(&self, i: usize, j: usize) -> Duration {
        assert!(i <= j, "flight_between expects i <= j");
        flight_time_mm(self.tap_position_mm(j) - self.tap_position_mm(i))
    }

    /// Flight time over the entire bus.
    pub fn end_to_end(&self) -> Duration {
        flight_time_mm(self.bus_length_mm())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seven_cm_per_ns() {
        // 70 mm should take exactly 1 ns.
        assert_eq!(flight_time_mm(70.0), Duration::from_ns(1));
        // 7 mm -> 100 ps, one 10 Gb/s bit slot.
        assert_eq!(flight_time_mm(7.0), Duration::from_ps(100));
    }

    #[test]
    fn waveguide_loss_scales_with_length() {
        let wg = Waveguide::new(20.0); // 2 cm at 1 dB/cm
        assert!((wg.loss().db() - 2.0).abs() < 1e-12);
        assert!((wg.loss_over(10.0).db() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn waveguide_custom_loss() {
        let wg = Waveguide::new(10.0).with_loss(0.5);
        assert!((wg.loss().db() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn serpentine_length() {
        let l = ChipLayout::square(20.0, 16); // 4 passes of 20 mm + 3 turns
        assert_eq!(l.rows, 4);
        assert!((l.bus_length_mm() - (80.0 + 0.3)).abs() < 1e-9);
    }

    #[test]
    fn taps_are_evenly_pitched_and_ordered() {
        let l = ChipLayout::square(20.0, 64);
        let pitch = l.pitch_mm();
        for i in 0..64 {
            let p = l.tap_position_mm(i);
            assert!((p - pitch * (i as f64 + 0.5)).abs() < 1e-9);
            if i > 0 {
                assert!(p > l.tap_position_mm(i - 1));
            }
        }
        // Last tap is inside the bus.
        assert!(l.tap_position_mm(63) < l.bus_length_mm());
    }

    #[test]
    fn flight_between_is_consistent() {
        let l = ChipLayout::square(20.0, 16);
        let a = l.flight_to_tap(3).as_ps();
        let b = l.flight_to_tap(9).as_ps();
        let d = l.flight_between(3, 9).as_ps();
        // Rounding each leg independently can differ by at most 1 ps.
        assert!((b - a).abs_diff(d) <= 1);
    }

    #[test]
    fn single_node_layout() {
        let l = ChipLayout::square(20.0, 1);
        assert_eq!(l.rows, 1);
        assert!((l.tap_position_mm(0) - l.bus_length_mm() / 2.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn tap_bounds_checked() {
        ChipLayout::square(20.0, 4).tap_position_mm(4);
    }
}
