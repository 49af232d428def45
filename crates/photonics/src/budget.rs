//! Link loss budget and scalability — paper §III-B, Eqs. (1)–(3).
//!
//! A PSCAN segment is "a ring resonator and a section of waveguide equivalent
//! in length to the modulator pitch" (Eq. 2):
//!
//! ```text
//! L_ws = L_r-off + D_m · L_w                      (2)
//! ```
//!
//! The link closes iff `P_i − L ≥ P_min-pd` (Eq. 1), and the maximum number
//! of segments a single PSCAN can span is (Eq. 3):
//!
//! ```text
//! N ≤ (P_i − P_min-pd) / L_ws                     (3)
//! ```
//!
//! Individual segments can be chained via repeaters to form larger networks;
//! [`LinkBudget::segments_with_repeaters`] accounts for that.

use serde::Serialize;

use crate::devices::{Modulator, Photodiode};
use crate::units::{DbLoss, OpticalPower};
use crate::waveguide::Waveguide;

/// Per-segment loss `L_ws` of Eq. (2).
#[derive(Debug, Clone, Copy, Serialize)]
pub struct SegmentLoss {
    /// Off-resonance ring loss `L_r-off`.
    pub ring_off: DbLoss,
    /// Waveguide loss over one modulator pitch, `D_m · L_w`.
    pub pitch_waveguide: DbLoss,
}

impl SegmentLoss {
    /// Segment loss from a modulator pitch (mm) and a waveguide loss model.
    pub fn from_pitch(modulator: &Modulator, waveguide: &Waveguide, pitch_mm: f64) -> Self {
        SegmentLoss {
            ring_off: modulator.pass_loss(),
            pitch_waveguide: DbLoss::from_db(waveguide.loss_db_per_cm * pitch_mm / 10.0),
        }
    }

    /// Total loss per segment, `L_ws`.
    pub fn total(&self) -> DbLoss {
        self.ring_off + self.pitch_waveguide
    }
}

/// Full link budget for a PSCAN bus.
#[derive(Debug, Clone, Copy, Serialize)]
pub struct LinkBudget {
    /// Incident power at the head of the waveguide, `P_i`.
    pub input_power: OpticalPower,
    /// Receiver sensitivity, `P_min-pd`.
    pub sensitivity: OpticalPower,
    /// Per-segment loss, `L_ws`.
    pub segment: SegmentLoss,
    /// Fixed overhead: coupler + active modulator insertion + drop filter.
    pub fixed_overhead: DbLoss,
}

impl LinkBudget {
    /// Budget from device models and a layout pitch.
    pub fn new(
        laser_output: OpticalPower,
        modulator: &Modulator,
        photodiode: &Photodiode,
        waveguide: &Waveguide,
        pitch_mm: f64,
    ) -> Self {
        // One active modulator (the sender) and one drop filter (the
        // receiver) are always in the path, plus ~1 dB of coupling.
        let fixed = modulator.insertion_loss + modulator.ring.drop_loss + DbLoss::from_db(1.0);
        LinkBudget {
            input_power: laser_output,
            sensitivity: photodiode.sensitivity,
            segment: SegmentLoss::from_pitch(modulator, waveguide, pitch_mm),
            fixed_overhead: fixed,
        }
    }

    /// Total margin available for segment losses, `P_i − P_min-pd − fixed`.
    pub fn margin(&self) -> DbLoss {
        let raw = self.input_power.dbm() - self.sensitivity.dbm() - self.fixed_overhead.db();
        DbLoss::from_db(raw.max(0.0))
    }

    /// Maximum number of segments on a single (unrepeatered) PSCAN — Eq. (3).
    pub fn max_segments(&self) -> usize {
        let per = self.segment.total().db();
        if per <= 0.0 {
            return usize::MAX;
        }
        (self.margin().db() / per).floor() as usize
    }

    /// Whether a bus of `n` segments closes the link — Eq. (1).
    pub fn closes(&self, n: usize) -> bool {
        let total = self.fixed_overhead + self.segment.total() * n as f64;
        self.input_power - total >= self.sensitivity
    }

    /// Received power after `n` segments.
    pub fn received_power(&self, n: usize) -> OpticalPower {
        self.input_power - (self.fixed_overhead + self.segment.total() * n as f64)
    }

    /// Number of O-E-O repeaters needed to span `n` segments, given the
    /// unrepeatered reach from [`Self::max_segments`]. Zero when the bus
    /// closes on its own. §III-B: "individual PSCAN segments can be linked
    /// via repeaters to form larger networks."
    pub fn segments_with_repeaters(&self, n: usize) -> usize {
        let reach = self.max_segments();
        if reach == 0 {
            panic!("link budget cannot close even a single segment");
        }
        if n <= reach {
            0
        } else {
            // Each repeater restores full power for another `reach` segments.
            n.div_ceil(reach) - 1
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::devices::Laser;

    fn default_budget(pitch_mm: f64) -> LinkBudget {
        LinkBudget::new(
            Laser::default().output,
            &Modulator::default(),
            &Photodiode::default(),
            &Waveguide::new(100.0),
            pitch_mm,
        )
    }

    #[test]
    fn margin_is_input_minus_sensitivity_minus_fixed() {
        let b = default_budget(1.0);
        // 10 dBm − (−20 dBm) − (1 + 0.5 + 1) dB = 27.5 dB
        assert!((b.margin().db() - 27.5).abs() < 1e-9);
    }

    #[test]
    fn segment_loss_eq2() {
        // L_ws = L_r-off + D_m · L_w = 0.01 + 0.1 cm × 1 dB/cm = 0.11 dB
        let b = default_budget(1.0);
        assert!((b.segment.total().db() - 0.11).abs() < 1e-9);
    }

    #[test]
    fn max_segments_eq3() {
        let b = default_budget(1.0);
        // 27.5 / 0.11 = 250
        assert_eq!(b.max_segments(), 250);
        assert!(b.closes(250));
        assert!(!b.closes(251));
    }

    #[test]
    fn received_power_monotonically_decreases() {
        let b = default_budget(1.0);
        let mut last = f64::INFINITY;
        for n in [0, 10, 100, 250] {
            let p = b.received_power(n).dbm();
            assert!(p < last);
            last = p;
        }
    }

    #[test]
    fn longer_pitch_means_fewer_segments() {
        assert!(default_budget(2.0).max_segments() < default_budget(1.0).max_segments());
    }

    #[test]
    fn repeaters_extend_reach() {
        let b = default_budget(1.0);
        assert_eq!(b.segments_with_repeaters(250), 0);
        assert_eq!(b.segments_with_repeaters(251), 1);
        assert_eq!(b.segments_with_repeaters(500), 1);
        assert_eq!(b.segments_with_repeaters(501), 2);
    }

    #[test]
    fn thousand_node_bus_on_2cm_die() {
        // The Fig. 5 / Table III configuration: 1024 nodes serpentined over a
        // 2 cm × 2 cm die (~64 cm of bus). At a pessimistic 1 dB/cm the link
        // needs a couple of repeaters; at a demonstrated low-loss 0.2 dB/cm
        // it closes unrepeatered — exactly the §III-B trade the paper notes
        // ("the primary loss mechanism is attenuation in the waveguide").
        let layout = crate::waveguide::ChipLayout::square(20.0, 1024);

        let lossy = default_budget(layout.pitch_mm());
        let reps = lossy.segments_with_repeaters(1024);
        assert!(
            (1..=3).contains(&reps),
            "expected 1-3 repeaters, got {reps}"
        );

        let low_loss = LinkBudget::new(
            Laser::default().output,
            &Modulator::default(),
            &Photodiode::default(),
            &Waveguide::new(layout.bus_length_mm()).with_loss(0.2),
            layout.pitch_mm(),
        );
        assert!(
            low_loss.max_segments() >= 1024,
            "low-loss 1024-node PSCAN should close unrepeatered: reach = {}",
            low_loss.max_segments()
        );
    }
}
