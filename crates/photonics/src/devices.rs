//! Photonic devices: ring resonators, modulators, photodiodes.
//!
//! A PSCAN node tap consists of a ring-resonator modulator (to drive data
//! onto the bus) and a drop filter + photodiode (to detect the clock and,
//! on SCA⁻¹, the data). Device parameters default to values representative
//! of the 2010–2013 silicon-photonics literature the paper builds on
//! (PhoenixSim-era device models).

use crate::units::{DbLoss, OpticalPower};

/// A ring resonator used as a filter or as the tuned element of a modulator.
#[derive(Debug, Clone, Copy)]
pub struct RingResonator {
    /// Loss imposed on *passing* light when the ring is off-resonance
    /// (`L_r-off` of Eq. 2). Typical: 0.01 dB.
    pub off_resonance_loss: DbLoss,
    /// Loss imposed on light dropped *through* the ring when on-resonance.
    /// Typical: 0.5 dB.
    pub drop_loss: DbLoss,
    /// Static thermal-tuning power required to hold resonance, in
    /// microwatts. 10 µW/ring, in line with the 2010–2013 photonic-NoC
    /// literature's assumptions (e.g. the Clos/Corona-era studies).
    pub tuning_power_uw: f64,
}

impl Default for RingResonator {
    fn default() -> Self {
        RingResonator {
            off_resonance_loss: DbLoss::from_db(0.01),
            drop_loss: DbLoss::from_db(0.5),
            tuning_power_uw: 10.0,
        }
    }
}

/// An electro-optic ring modulator.
#[derive(Debug, Clone, Copy)]
pub struct Modulator {
    /// The ring element (contributes `L_r-off` when idle).
    pub ring: RingResonator,
    /// Insertion loss while actively modulating, in dB. Typical: 1 dB.
    pub insertion_loss: DbLoss,
    /// Dynamic energy per modulated bit, in femtojoules. Typical: 85 fJ/bit.
    pub energy_fj_per_bit: f64,
    /// Maximum modulation rate in Gb/s. Paper: 10 Gb/s per wavelength.
    pub max_rate_gbps: f64,
    /// Extinction ratio in dB (logic-1 vs logic-0 optical power).
    pub extinction_db: f64,
}

impl Default for Modulator {
    fn default() -> Self {
        Modulator {
            ring: RingResonator::default(),
            insertion_loss: DbLoss::from_db(1.0),
            energy_fj_per_bit: 85.0,
            max_rate_gbps: 10.0,
            extinction_db: 10.0,
        }
    }
}

impl Modulator {
    /// Loss seen by light passing this tap while the modulator is *idle*.
    pub(crate) fn pass_loss(&self) -> DbLoss {
        self.ring.off_resonance_loss
    }
}

/// A photodiode receiver (including its TIA front-end).
#[derive(Debug, Clone, Copy)]
pub struct Photodiode {
    /// Minimum detectable power `P_min-pd` at the design bit rate.
    /// Typical: −20 dBm at 10 Gb/s.
    pub sensitivity: OpticalPower,
    /// Receiver energy per bit, in femtojoules. Typical: 100 fJ/bit
    /// (photodiode + TIA + clocked sampler).
    pub energy_fj_per_bit: f64,
}

impl Default for Photodiode {
    fn default() -> Self {
        Photodiode {
            sensitivity: OpticalPower::from_dbm(-20.0),
            energy_fj_per_bit: 100.0,
        }
    }
}

impl Photodiode {}

/// A continuous-wave laser source driving one wavelength.
#[derive(Debug, Clone, Copy)]
pub struct Laser {
    /// Optical power coupled onto the waveguide, per wavelength.
    pub output: OpticalPower,
    /// Wall-plug efficiency: optical watts out per electrical watt in.
    /// Typical for off-chip DFB + coupler: 0.1 (10 %).
    pub wall_plug_efficiency: f64,
}

impl Default for Laser {
    fn default() -> Self {
        Laser {
            output: OpticalPower::from_dbm(10.0),
            wall_plug_efficiency: 0.1,
        }
    }
}

impl Laser {
    /// Electrical power drawn, in watts.
    pub(crate) fn electrical_watts(&self) -> f64 {
        assert!(
            self.wall_plug_efficiency > 0.0,
            "wall-plug efficiency must be positive"
        );
        self.output.watts() / self.wall_plug_efficiency
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn modulator_pass_loss_is_off_resonance() {
        let m = Modulator::default();
        assert!((m.pass_loss().db() - 0.01).abs() < 1e-12);
    }

    #[test]
    fn laser_wall_plug() {
        let l = Laser {
            output: OpticalPower::from_dbm(0.0), // 1 mW optical
            wall_plug_efficiency: 0.1,
        };
        assert!((l.electrical_watts() - 0.01).abs() < 1e-12); // 10 mW electrical
    }

    #[test]
    fn defaults_are_sane() {
        let r = RingResonator::default();
        assert!(r.off_resonance_loss.db() < r.drop_loss.db());
        let m = Modulator::default();
        assert!(m.max_rate_gbps > 0.0 && m.extinction_db > 0.0);
    }
}
