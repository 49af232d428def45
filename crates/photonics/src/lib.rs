//! # photonics
//!
//! The chip-scale silicon-photonic physical layer underlying the PSCAN
//! (paper §III). This crate models everything below the network layer:
//!
//! * [`units`] — optical power in dBm/mW and loss in dB, with exact
//!   log-domain arithmetic.
//! * [`waveguide`] — propagation (≈7 cm/ns at λ = 1550 nm in silicon,
//!   paper §III), serpentine chip layouts, and per-position flight times.
//! * [`devices`] — ring resonators, modulators and photodiodes with their
//!   insertion losses, off-resonance losses and per-bit energies.
//! * [`budget`] — the link loss budget of Eqs. (1)–(3): segment loss
//!   `L_ws = L_r-off + D_m·L_w` and the maximum segment count
//!   `N ≤ (P_i − P_min-pd) / L_ws`.
//! * [`wdm`] — wavelength-division multiplexing plans (the paper's PSCAN
//!   link is 32 λ × 10 Gb/s = 320 Gb/s).
//! * [`clock`] — open-loop photonic clock distribution with *deliberate*
//!   per-node phase skew equal to the optical flight time (paper §III-A).
//! * [`energy`] — the photonic energy-per-bit model used for the Fig. 5
//!   comparison against the electronic mesh.

pub mod budget;
pub mod clock;
pub mod devices;
pub mod energy;
pub mod spectrum;
pub mod units;
pub mod waveguide;
pub mod wdm;

pub use budget::LinkBudget;
pub use clock::PhotonicClock;
pub use devices::{Modulator, Photodiode};
pub use energy::PhotonicEnergyModel;
pub use spectrum::{check_plan, RingSpectrum};
pub use units::OpticalPower;
pub use waveguide::{ChipLayout, Waveguide};
pub use wdm::WavelengthPlan;
