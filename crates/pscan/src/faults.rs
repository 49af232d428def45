//! Photonic fault model for the PSCAN: BER-derived word corruption, and the
//! link-layer recovery protocol (CRC per gather + bounded retry).
//!
//! The physical chain is: thermal drift detunes the receive rings →
//! residual detuning attenuates the dropped optical power → the receiver's
//! BER rises ([`photonics::ber::ReceiverModel`]) → a 64-bit bus word is
//! corrupted with probability `1 − (1 − BER)^bits`. Corruption is injected
//! deterministically through a seeded [`FaultSite`], so every faulty run is
//! exactly reproducible.
//!
//! Recovery: the terminus CRCs each coalesced burst against the CRC the
//! communication programs committed to ([`crate::crc`]); a mismatch triggers
//! a retry after an exponential backoff in bus slots, bounded by
//! `max_retries` — at which point the *protocol* layer (psync) must re-issue
//! the SCA pass or surface the failure.

use photonics::ber::ReceiverModel;
use photonics::thermal::ThermalModel;
use photonics::units::OpticalPower;
use photonics::wdm::WavelengthPlan;
use serde::Serialize;
use sim_core::faults::{FaultSite, FaultStats};

/// Stream index of the terminus-receiver fault site under the config seed.
const STREAM_TERMINUS: u64 = 0;

/// Fault-injection knobs for one PSCAN instance.
#[derive(Debug, Clone, Copy, Serialize)]
pub struct PscanFaultConfig {
    /// Experiment seed; all fault streams derive from it.
    pub seed: u64,
    /// Probability an individual received bus word is corrupted.
    pub word_error_rate: f64,
    /// Link-layer retries per gather before giving up.
    pub max_retries: u32,
    /// First retry waits this many bus slots; each further retry doubles it.
    pub backoff_base_slots: u64,
    /// Backoff ceiling in bus slots.
    pub backoff_cap_slots: u64,
}

impl Default for PscanFaultConfig {
    fn default() -> Self {
        PscanFaultConfig {
            seed: 0,
            word_error_rate: 0.0,
            max_retries: 8,
            backoff_base_slots: 4,
            backoff_cap_slots: 1024,
        }
    }
}

impl PscanFaultConfig {
    /// Derive the word error rate from receiver physics: `rate_gbps` per-λ
    /// modulation and an average received power give a BER, and a bus word
    /// of `bits_per_slot` bits survives only if every bit does.
    pub fn from_physics(
        rx: &ReceiverModel,
        received: OpticalPower,
        plan: &WavelengthPlan,
        seed: u64,
    ) -> Self {
        let ber = rx.ber(received, plan.rate_gbps_per_lambda);
        let bits = plan.bits_per_slot() as f64;
        // 1 − (1 − BER)^bits, computed stably for tiny BER.
        let word_error_rate = -((1.0 - ber).ln() * bits).exp_m1();
        PscanFaultConfig {
            seed,
            word_error_rate: word_error_rate.clamp(0.0, 1.0),
            ..Default::default()
        }
    }

    /// Derate the received power for uncompensated thermal drift before
    /// deriving the word error rate.
    ///
    /// A ring detuned by `Δf` from its channel drops less power; for a
    /// Lorentzian resonance of `linewidth_ghz` FWHM the penalty is
    /// `10·log₁₀(1 + (2Δf/FWHM)²)` dB. `Δf` is the thermal drift of
    /// `delta_t_k` kelvin times the *uncompensated* fraction
    /// `(1 − compensation)` of the heater servo.
    #[allow(clippy::too_many_arguments)]
    pub fn from_thermal_physics(
        rx: &ReceiverModel,
        thermal: &ThermalModel,
        received: OpticalPower,
        linewidth_ghz: f64,
        delta_t_k: f64,
        compensation: f64,
        plan: &WavelengthPlan,
        seed: u64,
    ) -> Self {
        assert!(linewidth_ghz > 0.0);
        assert!((0.0..=1.0).contains(&compensation));
        let residual_ghz = thermal.drift_ghz_per_k * delta_t_k.abs() * (1.0 - compensation);
        let penalty_db = 10.0 * (1.0 + (2.0 * residual_ghz / linewidth_ghz).powi(2)).log10();
        let derated = OpticalPower::from_dbm(received.dbm() - penalty_db);
        PscanFaultConfig::from_physics(rx, derated, plan, seed)
    }

    /// Backoff before retry `attempt` (1-based), in bus slots: exponential,
    /// capped.
    pub fn backoff_slots(&self, attempt: u32) -> u64 {
        let shift = attempt.saturating_sub(1).min(32);
        (self.backoff_base_slots << shift).min(self.backoff_cap_slots)
    }
}

/// Mutable fault state carried by a [`crate::network::Pscan`].
#[derive(Debug, Clone)]
pub struct PscanFaultState {
    /// The configuration.
    pub cfg: PscanFaultConfig,
    /// Corruption process at the terminus receiver.
    pub terminus: FaultSite,
    /// Aggregate counters across all transactions.
    pub stats: FaultStats,
}

impl PscanFaultState {
    /// Build the state for `cfg`.
    pub fn new(cfg: PscanFaultConfig) -> Self {
        PscanFaultState {
            terminus: FaultSite::new(cfg.seed, STREAM_TERMINUS, cfg.word_error_rate),
            cfg,
            stats: FaultStats::default(),
        }
    }

    /// Corrupt `word` in place if the terminus site fires; returns whether
    /// it did.
    pub fn corrupt(&mut self, word: &mut u64) -> bool {
        if !self.terminus.fire() {
            return false;
        }
        let bit = self.terminus.draw_bit(64);
        *word ^= 1u64 << bit;
        self.stats.injected += 1;
        true
    }
}

/// Outcome of a CRC-checked gather (see `Pscan::gather_reliable`).
#[derive(Debug, Clone)]
pub struct ReliableGatherOutcome {
    /// The bus outcome of the final (accepted) attempt, with received words
    /// as the terminus actually decoded them.
    pub outcome: crate::bus::GatherOutcome,
    /// Total gather attempts (1 = clean first pass).
    pub attempts: u32,
    /// CRC failures, i.e. `attempts - 1` for a successful transaction.
    pub retries: u32,
    /// Corrupted words observed across all attempts.
    pub corrupted_words: u64,
    /// Bus slots spent backing off between attempts.
    pub backoff_slots: u64,
    /// Total slots the transaction occupied the bus: every attempt's burst
    /// plus the backoffs.
    pub slots_on_bus: u64,
    /// Corrupted-word count attributed to the node whose CP drove the slot —
    /// the per-CP error counters a real head node would expose.
    pub errors_by_node: Vec<u64>,
    /// CRC of the accepted burst.
    pub crc: u32,
}

/// Structured error from the fault-aware PSCAN paths.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PscanError {
    /// The underlying bus rejected the transaction (CP bug, collision…).
    Bus(crate::bus::BusError),
    /// CRC failed on every attempt; the link-layer retry budget is spent.
    RetriesExhausted {
        /// Attempts made (= 1 + max_retries).
        attempts: u32,
        /// Corrupted words observed over all attempts.
        corrupted_words: u64,
    },
    /// The transaction was interrupted by the installed
    /// [`sim_core::cancel::Interrupt`] between gather attempts.
    Cancelled {
        /// The attempt the interrupt fired before (1 = before any pass).
        attempt: u32,
        /// Which interrupt source fired.
        cause: sim_core::cancel::CancelCause,
    },
}

impl std::fmt::Display for PscanError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PscanError::Bus(e) => write!(f, "bus error: {e}"),
            PscanError::RetriesExhausted {
                attempts,
                corrupted_words,
            } => write!(
                f,
                "gather CRC failed on all {attempts} attempts ({corrupted_words} corrupted words)"
            ),
            PscanError::Cancelled { attempt, cause } => {
                write!(f, "gather Cancelled before attempt {attempt} ({cause})")
            }
        }
    }
}

impl std::error::Error for PscanError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            PscanError::Bus(e) => Some(e),
            PscanError::RetriesExhausted { .. } | PscanError::Cancelled { .. } => None,
        }
    }
}

impl From<crate::bus::BusError> for PscanError {
    fn from(e: crate::bus::BusError) -> Self {
        PscanError::Bus(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn physics_rate_tracks_power() {
        let rx = ReceiverModel::default();
        let plan = WavelengthPlan::paper_320g();
        let strong = PscanFaultConfig::from_physics(&rx, OpticalPower::from_dbm(-10.0), &plan, 1);
        let weak = PscanFaultConfig::from_physics(&rx, OpticalPower::from_dbm(-26.0), &plan, 1);
        assert!(strong.word_error_rate < 1e-12);
        assert!(weak.word_error_rate > strong.word_error_rate);
        assert!(weak.word_error_rate > 1e-6, "{}", weak.word_error_rate);
    }

    #[test]
    fn thermal_drift_raises_the_rate() {
        let rx = ReceiverModel::default();
        let th = ThermalModel::default();
        let plan = WavelengthPlan::paper_320g();
        let p = OpticalPower::from_dbm(-19.0);
        let cold = PscanFaultConfig::from_thermal_physics(&rx, &th, p, 20.0, 0.0, 0.0, &plan, 1);
        let hot = PscanFaultConfig::from_thermal_physics(&rx, &th, p, 20.0, 2.0, 0.0, &plan, 1);
        let servoed = PscanFaultConfig::from_thermal_physics(&rx, &th, p, 20.0, 2.0, 1.0, &plan, 1);
        assert!(hot.word_error_rate > cold.word_error_rate);
        assert_eq!(servoed.word_error_rate, cold.word_error_rate);
    }

    #[test]
    fn backoff_is_exponential_and_capped() {
        let cfg = PscanFaultConfig {
            backoff_base_slots: 4,
            backoff_cap_slots: 64,
            ..Default::default()
        };
        assert_eq!(cfg.backoff_slots(1), 4);
        assert_eq!(cfg.backoff_slots(2), 8);
        assert_eq!(cfg.backoff_slots(3), 16);
        assert_eq!(cfg.backoff_slots(5), 64);
        assert_eq!(cfg.backoff_slots(30), 64);
    }

    #[test]
    fn corrupt_is_deterministic_and_rate_zero_is_inert() {
        let run = |rate: f64| {
            let mut st = PscanFaultState::new(PscanFaultConfig {
                seed: 11,
                word_error_rate: rate,
                ..Default::default()
            });
            let mut words: Vec<u64> = (0..256).collect();
            let hits: u64 = words.iter_mut().map(|w| u64::from(st.corrupt(w))).sum();
            (words, hits, st.stats.injected)
        };
        let (w0, h0, inj0) = run(0.0);
        assert_eq!(h0, 0);
        assert_eq!(inj0, 0);
        assert_eq!(w0, (0..256).collect::<Vec<u64>>());
        let (wa, ha, _) = run(0.2);
        let (wb, hb, _) = run(0.2);
        assert!(ha > 0);
        assert_eq!(wa, wb, "same seed, same corruption pattern");
        assert_eq!(ha, hb);
    }
}
