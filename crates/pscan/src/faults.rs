//! Photonic fault model for the PSCAN: per-word corruption at the terminus
//! receiver, and the link-layer recovery protocol (CRC per gather + bounded
//! retry).
//!
//! Each received bus word is corrupted with the configured
//! `word_error_rate`. Corruption is injected deterministically through a
//! seeded [`FaultSite`], so every faulty run is exactly reproducible.
//!
//! Recovery: the terminus CRCs each coalesced burst against the CRC the
//! communication programs committed to ([`crate::crc`]); a mismatch triggers
//! a retry after an exponential backoff in bus slots, bounded by
//! `max_retries` — at which point the *protocol* layer (psync) must re-issue
//! the SCA pass or surface the failure.

use sim_core::faults::{FaultSite, FaultStats};

/// Stream index of the terminus-receiver fault site under the config seed.
const STREAM_TERMINUS: u64 = 0;

/// Fault-injection knobs for one PSCAN instance.
#[derive(Debug, Clone, Copy)]
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
