//! DRAM geometry and timing parameters.

use serde::Serialize;

/// Configuration of one DRAM device/channel.
///
/// Defaults reproduce the paper's §V-C-1 assumptions: 2048-bit rows
/// ("32 64-bit complex samples can be bursted at a time before a costly
/// row-precharge must occur") behind a 64-bit bus.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub struct DramConfig {
    /// Number of independent banks.
    pub banks: usize,
    /// Row size in bits (`S_r`).
    pub row_bits: u64,
    /// Data bus width in bits (`S_b` of Eq. 24).
    pub bus_bits: u64,
    /// Cycles to activate (open) a row: tRCD.
    pub t_activate: u64,
    /// Cycles to precharge (close) a row: tRP.
    pub t_precharge: u64,
    /// Column access latency once the row is open: tCAS.
    pub t_cas: u64,
    /// Cycles per bus beat while bursting (1 = one bus word per cycle).
    pub t_beat: u64,
}

impl Default for DramConfig {
    fn default() -> Self {
        DramConfig {
            banks: 8,
            row_bits: 2048,
            bus_bits: 64,
            t_activate: 10,
            t_precharge: 10,
            t_cas: 10,
            t_beat: 1,
        }
    }
}

impl DramConfig {
    /// The idealized configuration used by the paper's Table III arithmetic:
    /// row switches are hidden (perfectly pipelined across banks), so a
    /// transaction costs exactly its bus beats.
    pub fn ideal_paper() -> Self {
        DramConfig {
            t_activate: 0,
            t_precharge: 0,
            t_cas: 0,
            ..Default::default()
        }
    }

    /// Set the bank count.
    #[must_use]
    pub fn with_banks(mut self, banks: usize) -> Self {
        self.banks = banks;
        self
    }

    /// Set the row size in bits (`S_r`).
    #[must_use]
    pub fn with_row_bits(mut self, row_bits: u64) -> Self {
        self.row_bits = row_bits;
        self
    }

    /// Set the data bus width in bits (`S_b`).
    #[must_use]
    pub fn with_bus_bits(mut self, bus_bits: u64) -> Self {
        self.bus_bits = bus_bits;
        self
    }

    /// Set the row timing triple (tRCD, tRP, tCAS).
    #[must_use]
    pub fn with_row_timing(mut self, t_activate: u64, t_precharge: u64, t_cas: u64) -> Self {
        self.t_activate = t_activate;
        self.t_precharge = t_precharge;
        self.t_cas = t_cas;
        self
    }

    /// Set the cycles per bus beat.
    #[must_use]
    pub fn with_t_beat(mut self, t_beat: u64) -> Self {
        self.t_beat = t_beat;
        self
    }

    /// Bus words (beats) per row: `S_r / S_b`.
    pub fn beats_per_row(&self) -> u64 {
        self.row_bits / self.bus_bits
    }

    /// Words of `word_bits` each that fit in one row.
    pub fn words_per_row(&self, word_bits: u64) -> u64 {
        assert!(word_bits > 0);
        self.row_bits / word_bits
    }

    /// Cost in cycles of a row-miss overhead (precharge old + activate new
    /// + CAS).
    pub fn row_switch_cost(&self) -> u64 {
        self.t_precharge + self.t_activate + self.t_cas
    }

    /// Validate internal consistency.
    pub fn validate(&self) -> Result<(), String> {
        if self.banks == 0 {
            return Err("banks must be > 0".into());
        }
        if self.bus_bits == 0 || self.row_bits == 0 {
            return Err("bus and row sizes must be > 0".into());
        }
        if !self.row_bits.is_multiple_of(self.bus_bits) {
            return Err(format!(
                "row_bits ({}) must be a multiple of bus_bits ({})",
                self.row_bits, self.bus_bits
            ));
        }
        if self.t_beat == 0 {
            return Err("t_beat must be >= 1".into());
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_geometry() {
        let c = DramConfig::default();
        assert_eq!(c.beats_per_row(), 32); // 2048 / 64
        assert_eq!(c.words_per_row(64), 32); // 32 complex samples of 64 b
        assert!(c.validate().is_ok());
    }

    #[test]
    fn ideal_has_free_row_switches() {
        let c = DramConfig::ideal_paper();
        assert_eq!(c.row_switch_cost(), 0);
        assert!(c.validate().is_ok());
    }

    #[test]
    fn validation_catches_misconfig() {
        // row_bits not a multiple of 64:
        let c = DramConfig {
            row_bits: 100,
            ..Default::default()
        };
        assert!(c.validate().is_err());
        let c = DramConfig {
            banks: 0,
            ..Default::default()
        };
        assert!(c.validate().is_err());
        let c = DramConfig {
            t_beat: 0,
            ..Default::default()
        };
        assert!(c.validate().is_err());
    }
}
