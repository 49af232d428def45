//! Table III — transpose completion time.
//!
//! PSCAN side (§V-C-1): the distributed transpose writeback is a gather of
//! `P_t = N·S_s·P / S_r` DRAM-row transactions, each taking
//! `t_t = (S_r + S_h)/S_b` bus cycles, with the SCA keeping the bus at
//! 100 % utilization — so completion is exactly `P_t · t_t`.
//!
//! Mesh side: the paper reports simulated values (3,526,620 cycles at
//! `t_p = 1`; 6,553,448 at `t_p = 4`). We reproduce those with the `emesh`
//! simulator (see the `bench` crate); the constants are kept here so tests
//! and benches can compare shape.

use serde::Serialize;

/// Parameters of the transpose analysis (defaults = the paper's).
#[derive(Debug, Clone, Copy, Serialize)]
pub struct Table3Params {
    /// Row length in samples (N = 1024).
    pub n: u64,
    /// Sample size in bits (S_s = 64).
    pub s_s: u64,
    /// Processor count (P = 1024).
    pub p: u64,
    /// DRAM row size in bits (S_r = 2048).
    pub s_r: u64,
    /// Bus width in bits (S_b = 64).
    pub s_b: u64,
    /// Transaction header size in bits (S_h = 64).
    pub s_h: u64,
}

impl Default for Table3Params {
    fn default() -> Self {
        Table3Params {
            n: 1024,
            s_s: 64,
            p: 1024,
            s_r: 2048,
            s_b: 64,
            s_h: 64,
        }
    }
}

impl Table3Params {
    /// Number of DRAM-row transactions — Eq. (23).
    pub fn transactions(&self) -> u64 {
        self.n * self.s_s * self.p / self.s_r
    }

    /// Bus cycles per transaction — Eq. (24).
    pub fn cycles_per_transaction(&self) -> u64 {
        (self.s_r + self.s_h) / self.s_b
    }

    /// Total PSCAN writeback time in bus cycles: `P_t · t_t`.
    pub fn pscan_cycles(&self) -> u64 {
        self.transactions() * self.cycles_per_transaction()
    }

    /// Total samples moved.
    pub fn total_samples(&self) -> u64 {
        self.n * self.p
    }
}

/// PSCAN transpose writeback cycles with the paper's parameters.
pub fn table3_pscan_cycles() -> u64 {
    Table3Params::default().pscan_cycles()
}

/// The paper's simulated mesh writeback at `t_p = 1` (multiplier 3.26×).
pub const PAPER_MESH_WRITEBACK_TP1: u64 = 3_526_620;
/// The paper's simulated mesh writeback at `t_p = 4` (multiplier 6.06×).
pub const PAPER_MESH_WRITEBACK_TP4: u64 = 6_553_448;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_arithmetic_exact() {
        let p = Table3Params::default();
        assert_eq!(p.transactions(), 32_768);
        assert_eq!(p.cycles_per_transaction(), 33);
        assert_eq!(p.pscan_cycles(), 1_081_344);
        assert_eq!(table3_pscan_cycles(), 1_081_344);
        assert_eq!(p.total_samples(), 1 << 20);
    }

    #[test]
    fn paper_multipliers() {
        let pscan = table3_pscan_cycles() as f64;
        let m1 = PAPER_MESH_WRITEBACK_TP1 as f64 / pscan;
        let m4 = PAPER_MESH_WRITEBACK_TP4 as f64 / pscan;
        assert!((m1 - 3.26).abs() < 0.01, "t_p=1 multiplier {m1}");
        assert!((m4 - 6.06).abs() < 0.01, "t_p=4 multiplier {m4}");
    }

    #[test]
    fn wider_rows_amortize_headers() {
        // Doubling S_r halves the transaction count and shrinks total time
        // (header amortization) — the §7 ablation's expectation.
        let narrow = Table3Params {
            s_r: 1024,
            ..Default::default()
        };
        let base = Table3Params::default();
        let wide = Table3Params {
            s_r: 4096,
            ..Default::default()
        };
        assert!(narrow.pscan_cycles() > base.pscan_cycles());
        assert!(wide.pscan_cycles() < base.pscan_cycles());
    }

    #[test]
    fn payload_cycles_are_invariant() {
        // Headers aside, moving 2^20 64-bit samples over a 64-bit bus takes
        // exactly 2^20 cycles; everything above that is header overhead.
        let p = Table3Params::default();
        let payload = p.total_samples() * p.s_s / p.s_b;
        assert_eq!(payload, 1 << 20);
        assert_eq!(
            p.pscan_cycles() - payload,
            p.transactions() * (p.s_h / p.s_b)
        );
    }
}
