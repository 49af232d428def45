//! Linear word address ↔ (bank, row, column) mapping.
//!
//! The map is row-interleaved across banks: consecutive rows land in
//! consecutive banks, so a sequential stream (the P-sync head node's access
//! pattern) ping-pongs banks and can hide activate latency, while a strided
//! stream (a naive mesh transpose hitting column order) thrashes rows within
//! a bank — exactly the asymmetry the paper exploits.

use serde::Serialize;

use crate::config::DramConfig;

/// A decoded DRAM coordinate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize)]
pub struct Decoded {
    /// Bank index.
    pub bank: usize,
    /// Row index within the bank.
    pub row: u64,
    /// Column (bus-word) index within the row.
    pub col: u64,
}

/// Address map for a given configuration and word size.
#[derive(Debug, Clone, Copy, Serialize)]
pub struct AddrMap {
    cfg: DramConfig,
    /// Bits per addressed word (e.g. 64 for an FFT sample bus word).
    pub word_bits: u64,
}

impl AddrMap {
    /// Map for `cfg` addressing words of `word_bits`.
    pub fn new(cfg: DramConfig, word_bits: u64) -> Self {
        cfg.validate().expect("invalid DRAM config");
        assert!(
            cfg.row_bits.is_multiple_of(word_bits),
            "row must hold an integer number of words"
        );
        AddrMap { cfg, word_bits }
    }

    /// Words per row for this word size.
    pub fn words_per_row(&self) -> u64 {
        self.cfg.row_bits / self.word_bits
    }

    /// Decode a linear word address.
    pub fn decode(&self, word_addr: u64) -> Decoded {
        let wpr = self.words_per_row();
        let global_row = word_addr / wpr;
        Decoded {
            bank: (global_row % self.cfg.banks as u64) as usize,
            row: global_row / self.cfg.banks as u64,
            col: word_addr % wpr,
        }
    }

    /// Re-encode a decoded coordinate to its linear word address.
    pub fn encode(&self, d: Decoded) -> u64 {
        let wpr = self.words_per_row();
        let global_row = d.row * self.cfg.banks as u64 + d.bank as u64;
        global_row * wpr + d.col
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn map() -> AddrMap {
        AddrMap::new(DramConfig::default(), 64)
    }

    #[test]
    fn sequential_addresses_share_rows_then_rotate_banks() {
        let m = map();
        // Words 0..32 are one row in bank 0.
        for w in 0..32 {
            let d = m.decode(w);
            assert_eq!((d.bank, d.row), (0, 0), "word {w}");
            assert_eq!(d.col, w);
        }
        // Word 32 starts the next global row, which lands in bank 1.
        let d = m.decode(32);
        assert_eq!((d.bank, d.row, d.col), (1, 0, 0));
        // After all 8 banks, we wrap to bank 0, row 1.
        let d = m.decode(32 * 8);
        assert_eq!((d.bank, d.row, d.col), (0, 1, 0));
    }

    #[test]
    fn encode_decode_roundtrip() {
        let m = map();
        for w in [0u64, 1, 31, 32, 255, 256, 4095, 1 << 20] {
            assert_eq!(m.encode(m.decode(w)), w, "word {w}");
        }
    }

    #[test]
    fn strided_addresses_thrash_rows() {
        // A column walk of a 1024-wide matrix of 64-bit words: stride 1024
        // words = 32 global rows, so every access opens a new row (though
        // bank-interleaving spreads them).
        let m = map();
        let a = m.decode(0);
        let b = m.decode(1024);
        assert_ne!((a.bank, a.row), (b.bank, b.row));
    }

    #[test]
    #[should_panic(expected = "integer number of words")]
    fn word_size_must_divide_row() {
        AddrMap::new(DramConfig::default(), 60);
    }
}
