//! The Head Node — paper Fig. 6.
//!
//! "The Head Node is a processor that understands the memory layout (via
//! its own program) and performs requests to the memory such that data is
//! streamed out on the SCA⁻¹ waveguide." It owns the DRAM controller; its
//! CP is a schedule of read (scatter source) or write (gather sink)
//! requests aligned with the bus slots.

use memory::{AccessKind, DramConfig, DramController, DramStats};

/// The head node: DRAM + request engine.
#[derive(Debug)]
pub struct HeadNode {
    dram: DramController,
    /// DRAM cycles consumed so far.
    pub cycles: u64,
    /// Backing store contents by word address (samples in wire format).
    store: Vec<u64>,
}

impl HeadNode {
    /// A head node over `words` 64-bit words of DRAM.
    pub fn new(cfg: DramConfig, words: usize) -> Self {
        HeadNode {
            dram: DramController::new(cfg, 64),
            cycles: 0,
            store: vec![0; words],
        }
    }

    /// Pre-load the backing store (initial problem data).
    pub fn fill(&mut self, base: usize, words: &[u64]) {
        self.store[base..base + words.len()].copy_from_slice(words);
    }

    /// Read back a region (final result inspection).
    pub fn read_region(&self, base: usize, len: usize) -> &[u64] {
        &self.store[base..base + len]
    }

    /// Stream `addrs` out of DRAM in order, producing the SCA⁻¹ burst.
    /// Returns `(burst, dram_cycles_for_this_stream)`.
    ///
    /// Each maximal run of consecutive addresses is costed as one
    /// [`DramController::access_burst`], which costs exactly what the run's
    /// per-word accesses would.
    pub fn stream_out(&mut self, addrs: impl IntoIterator<Item = u64>) -> (Vec<u64>, u64) {
        let addrs = addrs.into_iter();
        let mut burst = Vec::with_capacity(addrs.size_hint().0);
        let start = self.cycles;
        let mut t = start;
        for (a, n) in runs(addrs) {
            t = self.dram.access_burst(t, a, n, AccessKind::Read);
            burst.extend_from_slice(&self.store[a as usize..(a + n) as usize]);
        }
        self.cycles = t;
        (burst, t - start)
    }

    /// Absorb an SCA gather: write `words` to consecutive addresses given
    /// by `addrs`, in arrival order. Returns DRAM cycles consumed.
    ///
    /// Costed per run of consecutive addresses, as in
    /// [`HeadNode::stream_out`].
    pub fn stream_in(&mut self, addrs_words: impl IntoIterator<Item = (u64, u64)>) -> u64 {
        let store = &mut self.store;
        let addrs = addrs_words.into_iter().map(|(a, w)| {
            store[a as usize] = w;
            a
        });
        let start = self.cycles;
        let mut t = start;
        for (a, n) in runs(addrs) {
            t = self.dram.access_burst(t, a, n, AccessKind::Write);
        }
        self.cycles = t;
        t - start
    }

    /// DRAM statistics (row hit/conflict mix).
    pub fn dram_stats(&self) -> DramStats {
        self.dram.stats()
    }
}

/// The maximal runs of consecutive addresses in `addrs`, as `(first, len)`
/// pairs in stream order.
fn runs(addrs: impl Iterator<Item = u64>) -> impl Iterator<Item = (u64, u64)> {
    let mut addrs = addrs.peekable();
    std::iter::from_fn(move || {
        let first = addrs.next()?;
        let mut len = 1;
        while addrs.next_if_eq(&(first + len)).is_some() {
            len += 1;
        }
        Some((first, len))
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stream_out_reads_in_order() {
        let mut h = HeadNode::new(DramConfig::ideal_paper(), 64);
        h.fill(0, &(100..164u64).collect::<Vec<_>>());
        let (burst, cycles) = h.stream_out(0..64u64);
        assert_eq!(burst[0], 100);
        assert_eq!(burst[63], 163);
        // Ideal DRAM: 64 words x 1 beat.
        assert_eq!(cycles, 64);
    }

    #[test]
    fn stream_in_writes_and_costs_cycles() {
        let mut h = HeadNode::new(DramConfig::ideal_paper(), 32);
        let cycles = h.stream_in((0..32u64).map(|a| (a, a * 10)));
        assert_eq!(cycles, 32);
        assert_eq!(h.read_region(5, 1), &[50]);
    }

    #[test]
    fn linear_stream_is_row_friendly_on_real_dram() {
        let mut h = HeadNode::new(DramConfig::default(), 1024);
        h.fill(0, &vec![7u64; 1024]);
        let (_, _) = h.stream_out(0..1024u64);
        assert!(h.dram_stats().hit_rate() > 0.9);
    }

    #[test]
    fn strided_stream_thrashes_on_real_dram() {
        let mut h = HeadNode::new(DramConfig::default(), 1 << 15);
        let (_, _) = h.stream_out((0..32u64).map(|i| i * 1024));
        assert_eq!(h.dram_stats().hits, 0);
    }

    #[test]
    fn cycles_accumulate_across_streams() {
        let mut h = HeadNode::new(DramConfig::ideal_paper(), 64);
        h.stream_out(0..32u64);
        h.stream_out(32..64u64);
        assert_eq!(h.cycles, 64);
    }
}
