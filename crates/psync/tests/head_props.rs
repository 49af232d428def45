//! `HeadNode::stream_out` and `stream_in` against a per-word reference.
//!
//! The head node costs each run of consecutive addresses as one DRAM
//! burst. The reference below costs every word with its own
//! `DramController::access`, as a head node streaming word by word would.
//! On address streams that mix linear runs, strides, repeats and
//! descending addresses, both must return the same words and cycles, and
//! leave the same DRAM statistics and store contents.

use memory::{AccessKind, DramConfig, DramController};
use proptest::prelude::*;
use proptest::{TestCaseError, TestRng};
use psync::head::HeadNode;

const WORDS: u64 = 2048;

/// The per-word head node.
struct Reference {
    dram: DramController,
    cycles: u64,
    store: Vec<u64>,
}

impl Reference {
    fn stream_out(&mut self, addrs: &[u64]) -> (Vec<u64>, u64) {
        let start = self.cycles;
        let mut burst = Vec::new();
        for &a in addrs {
            self.cycles = self.dram.access(self.cycles, a, AccessKind::Read);
            burst.push(self.store[a as usize]);
        }
        (burst, self.cycles - start)
    }

    fn stream_in(&mut self, addrs: &[u64], words: &[u64]) -> u64 {
        let start = self.cycles;
        for (&a, &w) in addrs.iter().zip(words) {
            self.cycles = self.dram.access(self.cycles, a, AccessKind::Write);
            self.store[a as usize] = w;
        }
        self.cycles - start
    }
}

/// A random address stream built from linear runs, strided walks,
/// repeated addresses and descending runs.
fn stream(rng: &mut TestRng) -> Vec<u64> {
    let mut addrs = Vec::new();
    for _ in 0..1 + rng.below(8) {
        let base = rng.below(WORDS);
        let len = 1 + rng.below(80);
        let piece: Vec<u64> = match rng.below(4) {
            0 => (base..base + len).collect(),
            1 => {
                let stride = 2 + rng.below(300);
                (0..len).map(|i| base + i * stride).collect()
            }
            2 => vec![base; 1 + rng.below(4) as usize],
            _ => (0..len).map(|i| base.saturating_sub(i)).collect(),
        };
        addrs.extend(piece.into_iter().map(|a| a % WORDS));
    }
    addrs
}

fn config(rng: &mut TestRng) -> DramConfig {
    match rng.below(3) {
        0 => DramConfig::ideal_paper(),
        1 => DramConfig::default(),
        _ => DramConfig {
            banks: 1 + rng.below(16) as usize,
            row_bits: 64 << rng.below(7),
            t_activate: rng.below(16),
            t_precharge: rng.below(16),
            t_cas: rng.below(16),
            t_beat: 1 + rng.below(3),
            ..DramConfig::default()
        },
    }
}

fn check(seed: u64) -> Result<(), TestCaseError> {
    let mut rng = TestRng::seed(seed);
    let cfg = config(&mut rng);
    let image: Vec<u64> = (0..WORDS).map(|a| a * 7 + 1).collect();
    let mut head = HeadNode::new(cfg, WORDS as usize);
    head.fill(0, &image);
    let mut reference = Reference {
        dram: DramController::new(cfg, 64),
        cycles: 0,
        store: image,
    };
    // Alternate reads and writes so each stream starts from the state the
    // previous one left.
    for round in 0..4u64 {
        let addrs = stream(&mut rng);
        let got = head.stream_out(addrs.iter().copied());
        prop_assert_eq!(got, reference.stream_out(&addrs), "stream_out {:?}", addrs);

        let addrs = stream(&mut rng);
        let words: Vec<u64> = (0..addrs.len() as u64).map(|i| round << 32 | i).collect();
        let got = head.stream_in(addrs.iter().copied().zip(words.iter().copied()));
        prop_assert_eq!(
            got,
            reference.stream_in(&addrs, &words),
            "stream_in {:?}",
            addrs
        );
        prop_assert_eq!(head.dram_stats(), reference.dram.stats());
        prop_assert_eq!(head.cycles, reference.cycles);
    }
    prop_assert_eq!(head.read_region(0, WORDS as usize), &reference.store[..]);
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn head_streams_match_per_word_reference(seed in 0u64..u64::MAX) {
        check(seed)?;
    }
}
