//! Pinned SCA-path observables: every simulated number the head node's DRAM
//! and the PSCAN bus produce for two fixed runs.
//!
//! * `run_fft2d` at n = 256 on 16 processors with a seeded input (the
//!   perfbench `fft2d` request): per-phase bus slots and DRAM cycles, the
//!   head's [`DramStats`] and a hash of the output bits, on ideal DRAM.
//! * A 64-processor SCA all-to-all on timed `DramConfig::default()` DRAM:
//!   its scatter reads a strided address walk, so rows open, hit and
//!   conflict across all eight banks.
//!
//! The values were recorded from the per-word DRAM and per-claim bus
//! implementations; a faster cost path must reproduce them exactly.

use fft::fft2d::Matrix;
use fft::Complex64;
use memory::{DramConfig, DramStats};
use psync::{run_fft2d, run_sca_collective, Machine, MachineConfig, PhaseTiming};
use sim_core::collective::Collective;
use sim_core::rng::child_seed;

/// Order-sensitive FNV-1a over 64-bit words.
fn fnv(words: impl IntoIterator<Item = u64>) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for w in words {
        for b in w.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// `(name, bus_slots, dram_cycles, seconds bits)` of every phase.
fn phase_log(phases: &[PhaseTiming]) -> Vec<(String, u64, u64, u64)> {
    phases
        .iter()
        .map(|p| {
            (
                p.name.clone(),
                p.bus_slots,
                p.dram_cycles,
                p.seconds.to_bits(),
            )
        })
        .collect()
}

/// Uniform samples in [-1, 1) from `seed`'s SplitMix64 stream (the
/// perfbench `fft2d` input).
fn seeded_input(n: usize, seed: u64) -> Matrix {
    let mut k = 0u64;
    let mut next = || {
        k += 1;
        (child_seed(seed, k) >> 11) as f64 / (1u64 << 53) as f64 * 2.0 - 1.0
    };
    Matrix::from_fn(n, n, |_, _| Complex64::new(next(), next()))
}

#[test]
fn fft2d_n256_p16_is_pinned() {
    let run = run_fft2d(16, &seeded_input(256, 1));
    let got: Vec<(String, u64, u64)> = phase_log(&run.phases)
        .into_iter()
        .map(|(name, slots, cycles, _)| (name, slots, cycles))
        .collect();
    let want: Vec<(String, u64, u64)> = PIN_FFT2D_PHASES
        .iter()
        .map(|&(name, slots, cycles)| (name.to_string(), slots, cycles))
        .collect();
    assert_eq!(got, want);
    assert_eq!(run.dram, PIN_FFT2D_DRAM);
    let bits = run
        .output
        .data
        .iter()
        .flat_map(|c| [c.re.to_bits(), c.im.to_bits()]);
    assert_eq!(fnv(bits), PIN_FFT2D_OUTPUT);
}

#[test]
fn p64_all_to_all_on_timed_dram_is_pinned() {
    let (p, words) = (64, 4);
    let cfg = MachineConfig::paper_default(p, p * p * words).with_dram(DramConfig::default());
    let mut m = Machine::new(cfg);
    let r = run_sca_collective(&mut m, Collective::AllToAll, words).unwrap();
    let log = phase_log(&m.phases);
    let want: Vec<(String, u64, u64, u64)> = PIN_A2A_PHASES
        .iter()
        .map(|&(name, slots, cycles, secs)| (name.to_string(), slots, cycles, secs))
        .collect();
    assert_eq!(log, want);
    assert_eq!(m.head.dram_stats(), PIN_A2A_DRAM);
    assert_eq!(r.fingerprint(), PIN_A2A_FINGERPRINT);
}

const PIN_FFT2D_PHASES: [(&str, u64, u64); 6] = [
    ("deliver", 67_584, 65_536),
    ("row_fft", 0, 0),
    ("transpose", 67_584, 65_536),
    ("redeliver", 67_584, 65_536),
    ("col_fft", 0, 0),
    ("writeback", 67_584, 65_536),
];
const PIN_FFT2D_DRAM: DramStats = DramStats {
    accesses: 262_144,
    hits: 253_952,
    misses: 8,
    conflicts: 8_184,
    beats: 262_144,
    last_done: 262_144,
};
const PIN_FFT2D_OUTPUT: u64 = 0x08e4_f5ce_41ac_8eaa;
/// `(name, bus_slots, dram_cycles, seconds.to_bits())`.
const PIN_A2A_PHASES: [(&str, u64, u64, u64); 2] = [
    (
        "collective.alltoall.gather",
        16_896,
        190_384,
        4_540_743_968_640_056_063,
    ),
    (
        "collective.alltoall.scatter",
        16_896,
        262_144,
        4_542_861_950_007_623_099,
    ),
];
const PIN_A2A_DRAM: DramStats = DramStats {
    accesses: 32_768,
    hits: 28_160,
    misses: 8,
    conflicts: 4_600,
    beats: 32_768,
    last_done: 452_528,
};
const PIN_A2A_FINGERPRINT: u64 = 0x6cb3_4425_2024_7c65;
