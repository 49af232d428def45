//! Model II (blocked, overlapped) delivery on the P-sync machine.
//!
//! §VI notes the LLMORE runs used Model I and that "it is likely that the
//! performance would improve further under P-sync if a Model II delivery
//! mode was used". This module implements that future-work mode: row FFTs
//! whose data arrives in `k` round-robin blocks (Fig. 9), each block's
//! sub-FFT starting the moment its SCA⁻¹ round lands — overlapping
//! communication with computation per Eqs. (11)–(16).
//!
//! The delivered blocks are the Fig. 10 decimated subsequences, so the head
//! node's CP reads DRAM with stride `k` — a *strided* gather served at full
//! line rate by the pre-scheduled SCA⁻¹, which is the whole point.

use fft::{BlockedFft, Complex64};
use pscan::compiler::ScatterSpec;
use serde::Serialize;

use crate::machine::{Machine, MachineConfig};
use crate::sample::{decode_all, encode_sample};

/// Result of a Model II row-FFT phase.
#[derive(Debug)]
pub struct Model2Run {
    /// Spectra, one per processor's row.
    pub spectra: Vec<Vec<Complex64>>,
    /// Wall-clock seconds with delivery/compute overlap (Model II).
    pub overlapped_seconds: f64,
    /// Wall-clock seconds the same work would take serialized (Model I).
    pub serialized_seconds: f64,
    /// Compute efficiency: total per-node compute / overlapped wall clock.
    pub efficiency: f64,
    /// Blocks per row used.
    pub k: usize,
}

/// Serializable summary for the ablation harness.
#[derive(Debug, Clone, Copy, Serialize)]
pub struct Model2Summary {
    /// Blocks per row.
    pub k: usize,
    /// Overlapped (Model II) seconds.
    pub overlapped_seconds: f64,
    /// Serialized (Model I) seconds.
    pub serialized_seconds: f64,
    /// Efficiency.
    pub efficiency: f64,
}

impl Model2Run {
    /// Summarize.
    pub fn summary(&self) -> Model2Summary {
        Model2Summary {
            k: self.k,
            overlapped_seconds: self.overlapped_seconds,
            serialized_seconds: self.serialized_seconds,
            efficiency: self.efficiency,
        }
    }
}

/// Run one row-FFT phase under Model II: `procs` processors, each owning one
/// `n`-point row of `rows`, delivered in `k` blocks.
pub fn run_model2_rows(procs: usize, n: usize, k: usize, rows: &[Vec<Complex64>]) -> Model2Run {
    assert_eq!(rows.len(), procs, "one row per processor");
    assert!(rows.iter().all(|r| r.len() == n));
    let bf = BlockedFft::new(n, k);
    let block_len = bf.block_len();

    let mut machine = Machine::new(MachineConfig::paper_default(procs, procs * n));
    // DRAM layout: row p at base p*n, natural order.
    for (p, row) in rows.iter().enumerate() {
        let wire: Vec<u64> = row.iter().map(|&c| encode_sample(c)).collect();
        machine.head.fill(p * n, &wire);
    }

    let mut states: Vec<_> = (0..procs).map(|_| bf.begin()).collect();
    let slot = machine.slot_secs();
    let t_ck = bf.multiplies_per_block() as f64 * machine.config().exec.mult_ns * 1e-9;
    let t_cf = bf.multiplies_final() as f64 * machine.config().exec.mult_ns * 1e-9;

    // Per-node compute-completion timeline (seconds).
    let mut finish = vec![0.0f64; procs];
    let mut comm_end = 0.0f64;

    for c in 0..k {
        // Round c: every node's block c, round-robin (Fig. 9). The head
        // node's addresses follow the Fig. 10 decimation within each row.
        let idx = bf.block_source_indices(c);
        let mut addrs = Vec::with_capacity(procs * block_len);
        for p in 0..procs {
            addrs.extend(idx.iter().map(|&i| (p * n + i) as u64));
        }
        let spec = ScatterSpec::blocked(procs, block_len);
        let delivered = machine.scatter_from_memory(&format!("deliver_block_{c}"), &addrs, &spec);

        // Timing: this round's bus occupancy follows the previous round.
        let round_secs = machine.phases.last().expect("phase logged").bus_slots as f64 * slot;
        let round_end = comm_end + round_secs;
        comm_end = round_end;

        for (p, words) in delivered.into_iter().enumerate() {
            states[p].deliver_block(c, &decode_all(&words));
            // Sub-FFT starts when the block is here and the previous block's
            // compute is done (Eq. 11's max term).
            finish[p] = round_end.max(finish[p]) + t_ck;
        }
    }

    // Final combine phase on every node.
    let spectra: Vec<Vec<Complex64>> = states.into_iter().map(|s| s.finish()).collect();
    let overlapped = finish.iter().fold(0.0f64, |a, &b| a.max(b)) + t_cf;

    // Model I reference: all delivery, then all compute.
    let serialized = comm_end + k as f64 * t_ck + t_cf;
    let compute_total = k as f64 * t_ck + t_cf;

    Model2Run {
        spectra,
        overlapped_seconds: overlapped,
        serialized_seconds: serialized,
        efficiency: compute_total / overlapped,
        k,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fft::complex::max_error;
    use fft::dft_reference;

    fn rows(procs: usize, n: usize) -> Vec<Vec<Complex64>> {
        (0..procs)
            .map(|p| {
                (0..n)
                    .map(|i| {
                        Complex64::new(
                            ((p * 31 + i) as f64 * 0.17).sin(),
                            ((p + i * 3) as f64 * 0.07).cos(),
                        )
                    })
                    .collect()
            })
            .collect()
    }

    #[test]
    fn numerics_match_reference_for_all_k() {
        let (procs, n) = (4, 64);
        let data = rows(procs, n);
        for k in [1usize, 4, 16] {
            let run = run_model2_rows(procs, n, k, &data);
            for (p, row) in data.iter().enumerate() {
                let reference = dft_reference(row);
                let err = max_error(&run.spectra[p], &reference);
                assert!(err < 1e-3, "k={k} p={p}: {err}");
            }
        }
    }

    #[test]
    fn overlap_beats_serialization_for_k_greater_than_1() {
        let (procs, n) = (8, 256);
        let data = rows(procs, n);
        let run = run_model2_rows(procs, n, 8, &data);
        assert!(
            run.overlapped_seconds < run.serialized_seconds,
            "overlap {} vs serial {}",
            run.overlapped_seconds,
            run.serialized_seconds
        );
        assert!(run.efficiency > 0.0 && run.efficiency <= 1.0);
    }

    #[test]
    fn k1_has_nothing_to_overlap() {
        let (procs, n) = (4, 64);
        let data = rows(procs, n);
        let run = run_model2_rows(procs, n, 1, &data);
        assert!((run.overlapped_seconds - run.serialized_seconds).abs() < 1e-12);
    }

    #[test]
    fn efficiency_improves_with_k_when_compute_bound() {
        // Few processors on a fat bus: delivery is cheap, so blocking
        // steadily shrinks the start-up bubble.
        let (procs, n) = (4, 1024);
        let data = rows(procs, n);
        let e: Vec<f64> = [1usize, 4, 16]
            .iter()
            .map(|&k| run_model2_rows(procs, n, k, &data).efficiency)
            .collect();
        assert!(e[1] > e[0], "{e:?}");
        assert!(e[2] > e[1], "{e:?}");
    }
}
