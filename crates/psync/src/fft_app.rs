//! End-to-end distributed 2-D FFT on the P-sync machine — §V-B's five-step
//! flow with real data through the simulated photonic bus:
//!
//! 1. SCA⁻¹ delivery of P row-blocks,
//! 2. parallel row FFTs,
//! 3. SCA transpose writeback into off-chip DRAM (the Table III operation),
//! 4. SCA⁻¹ delivery of the reorganized data,
//! 5. parallel column FFTs, then a final SCA writeback.
//!
//! The numerical result is bit-faithful to a monolithic 2-D FFT up to the
//! 64-bit wire format's f32 quantization.

use crate::machine::{Machine, MachineConfig, PhaseTiming};
use crate::sample::{decode_all, encode_sample};
use fft::fft2d::Matrix;
use memory::DramStats;
use pscan::compiler::{GatherSpec, ScatterSpec};

/// Result of an end-to-end run.
#[derive(Debug)]
pub struct Fft2dRun {
    /// The computed 2-D spectrum (natural row-major orientation).
    pub output: Matrix,
    /// Phase log.
    pub phases: Vec<PhaseTiming>,
    /// Total wall-clock seconds.
    pub total_seconds: f64,
    /// Bus slots of the SCA transpose writeback (Table III's quantity).
    pub transpose_bus_slots: u64,
    /// Compute fraction of total runtime (an efficiency measure).
    pub compute_fraction: f64,
    /// Head-node DRAM statistics over the whole run.
    pub dram: DramStats,
}

/// Phase-name constants.
pub mod phase_names {
    /// Initial delivery.
    pub const DELIVER: &str = "deliver";
    /// Row FFT compute.
    pub const ROW_FFT: &str = "row_fft";
    /// SCA transpose writeback.
    pub const TRANSPOSE: &str = "transpose";
    /// Redelivery of transposed data.
    pub const REDELIVER: &str = "redeliver";
    /// Column FFT compute.
    pub const COL_FFT: &str = "col_fft";
    /// Final writeback.
    pub const WRITEBACK: &str = "writeback";
}

/// Run the distributed 2-D FFT of an `n × n` matrix on `procs` processors
/// (`procs` must divide `n`).
pub fn run_fft2d(procs: usize, input: &Matrix) -> Fft2dRun {
    let n = input.rows;
    assert_eq!(input.cols, n, "square matrices only");
    assert!(n.is_power_of_two(), "n must be a power of two");
    assert!(
        procs >= 1 && n.is_multiple_of(procs),
        "procs ({procs}) must divide n ({n})"
    );
    let rows_per = n / procs;
    let area = n * n;

    let mut m = Machine::new(MachineConfig::paper_default(procs, 2 * area));

    // Load the problem into DRAM region A (row-major wire samples).
    let wire: Vec<u64> = input.data.iter().map(|&c| encode_sample(c)).collect();
    m.head.fill(0, &wire);

    // --- Phase 1: SCA⁻¹ delivery of row blocks ---------------------------
    let addrs_a: Vec<u64> = (0..area as u64).collect();
    let deliver_spec = ScatterSpec::blocked(procs, rows_per * n);
    let delivered = m.scatter_from_memory(phase_names::DELIVER, &addrs_a, &deliver_spec);
    for (node, words) in delivered.into_iter().enumerate() {
        m.nodes[node].load_data(decode_all(&words));
    }

    // --- Phase 2: row FFTs ------------------------------------------------
    m.compute_phase(phase_names::ROW_FFT, |node| node.fft_rows(n));

    // --- Phase 3: SCA transpose writeback to region B ---------------------
    // Slot k = c·n + r of the transposed stream comes from the owner of
    // row r; its waveguide interface drains (r, c) in slot order.
    let slot_source: Vec<usize> = (0..area).map(|k| (k % n) / rows_per).collect();
    let gather_spec = GatherSpec { slot_source };
    let node_words: Vec<Vec<u64>> = (0..procs)
        .map(|p| {
            let r0 = p * rows_per;
            let mut words = Vec::with_capacity(rows_per * n);
            for c in 0..n {
                for r in r0..r0 + rows_per {
                    words.push(encode_sample(m.nodes[p].data[(r - r0) * n + c]));
                }
            }
            words
        })
        .collect();
    let addrs_b: Vec<u64> = (0..area as u64).map(|k| area as u64 + k).collect();
    m.gather_to_memory(phase_names::TRANSPOSE, &gather_spec, &node_words, &addrs_b);
    let transpose_bus_slots = m.phase(phase_names::TRANSPOSE).unwrap().bus_slots;

    // --- Phase 4: SCA⁻¹ redelivery of transposed rows ---------------------
    let redeliver = m.scatter_from_memory(phase_names::REDELIVER, &addrs_b, &deliver_spec);
    for (node, words) in redeliver.into_iter().enumerate() {
        m.nodes[node].load_data(decode_all(&words));
    }

    // --- Phase 5: column FFTs (rows of the transposed matrix) -------------
    m.compute_phase(phase_names::COL_FFT, |node| node.fft_rows(n));

    // --- Phase 6: final SCA writeback, un-transposing into region A -------
    // Slot k = r·n + c of the natural-orientation result comes from the
    // owner of transposed-row c.
    let final_source: Vec<usize> = (0..area).map(|k| (k % n) / rows_per).collect();
    let final_spec = GatherSpec {
        slot_source: final_source,
    };
    let final_words: Vec<Vec<u64>> = (0..procs)
        .map(|p| {
            let c0 = p * rows_per;
            let mut words = Vec::with_capacity(rows_per * n);
            for r in 0..n {
                for c in c0..c0 + rows_per {
                    words.push(encode_sample(m.nodes[p].data[(c - c0) * n + r]));
                }
            }
            words
        })
        .collect();
    m.gather_to_memory(phase_names::WRITEBACK, &final_spec, &final_words, &addrs_a);

    // Read the spectrum back out of DRAM.
    let out_words = m.head.read_region(0, area).to_vec();
    let output = Matrix {
        rows: n,
        cols: n,
        data: decode_all(&out_words),
    };

    let total_seconds = m.total_seconds();
    let compute_ns: f64 = m.phases.iter().map(|p| p.compute_ns).sum();
    Fft2dRun {
        output,
        total_seconds,
        transpose_bus_slots,
        compute_fraction: compute_ns * 1e-9 / total_seconds,
        dram: m.head.dram_stats(),
        phases: m.phases,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fft::complex::max_error;
    use fft::fft2d::Fft2d;
    use fft::Complex64;

    fn input(n: usize) -> Matrix {
        Matrix::from_fn(n, n, |r, c| {
            Complex64::new(
                ((r * 3 + c) as f64 * 0.21).sin(),
                ((r as f64) - 1.7 * c as f64).cos() * 0.3,
            )
        })
    }

    #[test]
    fn matches_monolithic_fft2d() {
        for (n, procs) in [(16, 4), (32, 8), (32, 32), (64, 16)] {
            let m = input(n);
            let run = run_fft2d(procs, &m);
            let reference = Fft2d::new(n, n).forward(&m);
            let err = max_error(&run.output.data, &reference.data);
            // Wire format quantizes to f32 at each of 4 transports.
            let scale = n as f64; // spectrum magnitudes grow with n
            assert!(err < 1e-3 * scale, "n={n} procs={procs}: err {err}");
        }
    }

    #[test]
    fn single_processor_degenerate_case() {
        let n = 16;
        let m = input(n);
        let run = run_fft2d(1, &m);
        let reference = Fft2d::new(n, n).forward(&m);
        assert!(max_error(&run.output.data, &reference.data) < 0.05);
    }

    #[test]
    fn phase_log_is_complete() {
        let run = run_fft2d(4, &input(16));
        let names: Vec<&str> = run.phases.iter().map(|p| p.name.as_str()).collect();
        assert_eq!(
            names,
            vec![
                "deliver",
                "row_fft",
                "transpose",
                "redeliver",
                "col_fft",
                "writeback"
            ]
        );
        assert!(run.total_seconds > 0.0);
        assert!(run.compute_fraction > 0.0 && run.compute_fraction < 1.0);
    }

    #[test]
    fn transpose_slots_match_table3_arithmetic() {
        // n = 64: payload 4096 slots + 4096/32 = 128 header slots.
        let run = run_fft2d(16, &input(64));
        assert_eq!(run.transpose_bus_slots, 4096 + 128);
    }

    #[test]
    fn more_processors_do_not_slow_the_bus() {
        // Bus phases are P-independent (same payload); compute shrinks.
        let n = 32;
        let a = run_fft2d(4, &input(n));
        let b = run_fft2d(32, &input(n));
        assert_eq!(
            a.phase_bus_slots("transpose"),
            b.phase_bus_slots("transpose")
        );
        let ca = a.phases.iter().map(|p| p.compute_ns).sum::<f64>();
        let cb = b.phases.iter().map(|p| p.compute_ns).sum::<f64>();
        assert!((ca / cb - 8.0).abs() < 1e-6);
    }

    impl Fft2dRun {
        fn phase_bus_slots(&self, name: &str) -> u64 {
            self.phases
                .iter()
                .find(|p| p.name == name)
                .unwrap()
                .bus_slots
        }
    }
}
