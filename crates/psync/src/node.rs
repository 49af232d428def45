//! The P-sync processing element — paper Fig. 7.
//!
//! "The computation core ... consists of a local Data Memory, an Execution
//! Unit, and a Computation Instruction Memory. ... The Waveguide Interface
//! coordinates in-flight data reorganizations based upon a program stored in
//! the Communication Instruction Memory."
//!
//! The Execution Unit computes *real* FFT numerics (via the [`fft`] crate)
//! and accounts time at the paper's rate (2 ns per floating-point multiply,
//! 4 multiplies per butterfly). A node's Communication Programs are not
//! stored here: [`pscan::network::Pscan`] compiles each phase's CPs from
//! its gather or scatter spec.

use fft::{Complex64, Radix2Plan};

/// Execution-unit timing parameters.
#[derive(Debug, Clone, Copy)]
pub struct ExecParams {
    /// Nanoseconds per floating-point multiply (paper: 2 ns).
    pub mult_ns: f64,
}

impl Default for ExecParams {
    fn default() -> Self {
        ExecParams { mult_ns: 2.0 }
    }
}

/// One processing element.
#[derive(Debug, Clone)]
pub struct Node {
    /// Node id = its tap position on the bus.
    pub id: usize,
    /// Local data memory (samples).
    pub data: Vec<Complex64>,
    /// Execution-unit parameters.
    pub exec: ExecParams,
    /// Accumulated compute time in nanoseconds.
    pub compute_ns: f64,
    /// Total multiplies executed (for efficiency accounting).
    pub multiplies: u64,
}

impl Node {
    /// A fresh node with empty memories.
    pub fn new(id: usize, exec: ExecParams) -> Self {
        Node {
            id,
            data: Vec::new(),
            exec,
            compute_ns: 0.0,
            multiplies: 0,
        }
    }

    /// Load data memory (normally arrives via SCA⁻¹ delivery).
    pub fn load_data(&mut self, samples: Vec<Complex64>) {
        self.data = samples;
    }

    /// Run in-place FFTs over the data memory, treating it as consecutive
    /// rows of `row_len`. Returns the compute time in ns for this call.
    pub fn fft_rows(&mut self, row_len: usize) -> f64 {
        assert!(
            row_len > 0 && self.data.len().is_multiple_of(row_len),
            "data memory ({}) must hold whole rows of {row_len}",
            self.data.len()
        );
        let rows = self.data.len() / row_len;
        let plan = Radix2Plan::new(row_len);
        for r in 0..rows {
            plan.forward(&mut self.data[r * row_len..(r + 1) * row_len]);
        }
        let mults = rows as u64 * fft::ops::multiplies(row_len as u64);
        self.multiplies += mults;
        let t = mults as f64 * self.exec.mult_ns;
        self.compute_ns += t;
        t
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fft::complex::max_error;
    use fft::dft_reference;

    #[test]
    fn fft_rows_computes_and_accounts_time() {
        let mut n = Node::new(0, ExecParams::default());
        let row: Vec<Complex64> = (0..16)
            .map(|i| Complex64::new(i as f64, -(i as f64) * 0.5))
            .collect();
        n.load_data(row.repeat(4)); // 4 rows of 16
        let t = n.fft_rows(16);
        // 4 rows x 2*16*4 = 512 multiplies x 2 ns = 1024 ns.
        assert_eq!(n.multiplies, 4 * fft::ops::multiplies(16));
        assert!((t - n.multiplies as f64 * 2.0).abs() < 1e-9);
        // Numerics: each row matches the reference DFT.
        let reference = dft_reference(&row);
        for r in 0..4 {
            assert!(max_error(&n.data[r * 16..(r + 1) * 16], &reference) < 1e-9);
        }
    }

    #[test]
    fn compute_time_accumulates() {
        let mut n = Node::new(3, ExecParams::default());
        n.load_data(vec![Complex64::ONE; 8]);
        n.fft_rows(8);
        let after_one = n.compute_ns;
        n.load_data(vec![Complex64::ONE; 8]);
        n.fft_rows(8);
        assert!((n.compute_ns - 2.0 * after_one).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "whole rows")]
    fn partial_rows_rejected() {
        let mut n = Node::new(0, ExecParams::default());
        n.load_data(vec![Complex64::ONE; 10]);
        n.fft_rows(8);
    }
}
