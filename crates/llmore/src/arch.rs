//! Architecture models and shared system parameters (paper Fig. 12).
//!
//! Both architectures share: processing elements with identical compute
//! rates, four external memory banks, and equalized link bandwidth — "a
//! conservative, fair comparison" in which the mesh actually enjoys far
//! higher bisection bandwidth. They differ in how data is *reorganized*
//! between the two 1-D FFT phases: the mesh performs a block-wise transpose
//! through the memory ports; P-sync performs an SCA on the waveguide.

/// Which architecture a simulation models.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ArchKind {
    /// Wormhole-routed electronic mesh with 4 corner memory interfaces.
    ElectronicMesh,
    /// P-sync: PSCAN bus with memory banks at the waveguide end.
    Psync,
    /// The ideal machine: full memory bandwidth, zero network overhead.
    Ideal,
}

/// Shared system parameters.
#[derive(Debug, Clone, Copy)]
pub struct SystemParams {
    /// Matrix edge (N × N samples; paper: 1024).
    pub n: u64,
    /// Sample size in bits (S_s = 64).
    pub sample_bits: u64,
    /// Memory controllers (4, Fig. 12).
    pub mem_ports: u64,
    /// Bandwidth per controller in Gb/s (80 each → 320 aggregate, §III-C).
    pub port_gbps: f64,
    /// Per-core multiply rate in operations/s (paper: 2 ns per FP multiply
    /// → 5 × 10⁸).
    pub core_mults_per_sec: f64,
    /// Network clock in GHz (2.5).
    pub clock_ghz: f64,
    /// Header route delay per router, cycles (t_r = 1).
    pub t_r: u64,
    /// Memory-interface reorder cost per element, cycles (t_p).
    pub t_p: u64,
    /// Transaction header bits (S_h = 64).
    pub header_bits: u64,
}

impl Default for SystemParams {
    fn default() -> Self {
        SystemParams {
            n: 1024,
            sample_bits: 64,
            mem_ports: 4,
            port_gbps: 80.0,
            core_mults_per_sec: 0.5e9,
            clock_ghz: 2.5,
            t_r: 1,
            t_p: 1,
            header_bits: 64,
        }
    }
}

impl SystemParams {
    /// Aggregate memory bandwidth in bits/s.
    pub(crate) fn agg_mem_bps(&self) -> f64 {
        self.mem_ports as f64 * self.port_gbps * 1e9
    }

    /// Total matrix payload in bits.
    pub(crate) fn matrix_bits(&self) -> f64 {
        (self.n * self.n * self.sample_bits) as f64
    }

    /// Seconds to stream the whole matrix once at full memory bandwidth.
    pub(crate) fn matrix_stream_secs(&self) -> f64 {
        self.matrix_bits() / self.agg_mem_bps()
    }

    /// Total multiplies in one 1-D FFT pass over all rows: `N · 2N·log₂N`.
    pub fn mults_per_pass(&self) -> u64 {
        self.n * fft::ops::multiplies(self.n)
    }

    /// Seconds of compute for one FFT pass on `p` cores (idealized even
    /// split).
    pub(crate) fn pass_compute_secs(&self, p: u64) -> f64 {
        self.mults_per_pass() as f64 / (p as f64 * self.core_mults_per_sec)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_aggregates() {
        let s = SystemParams::default();
        assert!((s.agg_mem_bps() - 320e9).abs() < 1.0);
        assert_eq!(s.matrix_bits() as u64, 1 << 26); // 2^20 samples x 64 b
                                                     // Streaming the matrix once: 2^26 / 320e9 ≈ 210 µs.
        assert!((s.matrix_stream_secs() - 2.097e-4).abs() < 2e-6);
    }

    #[test]
    fn compute_scales_inversely_with_cores() {
        let s = SystemParams::default();
        let t256 = s.pass_compute_secs(256);
        let t1024 = s.pass_compute_secs(1024);
        assert!((t256 / t1024 - 4.0).abs() < 1e-9);
        // One pass on 256 cores: 1024·20480 mults / (256·0.5e9) ≈ 164 µs.
        assert!((t256 - 1.638e-4).abs() < 2e-6);
    }

    #[test]
    fn mults_per_pass_matches_fft_crate() {
        let s = SystemParams::default();
        assert_eq!(s.mults_per_pass(), 1024 * 20_480);
    }
}
