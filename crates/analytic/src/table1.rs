//! Table I — "Compute efficiency for zero latency".

use serde::Serialize;

use crate::model::FftParams;

/// One row of Table I.
#[derive(Debug, Clone, Copy, Serialize)]
pub struct Table1Row {
    /// Blocks per row, k.
    pub k: u64,
    /// Block size in samples, S_b = N/k.
    pub s_b: u64,
    /// Per-block compute time, ns.
    pub t_ck_ns: f64,
    /// Final-phase compute time, ns.
    pub t_cf_ns: f64,
    /// Required bandwidth, Gb/s (Eq. 20).
    pub w_p_gbps: f64,
    /// Compute efficiency, percent.
    pub eta_pct: f64,
}

/// The k values the paper tabulates.
pub const TABLE1_K: [u64; 7] = [1, 2, 4, 8, 16, 32, 64];

/// Generate Table I for the given parameters (defaults = the paper's).
pub fn table1_with(params: &FftParams) -> Vec<Table1Row> {
    TABLE1_K
        .iter()
        .map(|&k| Table1Row {
            k,
            s_b: params.block_samples(k),
            t_ck_ns: params.t_ck_ns(k),
            t_cf_ns: params.t_cf_ns(k),
            w_p_gbps: params.required_bandwidth_gbps(k),
            eta_pct: params.efficiency_zero_latency(k) * 100.0,
        })
        .collect()
}

/// Generate Table I with the paper's parameters.
pub fn table1() -> Vec<Table1Row> {
    table1_with(&FftParams::default())
}

/// The values printed in the paper, for verification:
/// (k, S_b, t_ck, t_cf, W_p, η%).
pub const PAPER_TABLE1: [(u64, u64, u64, u64, f64, f64); 7] = [
    (1, 1024, 40_960, 0, 409.6, 50.00),
    (2, 512, 18_432, 4_096, 455.1, 68.97),
    (4, 256, 8_192, 8_192, 512.0, 83.33),
    (8, 128, 3_584, 12_288, 585.1, 91.95),
    (16, 64, 1_536, 16_384, 682.7, 96.39),
    (32, 32, 640, 20_480, 819.2, 98.46),
    (64, 16, 256, 24_576, 1024.0, 99.38),
];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reproduces_every_printed_cell() {
        let rows = table1();
        assert_eq!(rows.len(), PAPER_TABLE1.len());
        for (row, &(k, s_b, t_ck, t_cf, w_p, eta)) in rows.iter().zip(&PAPER_TABLE1) {
            assert_eq!(row.k, k);
            assert_eq!(row.s_b, s_b, "k={k}");
            assert!((row.t_ck_ns - t_ck as f64).abs() < 1e-9, "k={k} t_ck");
            assert!((row.t_cf_ns - t_cf as f64).abs() < 1e-9, "k={k} t_cf");
            assert!(
                (row.w_p_gbps - w_p).abs() < 0.05,
                "k={k} W_p: {} vs {w_p}",
                row.w_p_gbps
            );
            assert!(
                (row.eta_pct - eta).abs() < 0.005,
                "k={k} eta: {} vs {eta}",
                row.eta_pct
            );
        }
    }

    #[test]
    fn efficiency_approaches_one() {
        let rows = table1();
        assert!(rows.last().unwrap().eta_pct > 99.0);
        assert!(rows.first().unwrap().eta_pct == 50.0);
    }

    #[test]
    fn bandwidth_monotone_increasing() {
        let rows = table1();
        for w in rows.windows(2) {
            assert!(w[1].w_p_gbps > w[0].w_p_gbps);
        }
    }
}
