//! Table II — "Electronic mesh compute efficiency with latency".
//!
//! The mesh pays `λ = √P·t_r` route cycles per delivered block, giving the
//! delivery efficiency of Eq. (22); the overall mesh efficiency is the
//! product of Table I's zero-latency efficiency and the delivery
//! efficiency. The punchline: the product peaks at k = 8 (81.74 %) and
//! *falls* afterwards — blocking finer buys compute overlap but drowns in
//! per-packet routing overhead.

use serde::Serialize;

use crate::model::FftParams;
use crate::table1::TABLE1_K;

/// One row of Table II.
#[derive(Debug, Clone, Copy, Serialize)]
pub struct Table2Row {
    /// Blocks per row, k.
    pub k: u64,
    /// Delivery efficiency η_d, percent (Eq. 22).
    pub eta_d_pct: f64,
    /// Compute efficiency η, percent (product with Table I).
    pub eta_pct: f64,
}

/// Generate Table II for the given parameters.
pub fn table2_with(params: &FftParams) -> Vec<Table2Row> {
    TABLE1_K
        .iter()
        .map(|&k| Table2Row {
            k,
            eta_d_pct: params.mesh_delivery_efficiency(k) * 100.0,
            eta_pct: params.mesh_efficiency(k) * 100.0,
        })
        .collect()
}

/// Generate Table II with the paper's parameters.
pub fn table2() -> Vec<Table2Row> {
    table2_with(&FftParams::default())
}

/// The values printed in the paper: (k, η_d %, η %).
pub const PAPER_TABLE2: [(u64, f64, f64); 7] = [
    (1, 98.46, 49.23),
    (2, 96.97, 66.88),
    (4, 94.12, 78.43),
    (8, 88.89, 81.74),
    (16, 80.00, 77.11),
    (32, 66.67, 65.64),
    (64, 50.01, 49.70),
];

/// The paper's boldfaced peak: k = 8 at ~82 %.
pub const PAPER_PEAK_K: u64 = 8;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reproduces_every_printed_cell() {
        let rows = table2();
        for (row, &(k, eta_d, eta)) in rows.iter().zip(&PAPER_TABLE2) {
            assert_eq!(row.k, k);
            assert!(
                (row.eta_d_pct - eta_d).abs() < 0.05,
                "k={k} eta_d: {} vs {eta_d}",
                row.eta_d_pct
            );
            assert!(
                (row.eta_pct - eta).abs() < 0.05,
                "k={k} eta: {} vs {eta}",
                row.eta_pct
            );
        }
    }

    #[test]
    fn peak_is_at_k8() {
        let rows = table2();
        let best = rows
            .iter()
            .max_by(|a, b| a.eta_pct.partial_cmp(&b.eta_pct).unwrap())
            .unwrap();
        assert_eq!(best.k, PAPER_PEAK_K);
        assert!((best.eta_pct - 81.74).abs() < 0.05);
    }

    #[test]
    fn efficiency_falls_after_the_peak() {
        let rows = table2();
        let peak_idx = rows.iter().position(|r| r.k == PAPER_PEAK_K).unwrap();
        for w in rows[peak_idx..].windows(2) {
            assert!(w[1].eta_pct < w[0].eta_pct);
        }
    }

    #[test]
    fn k64_is_no_better_than_k1() {
        // "the k = 64 case is half as efficient as the k = 1 case" — in the
        // delivery-efficiency column; overall it lands back near k = 1.
        let rows = table2();
        let d64 = rows.iter().find(|r| r.k == 64).unwrap().eta_d_pct;
        let d1 = rows.iter().find(|r| r.k == 1).unwrap().eta_d_pct;
        assert!((d64 * 2.0 - d1).abs() < 2.0);
    }
}
