//! Exact operation counting under the paper's costing model.
//!
//! Table I counts "only multiplies", with "4 32-bit multiplies per FFT
//! butterfly". A radix-2 N-point FFT has `(N/2)·log₂N` butterflies, so the
//! multiply count is `2N·log₂N`. For GFLOPS reporting (Fig. 13) we also
//! provide the standard total-flop count of 10 real ops per butterfly
//! (4 multiplies + 6 additions), i.e. `5N·log₂N`.

use serde::Serialize;

/// Real multiplies per butterfly (paper Table I assumption).
pub const MULTS_PER_BUTTERFLY: u64 = 4;
/// Real additions per butterfly (2 complex adds + 2 from the complex mul).
pub const ADDS_PER_BUTTERFLY: u64 = 6;

/// log₂ of a power of two.
fn log2(n: u64) -> u64 {
    assert!(n.is_power_of_two(), "expected a power of two, got {n}");
    n.trailing_zeros() as u64
}

/// Butterflies in an N-point radix-2 FFT: `(N/2)·log₂N`.
pub fn butterflies(n: u64) -> u64 {
    n / 2 * log2(n)
}

/// Real multiplies in an N-point FFT: `2N·log₂N` (Table I's unit).
pub fn multiplies(n: u64) -> u64 {
    MULTS_PER_BUTTERFLY * butterflies(n)
}

/// Total real floating-point ops in an N-point FFT: `5N·log₂N`.
pub fn total_flops(n: u64) -> u64 {
    (MULTS_PER_BUTTERFLY + ADDS_PER_BUTTERFLY) * butterflies(n)
}

/// Multiplies in one block's sub-FFT under k-way blocking — Eq. (17):
/// `(2N/k)·log₂(N/k)`.
pub fn multiplies_per_block(n: u64, k: u64) -> u64 {
    assert!(k.is_power_of_two() && k <= n && n.is_multiple_of(k));
    multiplies(n / k)
}

/// Multiplies in the final compute-only phase — Eq. (18): `2N·log₂k`.
pub fn multiplies_final(n: u64, k: u64) -> u64 {
    assert!(k.is_power_of_two() && k <= n && n.is_multiple_of(k));
    2 * n * log2(k)
}

/// An operation tally.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize)]
pub struct OpCounts {
    /// Real multiplies.
    pub multiplies: u64,
    /// Real additions.
    pub additions: u64,
}

impl OpCounts {
    /// Tally for one N-point FFT.
    pub fn fft(n: u64) -> Self {
        OpCounts {
            multiplies: multiplies(n),
            additions: ADDS_PER_BUTTERFLY * butterflies(n),
        }
    }

    /// Tally for a `rows × cols` 2-D FFT (row FFTs + column FFTs).
    pub fn fft2d(rows: u64, cols: u64) -> Self {
        let row = Self::fft(cols);
        let col = Self::fft(rows);
        OpCounts {
            multiplies: rows * row.multiplies + cols * col.multiplies,
            additions: rows * row.additions + cols * col.additions,
        }
    }

    /// Total flops.
    pub fn total(&self) -> u64 {
        self.multiplies + self.additions
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_k1_compute_time() {
        // Table I row k=1: 1024-pt FFT, multiplies = 2·1024·10 = 20480;
        // at 2 ns per multiply that is 40960 ns, the printed t_ck.
        assert_eq!(multiplies(1024), 20_480);
        assert_eq!(multiplies(1024) * 2, 40_960);
    }

    #[test]
    fn eq17_eq18_block_split() {
        // Per-block + final must sum to the whole FFT's multiplies:
        // k·(2N/k)·log2(N/k) + 2N·log2 k = 2N·log2 N.
        let n = 1024;
        for k in [1u64, 2, 4, 8, 16, 32, 64] {
            let per_block = multiplies_per_block(n, k);
            let fin = multiplies_final(n, k);
            assert_eq!(k * per_block + fin, multiplies(n), "k = {k}");
        }
    }

    #[test]
    fn table1_tck_column() {
        // t_ck (ns) at 2 ns/multiply for each k in Table I.
        let expect = [
            (1u64, 40_960u64),
            (2, 18_432),
            (4, 8_192),
            (8, 3_584),
            (16, 1_536),
            (32, 640),
            (64, 256),
        ];
        for (k, t_ck) in expect {
            assert_eq!(multiplies_per_block(1024, k) * 2, t_ck, "k = {k}");
        }
    }

    #[test]
    fn table1_tcf_column() {
        let expect = [
            (1u64, 0u64),
            (2, 4_096),
            (4, 8_192),
            (8, 12_288),
            (16, 16_384),
            (32, 20_480),
            (64, 24_576),
        ];
        for (k, t_cf) in expect {
            assert_eq!(multiplies_final(1024, k) * 2, t_cf, "k = {k}");
        }
    }

    #[test]
    fn flop_totals() {
        assert_eq!(total_flops(8), 10 * butterflies(8));
        let c = OpCounts::fft2d(1024, 1024);
        // 1024 row FFTs + 1024 col FFTs of 1024 points each.
        assert_eq!(c.multiplies, 2 * 1024 * multiplies(1024));
        assert_eq!(c.total(), 2 * 1024 * total_flops(1024));
    }
}
