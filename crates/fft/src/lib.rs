//! # fft
//!
//! The workload of the paper's evaluation: the Fast Fourier Transform,
//! implemented from scratch.
//!
//! ```
//! use fft::{fft_in_place, ifft_in_place, Complex64};
//!
//! let x: Vec<Complex64> = (0..8).map(|i| Complex64::new(i as f64, 0.0)).collect();
//! let mut y = x.clone();
//! fft_in_place(&mut y);
//! ifft_in_place(&mut y);
//! for (a, b) in x.iter().zip(&y) {
//!     assert!((*a - *b).abs() < 1e-12);
//! }
//! ```
//!
//! * [`complex`] — a minimal `Complex64` (no external numerics crates).
//! * [`dft`] — the naive O(N²) reference transform used to verify the FFT.
//! * [`radix2`] — iterative radix-2 decimation-in-time FFT with bit-reversal
//!   permutation and cached twiddles.
//! * [`blocked`] — the paper's Fig. 10 decomposition: with data delivered in
//!   `k` blocks, each block's sub-FFT (`log₂(N/k)` stages) runs as the block
//!   arrives, and the remaining `log₂ k` combine stages run in a final
//!   compute-only phase. Operation counts match Eqs. (17)–(18) exactly.
//! * [`fft2d`] — row/column 2-D FFT over a matrix with an explicit
//!   transpose, mirroring §V-B's five-step flow.
//! * [`ops`] — exact multiply/butterfly counting under the paper's costing
//!   (4 real multiplies per butterfly, Table I assumptions).

pub mod blocked;
pub mod complex;
pub mod dft;
pub mod fft2d;
pub mod ops;
pub mod radix2;

pub use blocked::BlockedFft;
pub use complex::Complex64;
pub use dft::dft_reference;
pub use fft2d::Fft2d;
pub use ops::{butterflies, multiplies};
pub use radix2::{fft_in_place, ifft_in_place, Radix2Plan};
