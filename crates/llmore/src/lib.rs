//! # llmore
//!
//! A stand-in for the Lincoln Laboratory Mapping and Optimization Runtime
//! Environment (LLMORE) used in paper §VI: a framework that takes an
//! architecture model plus a parallel-application description and produces
//! performance data (runtime, GFLOPS, phase breakdowns) across mappings.
//!
//! The application here is the §VI 2-D FFT flow: deliver → row FFTs →
//! reorganize (transpose) → column FFTs → writeback, under Model-I delivery,
//! with "link bandwidths and latencies ... equivalent across architectures"
//! and four shared memory controllers (Fig. 12).
//!
//! * [`arch`] — the two architecture models (electronic mesh, P-sync) and
//!   the shared system parameters.
//! * [`phases`] — per-phase timing models; the architectures differ only in
//!   how the *reorganization* phase behaves (block-wise transpose vs SCA).
//! * [`sim`] — the phase-level simulator producing [`sim::PerfResult`].
//! * [`sweep`] — core-count sweeps regenerating Fig. 13 (GFLOPS vs cores)
//!   and Fig. 14 (reorganization fraction vs cores), parallelized with
//!   rayon.

pub mod arch;
pub mod phases;
pub mod sim;
pub mod sweep;

pub use arch::{ArchKind, SystemParams};
pub use phases::DeliveryModel;
pub use sim::simulate_fft2d;
pub use sweep::sweep_cores;
