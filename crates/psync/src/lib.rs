//! # psync
//!
//! The paper's primary contribution: the **P-sync architecture** (§IV),
//! built on the PSCAN. P-sync fuses computation with communication: every
//! processor runs a Computation Program against its local data memory and a
//! Communication Program against the shared waveguide, in tight synchrony
//! with the photonic clock; a head node drives DRAM so that data streams
//! onto the SCA⁻¹ waveguide "just-in-time".
//!
//! * [`sample`] — FFT samples on the wire: the 64-bit `S_s` format
//!   (32-bit real + 32-bit imaginary halves).
//! * [`node`] — the Fig. 7 processing element: Data Memory and Execution
//!   Unit (timed at the paper's 2 ns/multiply).
//! * [`head`] — the Head Node: "a processor that understands the memory
//!   layout and performs requests to the memory such that data is streamed
//!   out on the SCA⁻¹ waveguide", backed by the [`memory`] DRAM model.
//! * [`model2`] — Model II (blocked, overlapped) delivery, the paper's
//!   noted improvement over the Model I runs of §VI.
//! * [`machine`] — the whole machine: PSCAN + nodes + head node + DRAM;
//!   runs SCA/SCA⁻¹ phases and accounts bus cycles and wall-clock time.
//!   With a fault layer attached, gathers are CRC-checked with link-layer
//!   retry and whole-pass SCA re-issue; protocol failures surface as
//!   structured [`machine::MachineError`]s instead of panics.
//! * [`fft_app`] — the end-to-end distributed 2-D FFT of §V-B: deliver →
//!   row FFTs → SCA transpose → redeliver → column FFTs → writeback, with
//!   *real data* moving through the simulated photonic bus and numerics
//!   verified against the monolithic FFT.
//! * [`collectives`] — all-to-all / all-gather / all-reduce as SCA
//!   gather/scatter phase schedules through head-node DRAM, with real
//!   payload data and semantics checked end to end.

pub mod collectives;
pub mod fft_app;
pub mod head;
pub mod machine;
pub mod model2;
pub mod node;
pub mod sample;

pub use collectives::run_sca_collective;
pub use fft_app::{run_fft2d, Fft2dRun};
pub use machine::{Machine, MachineConfig, MachineError, PhaseTiming};
pub use model2::run_model2_rows;
pub use node::Node;
pub use sample::encode_sample;
