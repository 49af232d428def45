//! # memory
//!
//! The off-chip DRAM substrate both architectures read from and write back
//! to. The paper's transpose analysis (§V-C-1) hinges on one DRAM property:
//! a 2048-bit row can be bursted contiguously, but touching a different row
//! costs a precharge + activate. The head node of P-sync and the memory
//! interfaces of the mesh both sit in front of this model.
//!
//! * [`config`] — geometry (banks, row bits, bus width) and timing
//!   (activate / precharge / CAS / per-beat burst) parameters.
//! * [`addr`] — linear word address ↔ (bank, row, column) mapping.
//! * [`bank`] — per-bank open-row state machine.
//! * [`controller`] — an in-order open-page controller that costs an access
//!   stream in DRAM cycles; row hits stream at bus rate, row conflicts pay
//!   the precharge/activate penalty. Reports hit/conflict statistics used by
//!   the transpose experiments.

pub mod addr;
pub mod bank;
pub mod config;
pub mod controller;
pub mod frfcfs;

pub use config::DramConfig;
pub use controller::{AccessKind, DramController, DramStats, TraceCancelled};
pub use frfcfs::{FrFcfsConfig, FrFcfsController};
