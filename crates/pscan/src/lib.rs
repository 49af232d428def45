//! # pscan
//!
//! The **Photonic Synchronous Coalesced Access Network** (paper §III): a
//! shared photonic bus on which spatially separate nodes splice data
//! *in flight* into one monolithic burst (the Synchronous Coalesced Access,
//! SCA) or carve one monolithic burst into per-node deliveries (SCA⁻¹).
//!
//! * [`cp`] — Communication Programs: the per-node slot schedules that make
//!   the coalescing collision-free. A CP is "a simple schedule ... loaded by
//!   the hardware unit responsible for communication" (§IV).
//! * [`compiler`] — derives a consistent set of CPs from an abstract
//!   slot-to-node mapping (gather) or node-to-slot mapping (scatter), the
//!   paper's future-work item "generation of distributed communication
//!   programs from abstract programmer constructs".
//! * [`bus`] — the photonic bus: one linear sweep per CP set executes the
//!   CPs against the open-loop photonic clock, checks wavefront-ownership
//!   collisions, and reconstructs what the terminus photodiode sees.
//! * [`network`] — the [`network::Pscan`] facade: build a bus from a chip
//!   layout + WDM plan, then run gathers and scatters and read timing and
//!   utilization.
//! * [`crc`] / [`faults`] — the resilience layer: CRC-32 burst integrity,
//!   seeded per-word corruption at a configured rate, and the bounded
//!   retry-with-backoff protocol exposed as `Pscan::gather_reliable`.

pub mod bus;
pub mod compiler;
pub mod cp;
pub mod crc;
pub mod faults;
pub mod network;

pub use bus::{BusError, BusSim, GatherOutcome, ScatterOutcome};
pub use compiler::{CpCompiler, GatherSpec, ScatterSpec};
pub use cp::{CommProgram, CpAction, CpEntry};
pub use crc::{crc32_words, crc32_words_update};
pub use faults::{PscanError, PscanFaultConfig, PscanFaultState};
pub use network::{Pscan, PscanConfig};

/// Identifies a node tap on the bus, ordered by position (0 is nearest the
/// clock generator / bus head).
pub type NodeId = usize;
