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
//! * [`fifo`] — the dual-clock FIFO that decouples each node's core clock
//!   domain from the PSCAN clock domain (§III-A).
//! * [`network`] — the [`network::Pscan`] facade: build a bus from a chip
//!   layout + WDM plan, then run gathers and scatters and read timing,
//!   utilization and energy.
//! * [`crc`] / [`faults`] — the resilience layer: CRC-32 burst integrity,
//!   BER/thermal-derived deterministic word corruption, and the bounded
//!   retry-with-backoff protocol exposed as `Pscan::gather_reliable`.

pub mod bus;
pub mod compiler;
pub mod cp;
pub mod crc;
pub mod faults;
pub mod fifo;
pub mod network;

pub use bus::{BusError, BusSim, GatherOutcome, ScatterOutcome};
pub use compiler::{CpCompiler, GatherSpec, ScatterSpec};
pub use cp::{CommProgram, CpAction, CpEntry};
pub use crc::{crc32_words, crc32_words_update};
pub use faults::{PscanError, PscanFaultConfig, PscanFaultState, ReliableGatherOutcome};
pub use fifo::DualClockFifo;
pub use network::{Pscan, PscanConfig};

/// Identifies a node tap on the bus, ordered by position (0 is nearest the
/// clock generator / bus head).
pub type NodeId = usize;

/// One-stop import for PSCAN experiments:
/// `use pscan::prelude::*;`.
pub mod prelude {
    pub use crate::compiler::{CpCompiler, GatherSpec, ScatterSpec};
    pub use crate::cp::CommProgram;
    pub use crate::faults::{PscanError, PscanFaultConfig};
    pub use crate::network::{Pscan, PscanConfig};
    pub use crate::NodeId;
}
