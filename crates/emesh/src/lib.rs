//! # emesh
//!
//! The electronic baseline of the paper: a wormhole-routed 2-D mesh with the
//! §V-C-2 microarchitecture —
//!
//! * minimal (XY or minimal-adaptive) wormhole routing,
//! * 1-cycle delay to route a packet header in each encountered router
//!   (`t_r`),
//! * 2-flit-deep buffers on inter-processor channels,
//! * 64-bit flits moving between adjacent routers in 1 cycle,
//! * memory-interface nodes that must *reorder* arriving elements into DRAM
//!   rows, spending `t_p` cycles per element (§V-C-2's staging cost),
//!   backed by the [`memory`] crate's DRAM model.
//!
//! The simulator is cycle-accurate at flit granularity and deterministic,
//! and runs one sequential service loop per mesh over safe code only.
//!
//! * [`flit`] — flits, packets and their wire format.
//! * [`topology`] — mesh coordinates and memory-interface placement.
//! * [`router`] — the five ports of a wormhole router.
//! * [`mesh`] — the clocked mesh fabric: injection, forwarding, ejection.
//! * [`memif`] — the memory-interface model with reorder staging + DRAM.
//! * [`workloads`] — the paper's traffic patterns: transpose gather
//!   (Table III), blocked scatter delivery (Tables I/II context, Fig. 11),
//!   and an SCA-equivalent gather for the Fig. 5 energy comparison.
//! * [`collectives`] — all-to-all / all-gather / all-reduce packet
//!   schedules over any mesh or torus geometry, phase-by-phase.
//! * [`faults`] — deterministic fault injection and resilience: transient
//!   corruption with NACK/retransmit at the memory interface, transient
//!   link outages, hard router kills, and a no-progress watchdog.
//! * [`energy`] — ORION-style per-flit router/link energy on a fixed
//!   2 cm × 2 cm die where the link-repeater count is inversely related to
//!   the number of network nodes (§III-C).

#![forbid(unsafe_code)]

pub mod collectives;
pub mod energy;
pub mod faults;
pub mod flit;
pub mod memif;
pub mod mesh;
pub mod router;
pub mod topology;
pub mod workloads;

pub use collectives::{run_mesh_collective, MeshCollectiveResult};
pub use energy::{EnergyCounters, OrionParams};
pub use faults::{MeshFaultConfig, MeshFaultStats, RouterKill};
pub use flit::Packet;
pub use mesh::{Mesh, MeshConfig, MeshError, RoutingPolicy};
pub use topology::{MemifPlacement, NodeCoord, Topology};
