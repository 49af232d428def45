//! # sim-core
//!
//! Simulation substrate shared by the photonic (PSCAN) and electronic (mesh)
//! network simulators of the P-sync reproduction.
//!
//! The crate provides:
//!
//! * [`time`] — a picosecond-resolution simulated-time type ([`time::Time`])
//!   with exact integer arithmetic, so photonic flight times (fractions of a
//!   nanosecond) and electronic cycle times compose without rounding drift.
//! * [`stats`] — the fixed-bucket latency [`stats::Histogram`] the mesh
//!   records packet latencies into.
//! * [`rng`] — seeded, reproducible random-number helpers.
//! * [`faults`] — deterministic fault injection: seeded per-component fault
//!   sites and pre-generated fault schedules, zero-cost when disabled.
//! * [`telemetry`] — opt-in metric registry (counters/gauges/histograms with
//!   labels) and span tracing with Chrome trace-event JSON export; a fabric
//!   with no registry attached does no telemetry work on its hot path.
//! * [`collective`] — the shared collective-operation vocabulary
//!   ([`collective::Collective`]): labels and phase names both fabrics'
//!   all-to-all / all-gather / all-reduce traffic generators agree on.
//! * [`cancel`] — cooperative cancellation: generation-counter
//!   [`cancel::CancelToken`]s, wall-clock [`cancel::Deadline`]s and the
//!   [`cancel::Interrupt`] bundle the fabrics poll at chunk granularity;
//!   zero-cost when uninstalled.
//! * [`invariants`] — the [`invariant!`] runtime-checking macro for the
//!   fabric conservation laws (flit conservation, buffer bounds, staging
//!   accounting, bus-slot exclusivity); on in debug builds and under the
//!   `check-invariants` feature, compiled out otherwise.
//!
//! All simulators in this workspace are **deterministic**: identical inputs
//! (including RNG seeds) produce identical results, because every model
//! orders its work explicitly and uses only explicitly-seeded RNGs. The
//! crate contains no `unsafe` code.

#![forbid(unsafe_code)]

pub mod cancel;
pub mod collective;
pub mod faults;
pub mod invariants;
pub mod rng;
pub mod stats;
pub mod telemetry;
pub mod time;

pub use cancel::{CancelCause, CancelToken, CancelWatch, Deadline, Interrupt};
pub use collective::Collective;
pub use faults::{FaultSchedule, FaultSite, FaultStats};
pub use stats::Histogram;
pub use telemetry::{Registry, SeriesHistogram};
pub use time::{Duration, Time};
