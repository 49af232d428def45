//! # analytic
//!
//! ```
//! // Table I's headline: zero-latency efficiency climbs toward 1 with k.
//! let params = analytic::model::FftParams::default();
//! assert_eq!(params.efficiency_zero_latency(1), 0.5);
//! assert!(params.efficiency_zero_latency(64) > 0.99);
//! // And the PSCAN transpose is exactly 1,081,344 bus cycles.
//! assert_eq!(analytic::table3_pscan_cycles(), 1_081_344);
//! ```
//!
//! The paper's §V quantitative analysis, implemented exactly:
//!
//! * [`model`] — the generalized performance model: Model I (all data
//!   before compute, Fig. 8) and Model II (k-way blocked delivery, Fig. 9),
//!   Eqs. (4)–(16), including the balance condition `P·t_dk = t_ck`.
//! * [`mod@table1`] — Table I: blocked-FFT compute efficiency at zero latency,
//!   with the required-bandwidth column of Eq. (20).
//! * [`mod@table2`] — Table II: mesh delivery efficiency (Eq. 22) and the
//!   resulting compute efficiency; the 81.74 % peak at k = 8.
//! * [`table3`] — Table III: the PSCAN transpose writeback arithmetic
//!   (Eqs. 23–24; exactly 1,081,344 bus cycles for the 2²⁰-sample case)
//!   and the paper's reported mesh multipliers for comparison.
//! * [`fig11`] — the efficiency-vs-k curves for the mesh and P-sync.
//! * [`surrogate`] — the closed forms repackaged as drop-in surrogates for
//!   the cycle-accurate fabrics (the multi-fidelity engine's fast path).

pub mod fig11;
pub mod model;
pub mod surrogate;
pub mod table1;
pub mod table2;
pub mod table3;

pub use fig11::fig11_curves;
pub use model::{FftParams, ModelIi};
pub use surrogate::{
    mesh_scatter_cycles, model2_point, table3_writeback_cycles, Model2TimingParams,
};
pub use table1::table1;
pub use table2::table2;
pub use table3::{
    table3_pscan_cycles, Table3Params, PAPER_MESH_WRITEBACK_TP1, PAPER_MESH_WRITEBACK_TP4,
};
