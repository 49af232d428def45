//! Regenerates **Table III** — transpose completion time in cycles.
//!
//! PSCAN side: both the closed-form Eq. (23)/(24) arithmetic and the actual
//! bus-slot count of an end-to-end SCA writeback on the simulated machine.
//! Mesh side: the cycle-level wormhole simulation at `t_p = 1` and
//! `t_p = 4`.
//!
//! ```text
//! cargo run --release -p bench --bin table3_transpose [--quick] \
//!     [--timeout-s <secs>] [--trace-out trace.json] [--metrics-out metrics.json]
//! ```
//!
//! `--quick` runs a 256-processor / 256-sample-row configuration (the full
//! paper configuration is P = 1024, N = 1024 → 2²⁰ elements and takes a
//! couple of minutes of simulation). With `--trace-out`/`--metrics-out`
//! the mesh runs instrumented (per-router spans, memif/DRAM series) and a
//! small P-sync machine executes the SCA writeback for real so the trace
//! also carries per-CP drive and per-phase spans.
//!
//! The workload itself lives in [`bench::jobs`] so the supervised batch
//! driver (`run_batch`) produces byte-identical result files.

use bench::jobs::{run_table3, Table3Spec};
use bench::{f, BenchError, Experiment};
use pscan::compiler::{GatherSpec, ScatterSpec};
use psync::machine::{Machine, MachineConfig};
use sim_core::telemetry::Registry;

/// Trace-mode companion: the default PSCAN number is closed-form
/// arithmetic, so to get per-CP drive and per-phase spans into the trace
/// we execute a small SCA delivery → compute → writeback on the simulated
/// machine and harvest its registry.
fn traced_machine_writeback() -> Registry {
    const NODES: usize = 8;
    const BLOCK: usize = 8;
    let words = NODES * BLOCK;
    let mut m = Machine::new(MachineConfig::paper_default(NODES, 2 * words));
    m.enable_telemetry();
    m.head.fill(0, &(0..words as u64).collect::<Vec<_>>());
    let addrs: Vec<u64> = (0..words as u64).collect();
    let delivered = m.scatter_from_memory("deliver", &addrs, &ScatterSpec::blocked(NODES, BLOCK));
    m.compute_phase("compute", |_| 100.0);
    let back: Vec<u64> = (words as u64..2 * words as u64).collect();
    m.gather_to_memory(
        "writeback",
        &GatherSpec::interleaved(NODES, BLOCK, 1),
        &delivered,
        &back,
    );
    m.take_telemetry().expect("telemetry enabled")
}

fn main() -> std::result::Result<(), BenchError> {
    let mut ex = Experiment::new("table3");
    let cfg = if ex.quick() {
        Table3Spec::quick()
    } else {
        Table3Spec::paper()
    };
    let tracing = ex.tracing();

    let interrupt = ex.interrupt();
    let (result, registries) =
        run_table3(&cfg, tracing, interrupt.as_ref()).map_err(|e| BenchError::run("table3", e))?;
    let (procs, row_len) = (cfg.procs, cfg.row_len);

    let cells = vec![
        vec![
            "PSCAN (SCA)".to_string(),
            "-".to_string(),
            result.pscan_cycles.to_string(),
            "1.00".to_string(),
            "1.00".to_string(),
        ],
        vec![
            "mesh".to_string(),
            "1".to_string(),
            result.mesh_cycles_tp1.to_string(),
            f(result.multiplier_tp1, 2),
            f(result.paper_multiplier_tp1, 2),
        ],
        vec![
            "mesh".to_string(),
            "4".to_string(),
            result.mesh_cycles_tp4.to_string(),
            f(result.multiplier_tp4, 2),
            f(result.paper_multiplier_tp4, 2),
        ],
    ];
    ex = ex.table(
        &format!(
            "Table III: transpose writeback, P = {procs}, N = {row_len} ({} samples)",
            procs * row_len
        ),
        &[
            "network",
            "t_p",
            "writeback (cycles)",
            "multiplier",
            "paper multiplier",
        ],
        &cells,
    );
    if !ex.quick() {
        ex = ex.note(format!(
            "paper PSCAN cycles: {} (ours: {})",
            analytic::table3::table3_pscan_cycles(),
            result.pscan_cycles
        ));
    }
    for reg in registries {
        ex = ex.telemetry(reg);
    }
    if tracing {
        ex = ex.telemetry(traced_machine_writeback());
    }
    ex.rows(&result).run()
}
