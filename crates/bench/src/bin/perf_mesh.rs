//! Simulator-performance harness: wall-clock throughput of the emesh
//! event engine on the fixed Table III configuration.
//!
//! Runs the 2²⁰-element transpose (P = 1024 processors, N = 1024 row
//! length, `t_p = 1`, minimal adaptive) and reports simulated cycles,
//! wall-time, and flit-moves per second (router traversals / wall-time —
//! the natural unit of scheduler work) for each routing policy on the
//! sequential executor (DESIGN.md §11). Results go to
//! `results/perf_mesh.json` so speedups across scheduler changes are
//! tracked in-repo.
//!
//! `--quick` drops to P = N = 256 for smoke runs.

use bench::jobs::perf_mesh_point;
use bench::{f, BenchError, Experiment};
use emesh::mesh::{MeshError, RoutingPolicy};
use serde::Serialize;
use sim_core::cancel::Interrupt;

/// Seed-scheduler wall-times for the full 2²⁰ transpose (global
/// `BinaryHeap` wakeups + `VecDeque` buffers, commit f071ec2), measured
/// 2026-08-05 on this repo's reference machine, release build. Quick-mode
/// runs have no recorded baseline.
const SEED_WALL_S: [(&str, f64); 2] = [("MinimalAdaptive", 18.98), ("Xy", 18.40)];

#[derive(Serialize)]
struct PerfRow {
    procs: usize,
    row_len: usize,
    elements: usize,
    policy: String,
    t_p: u64,
    /// Worker threads (always 1; half of the perf gate's row key).
    threads: usize,
    cycles: u64,
    wall_s: f64,
    flit_moves: u64,
    flit_moves_per_s: f64,
    cycles_per_s: f64,
    /// Recorded seed-scheduler wall-time for this configuration, if any.
    seed_wall_s: Option<f64>,
    /// `seed_wall_s / wall_s` — the scheduler-rework speedup.
    speedup_vs_seed: Option<f64>,
}

fn run_one(
    procs: usize,
    row_len: usize,
    policy: RoutingPolicy,
    t_p: u64,
    interrupt: Option<&Interrupt>,
) -> Result<PerfRow, MeshError> {
    // The simulation core is shared with the `perf_mesh` job family in
    // [`bench::jobs`]; this bin adds the wall-clock-derived columns.
    let (res, wall_s) = perf_mesh_point(procs, row_len, policy, t_p, 1, interrupt)?;
    let (cycles, flit_moves) = (res.cycles, res.energy.router_traversals);
    let policy = format!("{policy:?}");
    let seed_wall_s = if (procs, row_len) == (1024, 1024) {
        SEED_WALL_S
            .iter()
            .find(|(p, _)| *p == policy)
            .map(|&(_, s)| s)
    } else {
        None
    };
    Ok(PerfRow {
        procs,
        row_len,
        elements: procs * row_len,
        policy,
        t_p,
        threads: 1,
        cycles,
        wall_s,
        flit_moves,
        flit_moves_per_s: flit_moves as f64 / wall_s,
        cycles_per_s: cycles as f64 / wall_s,
        seed_wall_s,
        speedup_vs_seed: seed_wall_s.map(|s| s / wall_s),
    })
}

fn main() -> Result<(), BenchError> {
    let ex = Experiment::new("perf_mesh");
    let (procs, row_len) = if ex.quick() { (256, 256) } else { (1024, 1024) };
    let interrupt = ex.interrupt();

    let mut rows: Vec<PerfRow> = Vec::new();
    for policy in [RoutingPolicy::MinimalAdaptive, RoutingPolicy::Xy] {
        eprintln!("perf_mesh: {procs}x{row_len} transpose, {policy:?}, t_p=1 ...");
        let row = run_one(procs, row_len, policy, 1, interrupt.as_ref())
            .map_err(|e| BenchError::run("perf_mesh", e))?;
        rows.push(row);
    }

    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                format!("{}x{}", r.procs, r.row_len),
                r.policy.clone(),
                r.cycles.to_string(),
                f(r.wall_s, 2),
                f(r.flit_moves_per_s / 1e6, 2),
                r.speedup_vs_seed
                    .map_or("-".to_string(), |s| format!("{s:.2}x")),
            ]
        })
        .collect();
    ex.table(
        "Simulator performance (Table III transpose)",
        &[
            "transpose",
            "policy",
            "cycles",
            "wall s",
            "Mflit/s",
            "vs seed",
        ],
        &table,
    )
    .rows(&rows)
    .run()
}
