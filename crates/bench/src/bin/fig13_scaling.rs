//! Regenerates **Fig. 13** — simulated 2-D FFT performance (GFLOPS, paper
//! multiply-costing) vs core count for the ideal machine, P-sync, and the
//! electronic mesh, under Model-I delivery and equalized bandwidth — and,
//! from the same sweep, **Fig. 14**: the percentage of total runtime spent
//! reorganizing data between the two 1-D FFT passes. Both figures' columns
//! are in the rows written to `results/fig13.json`.
//!
//! ```text
//! cargo run --release -p bench --bin fig13_scaling
//! ```

use bench::{f, BenchError, Experiment};
use llmore::sweep::{paper_core_counts, sweep_cores};
use llmore::SystemParams;

fn main() -> Result<(), BenchError> {
    let ex = Experiment::new("fig13");
    let pts = sweep_cores(&SystemParams::default(), &paper_core_counts());
    let cells: Vec<Vec<String>> = pts
        .iter()
        .map(|p| {
            vec![
                p.cores.to_string(),
                f(p.ideal_gflops, 2),
                f(p.psync_gflops, 2),
                f(p.mesh_gflops, 2),
                f(p.psync_gflops / p.mesh_gflops, 2),
            ]
        })
        .collect();
    let reorg: Vec<Vec<String>> = pts
        .iter()
        .map(|p| {
            vec![
                p.cores.to_string(),
                f(p.mesh_reorg_frac * 100.0, 1),
                f(p.psync_reorg_frac * 100.0, 1),
            ]
        })
        .collect();
    let last = pts.last().unwrap();
    let mesh_peak = pts
        .iter()
        .max_by(|a, b| a.mesh_gflops.partial_cmp(&b.mesh_gflops).unwrap())
        .unwrap();
    ex.table(
        "Fig. 13: 2-D FFT performance vs cores (1024x1024, 4 memory controllers)",
        &[
            "cores",
            "ideal GFLOPS",
            "P-sync GFLOPS",
            "mesh GFLOPS",
            "P-sync/mesh",
        ],
        &cells,
    )
    .note(format!(
        "mesh peaks at {} cores; P-sync/ideal at 4096 cores = {:.3}",
        mesh_peak.cores,
        last.psync_gflops / last.ideal_gflops
    ))
    .table(
        "Fig. 14: % of runtime in data reorganization (2-D FFT)",
        &["cores", "mesh (%)", "P-sync (%)"],
        &reorg,
    )
    .note(format!(
        "at 4096 cores: mesh {:.1}% vs P-sync {:.1}% (paper: mesh keeps growing, P-sync levels off)",
        last.mesh_reorg_frac * 100.0,
        last.psync_reorg_frac * 100.0
    ))
    .rows(&pts)
    .run()
}
