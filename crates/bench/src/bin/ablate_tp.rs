//! Ablation: reorder-staging cost `t_p` swept 1..=8 — extends Table III's
//! two-point comparison into a curve.
//!
//! ```text
//! cargo run --release -p bench --bin ablate_tp [--quick]
//! ```

use analytic::table3::Table3Params;
use bench::{f, BenchError, Experiment};
use emesh::mesh::MeshConfig;
use emesh::workloads::load_transpose;
use rayon::prelude::*;
use serde::Serialize;

#[derive(Serialize)]
struct Point {
    t_p: u64,
    mesh_cycles: u64,
    multiplier: f64,
}

fn main() -> Result<(), BenchError> {
    let ex = Experiment::new("ablate_tp");
    let (procs, row_len) = if ex.quick() { (64, 64) } else { (256, 256) };
    let pscan = Table3Params {
        n: row_len as u64,
        p: procs as u64,
        ..Default::default()
    }
    .pscan_cycles();

    // Eight independent simulations: sweep the t_p axis in parallel.
    let interrupt = ex.interrupt();
    let points: Vec<Point> = (1u64..9)
        .into_par_iter()
        .map(|t_p| {
            eprintln!("t_p = {t_p}...");
            let cfg = MeshConfig::table3(procs, t_p);
            let mut mesh = load_transpose(cfg, procs, row_len);
            if let Some(intr) = &interrupt {
                mesh.set_interrupt(intr.clone());
            }
            let cycles = mesh.run().map(|r| r.cycles).map_err(|e| (t_p, e));
            cycles.map(|cycles| Point {
                t_p,
                mesh_cycles: cycles,
                multiplier: cycles as f64 / pscan as f64,
            })
        })
        .collect::<Result<_, _>>()
        .map_err(|(t_p, e)| BenchError::run(&format!("ablate_tp t_p={t_p}"), e))?;
    let cells: Vec<Vec<String>> = points
        .iter()
        .map(|p| {
            vec![
                p.t_p.to_string(),
                p.mesh_cycles.to_string(),
                f(p.multiplier, 2),
            ]
        })
        .collect();
    // The port-bound model predicts ~linear growth: (2 + t_p) per element.
    let slope = (points[7].mesh_cycles - points[0].mesh_cycles) as f64 / 7.0;
    ex.table(
        &format!(
            "Ablation: t_p sweep, transpose P = {procs}, N = {row_len} (PSCAN = {pscan} cycles)"
        ),
        &["t_p", "mesh cycles", "multiplier vs PSCAN"],
        &cells,
    )
    .note(format!(
        "marginal cost per unit t_p: {:.0} cycles (elements = {}): {:.2} cycles/element",
        slope,
        procs * row_len,
        slope / (procs * row_len) as f64
    ))
    .rows(&points)
    .run()
}
