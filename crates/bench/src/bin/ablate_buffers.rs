//! Ablation: does a beefier mesh escape the Table III port bound? Sweep
//! input-buffer depth well past the paper's 2 flits and watch the transpose
//! completion barely move — the bottleneck is the single reorder-staged
//! ejection port, not buffering.
//!
//! ```text
//! cargo run --release -p bench --bin ablate_buffers [--quick]
//! ```

use analytic::table3::Table3Params;
use bench::{f, BenchError, Experiment};
use emesh::mesh::MeshConfig;
use emesh::workloads::load_transpose;
use rayon::prelude::*;
use serde::Serialize;

#[derive(Serialize)]
struct Point {
    buffer_depth: usize,
    mesh_cycles: u64,
    multiplier: f64,
}

fn main() -> Result<(), BenchError> {
    let ex = Experiment::new("ablate_buffers");
    let (procs, row_len) = if ex.quick() { (64, 64) } else { (256, 256) };
    let pscan = Table3Params {
        n: row_len as u64,
        p: procs as u64,
        ..Default::default()
    }
    .pscan_cycles();

    // Every depth is an independent simulation: sweep in parallel.
    let interrupt = ex.interrupt();
    let points: Vec<Point> = [2usize, 4, 8, 16, 64]
        .into_par_iter()
        .map(|depth| {
            eprintln!("buffer depth {depth}...");
            let cfg = MeshConfig::table3(procs, 1).with_buffers(depth);
            let mut mesh = load_transpose(cfg, procs, row_len);
            if let Some(intr) = &interrupt {
                mesh.set_interrupt(intr.clone());
            }
            mesh.run().map(|r| r.cycles).map(|cycles| Point {
                buffer_depth: depth,
                mesh_cycles: cycles,
                multiplier: cycles as f64 / pscan as f64,
            })
        })
        .collect::<Result<_, _>>()
        .map_err(|e| BenchError::run("ablate_buffers", e))?;
    let cells: Vec<Vec<String>> = points
        .iter()
        .map(|p| {
            vec![
                p.buffer_depth.to_string(),
                p.mesh_cycles.to_string(),
                f(p.multiplier, 2),
            ]
        })
        .collect();
    let first = points.first().unwrap().mesh_cycles as f64;
    let last = points.last().unwrap().mesh_cycles as f64;
    ex.table(
        &format!(
            "Ablation: buffer depth, transpose P = {procs}, N = {row_len}, t_p = 1 (PSCAN = {pscan})"
        ),
        &["buffer depth", "mesh cycles", "multiplier"],
        &cells,
    )
    .note(format!(
        "32x deeper buffers buy {:.1}% — the ejection port, not buffering, is the wall.",
        (first - last) / first * 100.0
    ))
    .rows(&points)
    .run()
}
