//! Regenerates **Fig. 5** — energy per bit, electronic mesh vs PSCAN.
//!
//! Both networks carry the same gather (every node's data to memory) with
//! 320 Gb/s to memory: the mesh through its four 80 Gb/s corner interfaces
//! (energy measured by cycle-level simulation + ORION-style constants), the
//! PSCAN through one 32 λ × 10 Gb/s bus (photonic device energy model).
//! The paper reports "at least a 5.2× improvement for the networks
//! simulated".
//!
//! ```text
//! cargo run --release -p bench --bin fig5_energy [--quick]
//! ```

use bench::{f, BenchError, Experiment};
use emesh::energy::OrionParams;
use emesh::mesh::{MeshConfig, RoutingPolicy};
use emesh::topology::{MemifPlacement, Topology};
use emesh::workloads::load_gather_energy;
use photonics::energy::PhotonicEnergyModel;
use serde::Serialize;

#[derive(Serialize)]
struct Point {
    nodes: usize,
    mesh_pj_per_bit: f64,
    pscan_pj_per_bit: f64,
    ratio: f64,
}

fn mesh_energy_pj_per_bit(
    nodes: usize,
    words_per_node: usize,
    interrupt: Option<&sim_core::cancel::Interrupt>,
) -> Result<f64, emesh::mesh::MeshError> {
    let cfg = MeshConfig::paper_default()
        .with_topology(Topology::square(nodes, MemifPlacement::FourCorners))
        .with_policy(RoutingPolicy::Xy)
        .with_max_cycles(1 << 34);
    let mut mesh = load_gather_energy(cfg, words_per_node);
    if let Some(intr) = interrupt {
        mesh.set_interrupt(intr.clone());
    }
    let res = mesh.run()?;
    let payload_bits = (nodes * words_per_node) as u64 * 64;
    Ok(OrionParams::default().pj_per_payload_bit(&res.energy, nodes, payload_bits))
}

fn main() -> Result<(), BenchError> {
    let ex = Experiment::new("fig5_energy");
    let quick = ex.quick();
    let sizes: &[usize] = if quick {
        &[16, 64, 256]
    } else {
        &[16, 64, 256, 1024]
    };
    let words = if quick { 64 } else { 256 };

    let photonic = PhotonicEnergyModel::default();
    let mut points = Vec::new();
    let mut cells = Vec::new();
    let interrupt = ex.interrupt();
    for &n in sizes {
        eprintln!("simulating {n}-node mesh gather ({words} words/node)...");
        let mesh = mesh_energy_pj_per_bit(n, words, interrupt.as_ref())
            .map_err(|e| BenchError::run("fig5_energy", e))?;
        let pscan = photonic.sca_pj_per_bit(20.0, n);
        let ratio = mesh / pscan;
        points.push(Point {
            nodes: n,
            mesh_pj_per_bit: mesh,
            pscan_pj_per_bit: pscan,
            ratio,
        });
        cells.push(vec![n.to_string(), f(mesh, 2), f(pscan, 3), f(ratio, 1)]);
    }
    let min_ratio = points.iter().map(|p| p.ratio).fold(f64::INFINITY, f64::min);
    ex.table(
        "Fig. 5: network energy per bit, SCA-equivalent gather (2 cm x 2 cm die)",
        &["nodes", "mesh (pJ/bit)", "PSCAN (pJ/bit)", "mesh/PSCAN"],
        &cells,
    )
    .note(format!(
        "minimum PSCAN advantage: {min_ratio:.1}x (paper: at least 5.2x)"
    ))
    .rows(&points)
    .run()
}
