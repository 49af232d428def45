//! Regenerates **Table II** — electronic mesh compute efficiency with
//! latency — and cross-checks the analytic delivery efficiency against the
//! cycle-level `emesh` simulator.
//!
//! ```text
//! cargo run --release -p bench --bin table2 [--quick]
//! ```

use analytic::model::FftParams;
use analytic::table2::{table2, PAPER_TABLE2};
use bench::{f, BenchError, Experiment};
use emesh::mesh::{MeshConfig, RoutingPolicy};
use emesh::topology::{MemifPlacement, Topology};
use emesh::workloads::load_scatter;
use serde::Serialize;

#[derive(Serialize)]
struct Row {
    k: u64,
    eta_d_pct: f64,
    eta_pct: f64,
    paper_eta_pct: f64,
    sim_eta_d_pct: Option<f64>,
}

/// Measure delivery efficiency by simulating one round of blocked scatter
/// on a real mesh and comparing to the zero-latency injection bound.
fn simulated_delivery_efficiency(
    p: usize,
    block_words: usize,
    interrupt: Option<&sim_core::cancel::Interrupt>,
) -> Result<f64, emesh::mesh::MeshError> {
    let cfg = MeshConfig::paper_default()
        .with_topology(Topology::square(p, MemifPlacement::SingleCorner))
        .with_policy(RoutingPolicy::Xy);
    let mut mesh = load_scatter(cfg, block_words, 1);
    if let Some(intr) = interrupt {
        mesh.set_interrupt(intr.clone());
    }
    let res = mesh.run()?;
    // Zero-latency bound: (P-1) packets x (block + header) flits injected
    // serially from the memory corner.
    let ideal = ((p - 1) * (block_words + 1)) as f64;
    Ok(ideal / res.cycles as f64)
}

fn main() -> Result<(), BenchError> {
    let ex = Experiment::new("table2");
    let params = FftParams::default();
    let rows = table2();
    // Simulating the delivery on a real 256-node mesh is meaningful but
    // slower; --quick uses a 64-node mesh.
    let sim_p = if ex.quick() { 64 } else { 256 };

    let interrupt = ex.interrupt();
    let mut out_rows = Vec::new();
    let mut cells = Vec::new();
    for (r, &(_, _, paper_eta)) in rows.iter().zip(&PAPER_TABLE2) {
        let block = params.block_samples(r.k) as usize;
        let sim = simulated_delivery_efficiency(sim_p, block, interrupt.as_ref())
            .map_err(|e| BenchError::run("table2", e))?;
        out_rows.push(Row {
            k: r.k,
            eta_d_pct: r.eta_d_pct,
            eta_pct: r.eta_pct,
            paper_eta_pct: paper_eta,
            sim_eta_d_pct: Some(sim * 100.0),
        });
        cells.push(vec![
            r.k.to_string(),
            f(r.eta_d_pct, 2),
            f(r.eta_pct, 2),
            f(paper_eta, 2),
            f(sim * 100.0, 1),
        ]);
    }
    let peak = out_rows
        .iter()
        .max_by(|a, b| a.eta_pct.partial_cmp(&b.eta_pct).unwrap())
        .unwrap();
    let peak_note = format!(
        "peak efficiency: {:.2}% at k = {} (paper: 81.74% at k = 8)",
        peak.eta_pct, peak.k
    );
    ex.table(
        &format!(
            "Table II: mesh compute efficiency with latency (analytic P = 256; sim on {sim_p}-node mesh)"
        ),
        &["k", "eta_d (%)", "eta (%)", "paper eta (%)", "sim eta_d (%)"],
        &cells,
    )
    .note(peak_note)
    .rows(&out_rows)
    .run()
}
