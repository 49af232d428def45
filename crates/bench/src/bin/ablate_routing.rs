//! Ablation: routing policy (XY vs minimal adaptive) on the transpose
//! hotspot — DESIGN.md §7.2.
//!
//! ```text
//! cargo run --release -p bench --bin ablate_routing [--quick]
//! ```

use bench::{f, BenchError, Experiment};
use emesh::mesh::{MeshConfig, RoutingPolicy};
use emesh::workloads::load_transpose;
use rayon::prelude::*;
use serde::Serialize;

#[derive(Serialize)]
struct Point {
    procs: usize,
    policy: String,
    cycles: u64,
    mean_latency: Option<f64>,
    p99_latency: Option<u64>,
}

fn main() -> Result<(), BenchError> {
    let ex = Experiment::new("ablate_routing");
    let sizes: &[usize] = if ex.quick() { &[64] } else { &[64, 256] };
    let combos: Vec<(usize, &str, RoutingPolicy)> = sizes
        .iter()
        .flat_map(|&procs| {
            [
                (procs, "xy", RoutingPolicy::Xy),
                (procs, "adaptive", RoutingPolicy::MinimalAdaptive),
            ]
        })
        .collect();
    // Each (size, policy) cell is an independent simulation: run them all
    // in parallel; order is preserved so the table reads as before.
    let interrupt = ex.interrupt();
    let points: Vec<Point> = combos
        .into_par_iter()
        .map(|(procs, name, policy)| {
            eprintln!("P = {procs}, {name}...");
            let row_len = procs;
            let cfg = MeshConfig::table3(procs, 1).with_policy(policy);
            let mut mesh = load_transpose(cfg, procs, row_len);
            if let Some(intr) = &interrupt {
                mesh.set_interrupt(intr.clone());
            }
            mesh.track_latency(64, 4096);
            let res = mesh.run()?;
            let h = res.latency.expect("tracking on");
            Ok(Point {
                procs,
                policy: name.to_string(),
                cycles: res.cycles,
                mean_latency: h.mean(),
                p99_latency: h.quantile(0.99),
            })
        })
        .collect::<Result<_, emesh::mesh::MeshError>>()
        .map_err(|e| BenchError::run("ablate_routing", e))?;
    let cells: Vec<Vec<String>> = points
        .iter()
        .map(|p| {
            vec![
                p.procs.to_string(),
                p.policy.clone(),
                p.cycles.to_string(),
                f(p.mean_latency.unwrap_or(0.0), 0),
                p.p99_latency.unwrap_or(0).to_string(),
            ]
        })
        .collect();

    // Second workload: four-corner gather, where eastbound packets really
    // do choose between E and N/S by congestion. Same parallel sweep shape.
    let combos4: Vec<(usize, &str, RoutingPolicy)> = sizes
        .iter()
        .flat_map(|&procs| {
            [
                (procs, "xy", RoutingPolicy::Xy),
                (procs, "adaptive", RoutingPolicy::MinimalAdaptive),
            ]
        })
        .collect();
    let cells4: Vec<Vec<String>> = combos4
        .into_par_iter()
        .map(|(procs, name, policy)| {
            let cfg = MeshConfig::paper_default()
                .with_topology(emesh::topology::Topology::square(
                    procs,
                    emesh::topology::MemifPlacement::FourCorners,
                ))
                .with_policy(policy);
            let mut mesh = emesh::workloads::load_gather_energy(cfg, 64);
            if let Some(intr) = &interrupt {
                mesh.set_interrupt(intr.clone());
            }
            mesh.track_latency(64, 4096);
            let res = mesh.run()?;
            let h = res.latency.expect("tracking on");
            Ok(vec![
                procs.to_string(),
                name.to_string(),
                res.cycles.to_string(),
                f(h.mean().unwrap_or(0.0), 0),
                h.quantile(0.99).unwrap_or(0).to_string(),
            ])
        })
        .collect::<Result<_, emesh::mesh::MeshError>>()
        .map_err(|e| BenchError::run("ablate_routing", e))?;

    ex.table(
        "Ablation: routing policy on the transpose hotspot (t_p = 1)",
        &[
            "P",
            "policy",
            "completion (cycles)",
            "mean pkt latency",
            "p99 pkt latency",
        ],
        &cells,
    )
    .note(
        "single-corner traffic is all-west/north, where west-first adaptivity\n\
         degenerates to XY: the ejection port bounds completion either way.\n",
    )
    .table(
        "Ablation: routing policy, four-corner gather (adaptivity active)",
        &[
            "P",
            "policy",
            "completion (cycles)",
            "mean pkt latency",
            "p99 pkt latency",
        ],
        &cells4,
    )
    .rows(&points)
    .run()
}
