//! Collective-traffic harness: all-to-all / all-gather / all-reduce on
//! both fabrics across square, rectangular, and torus geometries.
//!
//! ```text
//! cargo run --release -p bench --bin collectives [-- --quick]
//! ```
//!
//! Each mesh geometry gets all three collectives (bulk-synchronous ring
//! rounds, DESIGN.md §16); the photonic SCA runs each collective once per
//! distinct processor count — the flat bus has no geometry, so a 16×16
//! mesh and a 32×8 mesh share one SCA machine. Rows carry the fabric's
//! native sequential unit in `cycles` (mesh cycles / SCA bus slots), a
//! determinism fingerprint the goldens pin byte-for-byte, and volatile
//! wall-clock throughput (`cycles_per_s`, scrubbed from goldens).

use std::collections::BTreeSet;
use std::time::Instant;

use bench::jobs::{collective_mesh_row, collective_sca_row, CollectivesSpec};
use bench::{f, BenchError, Experiment};
use serde::Serialize;
use sim_core::collective::Collective;

#[derive(Serialize)]
struct Row {
    /// `collective:<op>[<fabric>,<geometry>]`, the perf-gate key.
    policy: String,
    threads: usize,
    /// Participants in the collective.
    participants: u64,
    /// Payload words per node per block.
    words: usize,
    /// Mesh completion cycles or SCA bus slots (deterministic).
    cycles: u64,
    /// Golden-determinism fingerprint of the full run observables.
    fingerprint: u64,
    /// Wall-clock seconds (volatile).
    wall_s: f64,
    /// Simulated cycles per wall second (volatile).
    cycles_per_s: f64,
}

fn main() -> Result<(), BenchError> {
    let ex = Experiment::new("collectives");
    let (geoms, words) = if ex.quick() {
        (vec![(4, 4, false), (8, 2, false), (4, 4, true)], 4)
    } else {
        (vec![(16, 16, false), (32, 8, false), (16, 16, true)], 64)
    };

    let mut rows: Vec<Row> = Vec::new();
    let mut sca_done: BTreeSet<usize> = BTreeSet::new();
    for &(width, height, torus) in &geoms {
        let spec = CollectivesSpec {
            width,
            height,
            torus,
            words,
            threads: 1,
        };
        let geom = spec.topology().label();
        for collective in Collective::ALL {
            eprintln!("collectives: {} on mesh {geom} ...", collective.label());
            let t0 = Instant::now();
            let mesh = collective_mesh_row(&spec, collective, None)
                .map_err(|e| BenchError::run("collectives", e))?;
            let wall_s = t0.elapsed().as_secs_f64();
            rows.push(Row {
                policy: format!("collective:{}[mesh,{geom}]", collective.label()),
                threads: spec.threads,
                participants: mesh.participants,
                words,
                cycles: mesh.cycles,
                fingerprint: mesh.fingerprint,
                wall_s,
                cycles_per_s: mesh.cycles as f64 / wall_s,
            });
        }
        let procs = width * height;
        if sca_done.insert(procs) {
            for collective in Collective::ALL {
                eprintln!("collectives: {} on sca p{procs} ...", collective.label());
                let t0 = Instant::now();
                let (sca, _) = collective_sca_row(&spec, collective, false)
                    .map_err(|e| BenchError::run("collectives", e))?;
                let wall_s = t0.elapsed().as_secs_f64();
                rows.push(Row {
                    policy: format!("collective:{}[sca,{}]", collective.label(), sca.geometry),
                    threads: spec.threads,
                    participants: sca.participants,
                    words,
                    cycles: sca.cycles,
                    fingerprint: sca.fingerprint,
                    wall_s,
                    cycles_per_s: sca.cycles as f64 / wall_s,
                });
            }
        }
    }

    let cells: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.policy.clone(),
                r.participants.to_string(),
                r.words.to_string(),
                r.cycles.to_string(),
                format!("{:016x}", r.fingerprint),
                f(r.wall_s, 3),
            ]
        })
        .collect();
    ex.table(
        "Collectives: mesh cycles vs SCA bus slots",
        &[
            "policy",
            "parts",
            "words",
            "cycles",
            "fingerprint",
            "wall (s)",
        ],
        &cells,
    )
    .note(
        "Mesh collectives run as bulk-synchronous ring rounds (P-1 shift permutations);\n\
         tori recover from VC-less wrap-ring deadlocks by deterministic round bisection.\n\
         The SCA routes every collective through head-node DRAM in 2 passes (5 for\n\
         all-reduce, which also bills on-node reduction compute).",
    )
    .rows(&rows)
    .run()
}
