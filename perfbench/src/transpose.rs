//! `transpose`: one Table III mesh transpose writeback per request, built
//! with `emesh::workloads::load_transpose` and run with `Mesh::run`.
//!
//! P = N = 256, `t_p = 1`, minimal adaptive routing, one thread: the first
//! row of `ci/perf_baseline.json`. The emesh executor (route, wave plan,
//! memif) does nearly all the work; psync, pscan and memory do none. The
//! configuration has no data-dependent input, so the seed is unused.

use emesh::mesh::{MeshConfig, MeshError, MeshRunResult};
use emesh::workloads::load_transpose;

use crate::{RequestView, Tracer, Workload};

/// Processors, and elements per processor row.
pub const P: usize = 256;

/// What a transpose request's output shows.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Counts {
    /// Elements that reached the memory interfaces.
    pub elements: u64,
    /// Simulated completion cycles.
    pub cycles: u64,
    /// Router traversals.
    pub flit_moves: u64,
}

/// The counts the seed commit produces for this configuration.
pub const EXPECTED: Counts = Counts {
    elements: (P * P) as u64,
    cycles: 203_583,
    flit_moves: 2_097_152,
};

/// The `transpose` workload.
#[derive(Debug)]
pub struct TransposeWorkload {
    /// The counts every request must reproduce.
    pub expected: Counts,
}

fn config() -> MeshConfig {
    MeshConfig::table3(P, 1).with_threads(1)
}

fn counts(res: Result<MeshRunResult, MeshError>) -> Option<Counts> {
    let res = res.ok()?;
    Some(Counts {
        elements: res.memif_stats.iter().map(|s| s.elements).sum(),
        cycles: res.cycles,
        flit_moves: res.energy.router_traversals,
    })
}

impl Workload for TransposeWorkload {
    /// The observed counts, or `None` when the mesh run failed.
    type Output = Option<Counts>;

    fn setup(_seed: u64) -> Self {
        let mut w = TransposeWorkload { expected: EXPECTED };
        std::hint::black_box(w.run());
        w
    }

    fn run(&mut self) -> Self::Output {
        let mut mesh = load_transpose(config(), P, P);
        counts(mesh.run())
    }

    fn run_traced(&mut self, tr: &mut Tracer) -> Self::Output {
        let mut mesh = tr.span("emesh.build", |_| load_transpose(config(), P, P));
        // The mesh is dropped inside the run span: tearing it down is emesh
        // work too.
        counts(tr.span("emesh.run", move |_| mesh.run()))
    }

    fn account(&mut self, out: &Self::Output, tr: &mut Tracer) {
        if let Some(c) = out {
            tr.count("emesh.cycles", c.cycles as f64);
            tr.count("emesh.flit_moves", c.flit_moves as f64);
        }
    }

    fn layer_metrics(r: &RequestView) -> Vec<(&'static str, f64)> {
        let (build, run) = (r.ms("emesh.build"), r.ms("emesh.run"));
        let (cycles, moves) = (r.counter("emesh.cycles"), r.counter("emesh.flit_moves"));
        vec![
            ("emesh.build_ms", build),
            ("emesh.run_ms", run),
            ("emesh.cycles", cycles),
            ("emesh.flit_moves", moves),
            ("emesh.ns_per_flit_move", run * 1e6 / moves),
            ("emesh.cycles_per_s", cycles / (run / 1e3)),
        ]
    }

    fn check(&self, out: &Self::Output) -> bool {
        *out == Some(self.expected)
    }
}
