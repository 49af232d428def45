//! `collectives`: one `jobs::run_collectives` per request, which runs
//! all-to-all, all-gather and all-reduce on both fabrics.
//!
//! An 8×8 non-torus mesh with the single-corner memif (63 participants),
//! the matching p64 SCA machine, and `words = 8`. This loads emesh
//! differently from `transpose`: every mesh phase is 62 small ring rounds,
//! each drained on a fresh `Mesh`, so per-mesh set-up cost shows here.
//! Tori are left out: their rows come from the deadlock-bisection
//! workaround and will change when that is replaced.

use bench::jobs::{
    collective_mesh_row, collective_sca_row, run_collectives, CollectiveRow, CollectivesSpec,
};
use sim_core::collective::Collective;
use sim_core::telemetry::Registry;

use crate::{RequestView, Tracer, Workload};

/// The collectives configuration every request runs.
pub fn spec() -> CollectivesSpec {
    CollectivesSpec {
        width: 8,
        height: 8,
        torus: false,
        words: 8,
        threads: 1,
    }
}

/// Row fingerprints the seed commit produces for [`spec`], in
/// `run_collectives` row order: (mesh, sca) for each of all-to-all,
/// all-gather and all-reduce.
pub const FINGERPRINTS: [u64; 6] = [
    0x581d_02bc_7ea0_8e5e,
    0xb4eb_6912_642b_c924,
    0x1e17_6fc1_930e_3564,
    0x8566_1c96_d554_5e57,
    0x3257_c69d_2440_0d99,
    0xe393_aea2_e948_3c34,
];

/// The `collectives` workload.
#[derive(Debug)]
pub struct CollectivesWorkload {
    /// The fingerprints every request must reproduce.
    pub fingerprints: [u64; 6],
    /// Mesh ring rounds of the last traced request, from the mesh
    /// collective's telemetry registry.
    rounds: u64,
}

impl Workload for CollectivesWorkload {
    /// The six result rows, or `None` when a fabric failed.
    type Output = Option<Vec<CollectiveRow>>;

    fn setup(_seed: u64) -> Self {
        let mut w = CollectivesWorkload {
            fingerprints: FINGERPRINTS,
            rounds: 0,
        };
        std::hint::black_box(w.run());
        w
    }

    fn run(&mut self) -> Self::Output {
        run_collectives(&spec(), false, None)
            .ok()
            .map(|(rows, _)| rows)
    }

    fn run_traced(&mut self, tr: &mut Tracer) -> Self::Output {
        let spec = spec();
        let reg = Registry::new();
        let mut rows = Vec::with_capacity(2 * Collective::ALL.len());
        for c in Collective::ALL {
            rows.push(
                tr.span("emesh.collective", |_| {
                    collective_mesh_row(&spec, c, Some(&reg))
                })
                .ok()?,
            );
            rows.push(
                tr.span("psync.collective", |_| collective_sca_row(&spec, c, false))
                    .ok()?
                    .0,
            );
        }
        self.rounds = reg.counter_value("collective.rounds").unwrap_or(0);
        Some(rows)
    }

    fn account(&mut self, out: &Self::Output, tr: &mut Tracer) {
        tr.count("emesh.rounds", self.rounds as f64);
        let slots: u64 = out
            .iter()
            .flatten()
            .filter(|r| r.fabric == "sca")
            .map(|r| r.cycles)
            .sum();
        tr.count("psync.collective_bus_slots", slots as f64);
    }

    fn layer_metrics(r: &RequestView) -> Vec<(&'static str, f64)> {
        let mesh = r.ms("emesh.collective");
        let rounds = r.counter("emesh.rounds");
        vec![
            ("emesh.collective_ms", mesh),
            ("emesh.rounds", rounds),
            ("emesh.us_per_round", mesh * 1e3 / rounds),
            ("psync.collective_ms", r.ms("psync.collective")),
            (
                "psync.collective_bus_slots",
                r.counter("psync.collective_bus_slots"),
            ),
        ]
    }

    fn check(&self, out: &Self::Output) -> bool {
        out.as_ref().is_some_and(|rows| {
            rows.len() == self.fingerprints.len()
                && rows
                    .iter()
                    .zip(self.fingerprints)
                    .all(|(r, fp)| r.fingerprint == fp)
        })
    }
}
