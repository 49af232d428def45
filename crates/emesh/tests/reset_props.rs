//! Property tests for [`Mesh::reset`].
//!
//! A reset mesh must be indistinguishable from a freshly built one: after
//! any earlier run — drained, deadlocked, or cancelled mid-flight through an
//! [`Interrupt`], with or without faults, telemetry, latency tracking and
//! sink-word collection attached — `reset` followed by a new batch of
//! traffic yields the same [`MeshRunResult`], field by field, and the same
//! delivered payload words as [`Mesh::new`] given that batch.

use emesh::flit::Packet;
use emesh::memif::MemifConfig;
use emesh::mesh::{Mesh, MeshConfig, MeshError, MeshRunResult, RoutingPolicy};
use emesh::topology::{MemifPlacement, Topology};
use emesh::MeshFaultConfig;
use proptest::prelude::*;
use sim_core::cancel::Interrupt;

/// `(source, destination, payload words)`, both ids taken modulo the node
/// count when injected.
type Batch = Vec<(u32, u32, usize)>;

/// The run before the reset.
#[derive(Debug, Clone, Copy)]
enum Before {
    /// The random batch, run until it drains or deadlocks.
    Run,
    /// The random batch, cancelled by a deterministic cycle bound.
    Cancel(u64),
    /// Every node sends 8 words to the node `k` ids ahead instead of the
    /// random batch: a full shift, which often deadlocks a torus.
    Shift(u32),
}

/// A mesh or torus of `topology` with the given buffer depth, `t_r` and
/// `t_p`.
fn config(
    topology: Topology,
    policy: RoutingPolicy,
    depth: usize,
    t_r: u64,
    t_p: u64,
) -> MeshConfig {
    MeshConfig::paper_default()
        .with_topology(topology)
        .with_policy(policy)
        .with_buffers(depth)
        .with_t_r(t_r)
        .with_memif(MemifConfig {
            t_p,
            ..Default::default()
        })
        .with_max_cycles(1 << 16)
}

fn inject(mesh: &mut Mesh, batch: &Batch) {
    let n = mesh.config().topology.nodes() as u32;
    for (id, &(src, dest, words)) in batch.iter().enumerate() {
        let payload = (0..words as u64).map(|w| id as u64 * 8 + w).collect();
        mesh.inject_packet(src % n, &Packet::with_header(dest % n, id as u64, payload));
    }
}

/// Run `batch` on `mesh` with sink words and latency recorded, returning
/// the result and every node's delivered payload words.
fn observe(mesh: &mut Mesh, batch: &Batch) -> (Result<MeshRunResult, MeshError>, Vec<Vec<u64>>) {
    mesh.collect_sink_words(true);
    mesh.track_latency(4, 64);
    inject(mesh, batch);
    let res = mesh.run();
    let n = mesh.config().topology.nodes() as u32;
    (
        res,
        (0..n).map(|node| mesh.sink_words(node).to_vec()).collect(),
    )
}

/// Up to `max` packets between random nodes, 1–8 payload words each.
fn batch(max: usize) -> impl Strategy<Value = Batch> {
    prop::collection::vec(0u64..64 * 64 * 8, 1..max).prop_map(|draws| {
        draws
            .into_iter()
            .map(|d| {
                (
                    (d % 64) as u32,
                    (d / 64 % 64) as u32,
                    (d / 4096) as usize + 1,
                )
            })
            .collect()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn reset_mesh_runs_like_a_fresh_one(
        width in 2usize..6,
        height in 1usize..6,
        torus in prop::bool::ANY,
        corners in prop::bool::ANY,
        adaptive in prop::bool::ANY,
        depth in 1usize..4,
        t_r in 1u64..3,
        t_p in 1u64..4,
        first in batch(240),
        second in batch(40),
        before in prop_oneof![
            Just(Before::Run),
            (1u64..100).prop_map(Before::Cancel),
            (1u32..32).prop_map(Before::Shift),
        ],
        attach in prop::bool::ANY,
    ) {
        let placement = if corners {
            MemifPlacement::FourCorners
        } else {
            MemifPlacement::SingleCorner
        };
        let policy = if adaptive {
            RoutingPolicy::MinimalAdaptive
        } else {
            RoutingPolicy::Xy
        };
        let topology = Topology::rect(width, height, placement).with_torus(torus);
        let cfg = config(topology, policy, depth, t_r, t_p);
        let mut reused = Mesh::new(cfg);
        if attach {
            reused.collect_sink_words(true);
            reused.track_latency(2, 16);
            reused.enable_telemetry();
            reused.enable_faults(MeshFaultConfig {
                seed: 3,
                corrupt_rate: 0.05,
                link_down_rate: 0.02,
                ..Default::default()
            });
        }
        match before {
            Before::Run => inject(&mut reused, &first),
            Before::Cancel(bound) => {
                reused.set_interrupt(Interrupt::new().with_cycle_bound(bound));
                inject(&mut reused, &first);
            }
            Before::Shift(k) => {
                let n = topology.nodes() as u32;
                let shift: Batch = (0..n).map(|i| (i, (i + k) % n, 8)).collect();
                inject(&mut reused, &shift);
            }
        }
        let _ = reused.run();
        reused.reset();
        prop_assert!(reused.telemetry().is_none() && reused.faults().is_none());

        let (got, got_words) = observe(&mut reused, &second);
        let (want, want_words) = observe(&mut Mesh::new(cfg), &second);
        match (got, want) {
            (Ok(got), Ok(want)) => {
                prop_assert_eq!(got.cycles, want.cycles);
                prop_assert_eq!(got.energy, want.energy);
                prop_assert_eq!(got.memif_stats, want.memif_stats);
                prop_assert_eq!(got.sink_delivered, want.sink_delivered);
                prop_assert_eq!(got.sink_last_cycle, want.sink_last_cycle);
                prop_assert_eq!(format!("{:?}", got.latency), format!("{:?}", want.latency));
                prop_assert_eq!(got.router_forwards, want.router_forwards);
                prop_assert_eq!(got.faults, want.faults);
                prop_assert_eq!(got.warnings, want.warnings);
            }
            (got, want) => prop_assert_eq!(got.err(), want.err()),
        }
        prop_assert_eq!(got_words, want_words);
    }
}

/// Some full shift permutation among the 15 non-memif nodes of a 4×4
/// torus overfills the wrap rings and deadlocks (the case the collective
/// runner bisects). The deadlocked mesh, once reset, runs a different batch
/// exactly as a fresh mesh does.
#[test]
fn reset_after_a_deadlock_matches_a_fresh_mesh() {
    let torus = Topology::torus(4, 4, MemifPlacement::SingleCorner);
    let cfg = config(torus, RoutingPolicy::Xy, 2, 1, 1);
    let mut mesh = Mesh::new(cfg);
    let deadlocked = (1..15).any(|k| {
        let shift: Batch = (0..15).map(|i| (1 + i, 1 + (i + k) % 15, 4)).collect();
        mesh.reset();
        inject(&mut mesh, &shift);
        matches!(mesh.run(), Err(MeshError::Deadlock { .. }))
    });
    assert!(deadlocked, "some full shift must deadlock the torus");
    mesh.reset();
    let pair: Batch = vec![(5, 10, 4), (10, 5, 4)];
    let (got, got_words) = observe(&mut mesh, &pair);
    let (want, want_words) = observe(&mut Mesh::new(cfg), &pair);
    assert_eq!(format!("{got:?}"), format!("{want:?}"));
    assert_eq!(got_words, want_words);
}
