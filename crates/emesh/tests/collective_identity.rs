//! Geometry properties and collective-schedule determinism (ISSUE 10).
//!
//! Property tests over the generalized topology — wrap links may only ever
//! shorten paths, coordinates and ids must be inverse bijections on any
//! rectangle in either wrap mode — plus golden-fingerprint identity for
//! every collective builder on the mesh fabric: the same spec must produce
//! bit-identical [`MeshCollectiveResult`] fingerprints across repeat runs.

use emesh::collectives::{run_mesh_collective, MeshCollectiveResult};
use emesh::mesh::{MeshConfig, RoutingPolicy};
use emesh::topology::{MemifPlacement, NodeCoord, Topology};
use proptest::prelude::*;
use sim_core::collective::Collective;

proptest! {
    #[test]
    fn torus_hops_never_exceed_mesh_hops(
        width in 1usize..9,
        height in 1usize..9,
        a in 0u32..64,
        b in 0u32..64,
    ) {
        let nodes = (width * height) as u32;
        let (a, b) = (a % nodes, b % nodes);
        let mesh = Topology::rect(width, height, MemifPlacement::SingleCorner);
        let torus = mesh.with_torus(true);
        prop_assert!(torus.hops(a, b) <= mesh.hops(a, b));
        // Symmetric in both modes.
        prop_assert_eq!(torus.hops(a, b), torus.hops(b, a));
        prop_assert_eq!(mesh.hops(a, b), mesh.hops(b, a));
        // A wrap path is still a path: nonzero iff the nodes differ.
        prop_assert_eq!(torus.hops(a, b) == 0, a == b);
    }

    #[test]
    fn coord_id_roundtrip_on_rect_and_torus(
        width in 1usize..12,
        height in 1usize..12,
        torus in prop::bool::ANY,
    ) {
        let t = Topology::rect(width, height, MemifPlacement::SingleCorner)
            .with_torus(torus);
        for id in 0..t.nodes() as u32 {
            let c = t.coord(id);
            prop_assert!((c.x as usize) < width && (c.y as usize) < height);
            prop_assert_eq!(t.id(c), id);
        }
        // And the inverse direction over every coordinate.
        for y in 0..height as u32 {
            for x in 0..width as u32 {
                let c = NodeCoord { x, y };
                prop_assert_eq!(t.coord(t.id(c)), c);
            }
        }
    }

    #[test]
    fn mean_memif_distance_is_torus_monotone(
        width in 2usize..9,
        height in 2usize..9,
    ) {
        // Shortcut links can only bring nodes closer to the corner memif.
        let mesh = Topology::rect(width, height, MemifPlacement::SingleCorner);
        let torus = mesh.with_torus(true);
        prop_assert!(torus.mean_hops_to_memif() <= mesh.mean_hops_to_memif() + 1e-12);
    }
}

fn cfg(topology: Topology) -> MeshConfig {
    MeshConfig {
        topology,
        t_r: 1,
        policy: RoutingPolicy::Xy,
        memif: Default::default(),
        buffer_depth: 2,
        max_cycles: 1 << 30,
        threads: 1,
    }
}

/// The geometries the `collectives` bin's quick goldens pin.
fn golden_geometries() -> Vec<Topology> {
    vec![
        Topology::square(16, MemifPlacement::SingleCorner),
        Topology::rect(8, 2, MemifPlacement::SingleCorner),
        Topology::torus(4, 4, MemifPlacement::SingleCorner),
    ]
}

fn run(topology: Topology, collective: Collective) -> MeshCollectiveResult {
    run_mesh_collective(collective, cfg(topology), 4, None).expect("golden collective completes")
}

#[test]
fn every_collective_builder_is_repeat_deterministic() {
    for topology in golden_geometries() {
        for collective in Collective::ALL {
            let a = run(topology, collective);
            let b = run(topology, collective);
            assert_eq!(
                a.fingerprint(),
                b.fingerprint(),
                "{} on {}",
                collective.label(),
                topology.label()
            );
            assert_eq!(a, b, "{} on {}", collective.label(), topology.label());
        }
    }
}
