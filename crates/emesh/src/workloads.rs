//! The paper's traffic patterns, as mesh workload builders.
//!
//! Each builder loads injection queues into a fresh [`Mesh`]; call
//! [`Mesh::run`] to execute. Addressing follows §V-C: a `P × N` matrix of
//! `S_s`-bit samples lives row-major in DRAM before the transpose and
//! column-major after, so the element at (row `r`, col `c`) written back by
//! processor `r` targets linear word address `c · P + r`.

use crate::flit::Packet;
use crate::mesh::{Mesh, MeshConfig};

/// Build the Table III transpose-writeback workload: each of `procs`
/// processors holds one `row_len`-element FFT row and writes it back
/// transposed, one element per 2-flit packet (64-bit header `S_h` + 64-bit
/// element `S_s`), to its nearest memory interface.
pub fn load_transpose(cfg: MeshConfig, procs: usize, row_len: usize) -> Mesh {
    let mut mesh = Mesh::new(cfg);
    let nodes = cfg.topology.nodes();
    assert!(procs <= nodes, "more processors than mesh nodes");
    // One packet, rewritten per element: injection copies its flits out.
    let mut packet = Packet::with_header(0, 0, vec![0]);
    for r in 0..procs as u32 {
        packet.dest = cfg.topology.nearest_memif(r);
        for c in 0..row_len as u64 {
            packet.payload[0] = c * procs as u64 + r as u64;
            mesh.inject_packet(r, &packet);
            packet.id = packet.id.wrapping_add(1);
        }
    }
    mesh
}

/// Build a blocked scatter-delivery workload (Model I / Model II, Figs. 8–9):
/// the memory node at the single corner serially injects `k` rounds of
/// `block_words`-word packets to each of the other nodes in round-robin
/// order. Used to measure delivery time against Eq. (21).
pub fn load_scatter(cfg: MeshConfig, block_words: usize, k: usize) -> Mesh {
    let mut mesh = Mesh::new(cfg);
    let memif = cfg.topology.memif_nodes()[0];
    let mut id = 0u64;
    for _round in 0..k {
        for n in 0..cfg.topology.nodes() as u32 {
            if n == memif {
                continue;
            }
            mesh.inject_packet(memif, &Packet::with_header(n, id, vec![0; block_words]));
            id = id.wrapping_add(1);
        }
    }
    mesh
}

/// Build the Fig. 5 energy workload: every node contributes `words` elements
/// to its nearest memory interface (the electronic equivalent of an SCA).
/// Addresses are laid out so each interface receives whole DRAM rows.
pub fn load_gather_energy(cfg: MeshConfig, words: usize) -> Mesh {
    let mut mesh = Mesh::new(cfg);
    let mut id = 0u64;
    for n in 0..cfg.topology.nodes() as u32 {
        let memif = cfg.topology.nearest_memif(n);
        for w in 0..words as u64 {
            // Node-blocked addressing: rows fill from single nodes.
            let addr = n as u64 * words as u64 + w;
            mesh.inject_packet(n, &Packet::with_header(memif, id, vec![addr]));
            id = id.wrapping_add(1);
        }
    }
    mesh
}

/// Closed-form Eq. (21): mesh scatter delivery time in cycles,
/// `P·F + P·⌊√P⌋·t_r`, for `p` processors receiving `f` flits each.
///
/// The truncating `⌊√P⌋` is only meaningful for the paper's square-mesh
/// cases: `p` a perfect square (all nodes receive) or `p + 1` a perfect
/// square (every node but the memory corner receives, e.g. `p = 63` on an
/// 8×8 mesh, where `⌊√63⌋ = 7` is exactly the mesh's mean corner
/// distance). For any other `p` the truncation silently undercounts hops.
///
/// # Panics
/// Panics when neither `p` nor `p + 1` is a perfect square — use
/// [`eq21_delivery_cycles_dims`] with the actual topology dimensions.
pub fn eq21_delivery_cycles(p: u64, f: u64, t_r: u64) -> u64 {
    let s = p.isqrt();
    assert!(
        s * s == p || (p + 1).isqrt().pow(2) == p + 1,
        "Eq. 21 truncated sqrt is only exact when p or p + 1 is a perfect \
         square, got p = {p}; use eq21_delivery_cycles_dims for rectangular \
         or torus geometries"
    );
    p * f + p * s * t_r
}

/// Closed-form Eq. (21) generalized to a `width × height` rectangle (or
/// torus): `P·F + P·H̄·t_r`, where `P = width·height − 1` receivers (every
/// node but the memory corner) and `H̄` is the truncating mean hop distance
/// from the corner interface to all nodes. Per dimension the distance sum
/// is `w(w−1)/2` on a mesh and `⌊w²/4⌋` on a torus (wrap links halve the
/// ring); on a square `W × W` mesh `H̄ = W − 1 = ⌊√(W²−1)⌋`, so this
/// agrees exactly with [`eq21_delivery_cycles`] on the paper's geometries.
pub fn eq21_delivery_cycles_dims(width: u64, height: u64, f: u64, t_r: u64, torus: bool) -> u64 {
    assert!(
        width >= 1 && height >= 1 && width * height >= 2,
        "Eq. 21 needs at least one receiver, got {width}x{height}"
    );
    let dim_sum = |w: u64| if torus { w * w / 4 } else { w * (w - 1) / 2 };
    let mean_hops = (dim_sum(width) * height + dim_sum(height) * width) / (width * height);
    let p = width * height - 1;
    p * f + p * mean_hops * t_r
}

/// Build a uniform-random permutation workload: every node sends up to
/// `packets_per_node` packets of `payload_words` words to destinations
/// drawn from a seeded random permutation stream (no self-traffic, no
/// memif endpoints). The classic NoC characterization load, used to
/// validate that the baseline mesh saturates like a mesh should.
///
/// Returns the loaded mesh **and the number of packets actually
/// injected** — self-pairs and pairs touching a memory interface are
/// skipped, so the injected count is below
/// `nodes × packets_per_node` and callers must not assume otherwise.
pub fn load_uniform_random(
    cfg: MeshConfig,
    packets_per_node: usize,
    payload_words: usize,
    seed: u64,
) -> (Mesh, u64) {
    let mut mesh = Mesh::new(cfg);
    let n = cfg.topology.nodes();
    let memifs = cfg.topology.memif_nodes();
    let mut id = 0u64;
    for round in 0..packets_per_node {
        let perm = sim_core::rng::permutation(n, sim_core::rng::child_seed(seed, round as u64));
        #[allow(clippy::needless_range_loop)] // src is also the injection id
        for src in 0..n {
            let dst = perm[src];
            if dst == src || memifs.contains(&(dst as u32)) || memifs.contains(&(src as u32)) {
                continue;
            }
            mesh.inject_packet(
                src as u32,
                &Packet::with_header(dst as u32, id, vec![round as u64; payload_words]),
            );
            id = id.wrapping_add(1);
        }
    }
    (mesh, id)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mesh::RoutingPolicy;
    use crate::topology::{MemifPlacement, Topology};

    #[test]
    fn small_transpose_completes_and_covers_all_rows() {
        // 16 procs x 16-element rows = 256 elements = 8 DRAM rows of 32.
        let cfg = MeshConfig::table3(16, 1);
        let mut mesh = load_transpose(cfg, 16, 16);
        let res = mesh.run().unwrap();
        let s = res.memif_stats[0];
        assert_eq!(s.elements, 256);
        assert_eq!(s.rows_written, 8);
        assert_eq!(mesh.memif(0).dram_stats().accesses, 256);
    }

    #[test]
    fn transpose_time_grows_with_tp() {
        let t1 = {
            let mut m = load_transpose(MeshConfig::table3(16, 1), 16, 16);
            m.run().unwrap().cycles
        };
        let t4 = {
            let mut m = load_transpose(MeshConfig::table3(16, 4), 16, 16);
            m.run().unwrap().cycles
        };
        assert!(t4 > t1, "t_p=4 ({t4}) must exceed t_p=1 ({t1})");
        // The port-bound model: per element ~(2 + t_p) cycles.
        let ratio = t4 as f64 / t1 as f64;
        assert!((1.4..2.3).contains(&ratio), "ratio {ratio}");
    }

    #[test]
    fn scatter_delivery_close_to_eq21() {
        // 8x8 mesh minus the memory corner: 63 receivers x 16-word blocks.
        let cfg = MeshConfig {
            topology: Topology::square(64, MemifPlacement::SingleCorner),
            t_r: 1,
            policy: RoutingPolicy::Xy,
            memif: Default::default(),
            buffer_depth: 2,
            max_cycles: 1 << 24,
            threads: 1,
        };
        let mut mesh = load_scatter(cfg, 16, 1);
        let res = mesh.run().unwrap();
        let delivered: u64 = res.sink_delivered.iter().sum();
        assert_eq!(delivered, 63 * 16);
        // Eq. 21 with P = 63, F = 17 flits (16 + header).
        let predicted = eq21_delivery_cycles(63, 17, 1);
        let actual = res.cycles;
        let err = (actual as f64 - predicted as f64).abs() / predicted as f64;
        assert!(
            err < 0.35,
            "sim {actual} vs Eq.21 {predicted} ({:.0}% off)",
            err * 100.0
        );
    }

    #[test]
    fn gather_energy_workload_counts_hops() {
        let cfg = MeshConfig {
            topology: Topology::square(16, MemifPlacement::FourCorners),
            t_r: 1,
            policy: RoutingPolicy::Xy,
            memif: Default::default(),
            buffer_depth: 2,
            max_cycles: 1 << 24,
            threads: 1,
        };
        let mut mesh = load_gather_energy(cfg, 32);
        let res = mesh.run().unwrap();
        let total_elements: u64 = res.memif_stats.iter().map(|s| s.elements).sum();
        assert_eq!(total_elements, 16 * 32);
        assert!(res.energy.link_hops > 0);
        // Four corners balance the load: every interface sees traffic.
        assert!(res.memif_stats.iter().all(|s| s.elements > 0));
    }

    #[test]
    fn uniform_random_delivers_everything_and_is_deterministic() {
        let cfg = MeshConfig {
            topology: Topology::square(16, MemifPlacement::SingleCorner),
            t_r: 1,
            policy: RoutingPolicy::Xy,
            memif: Default::default(),
            buffer_depth: 2,
            max_cycles: 1 << 24,
            threads: 1,
        };
        let run = || {
            let (mut mesh, injected) = load_uniform_random(cfg, 8, 3, 42);
            let res = mesh.run().unwrap();
            (res.cycles, res.sink_delivered.iter().sum::<u64>(), injected)
        };
        let (c1, d1, i1) = run();
        let (c2, d2, i2) = run();
        assert_eq!((c1, d1, i1), (c2, d2, i2));
        assert!(d1 > 0);
        // Every injected packet delivers its payload, and the reported
        // injected count reflects the skipped self/memif pairs: below the
        // nominal 16 × 8 but not by the whole memif row.
        assert_eq!(d1, i1 * 3);
        assert!(i1 < 16 * 8 && i1 > 8 * 8, "injected {i1}");
    }

    #[test]
    fn random_traffic_outperforms_hotspot_traffic_per_flit() {
        // Same flit volume, spread destinations vs one corner: the mesh's
        // path diversity should finish the spread load much faster.
        let cfg = MeshConfig {
            topology: Topology::square(16, MemifPlacement::SingleCorner),
            t_r: 1,
            policy: RoutingPolicy::Xy,
            memif: Default::default(),
            buffer_depth: 2,
            max_cycles: 1 << 24,
            threads: 1,
        };
        let spread = {
            let (mut m, _) = load_uniform_random(cfg, 16, 1, 7);
            m.run().unwrap()
        };
        let spread_flits: u64 = spread.sink_delivered.iter().sum::<u64>() * 2;
        let hotspot = {
            let mut m = Mesh::new(cfg);
            let per_node = (spread_flits / 2 / 15).max(1);
            for n in 1..16u32 {
                for e in 0..per_node {
                    m.inject_packet(n, &Packet::with_header(0, n as u64 * 1000 + e, vec![e]));
                }
            }
            m.run().unwrap()
        };
        let spread_rate = spread_flits as f64 / spread.cycles as f64;
        let hotspot_flits: u64 = hotspot.memif_stats[0].flits_accepted;
        let hotspot_rate = hotspot_flits as f64 / hotspot.cycles as f64;
        assert!(
            spread_rate > hotspot_rate * 1.5,
            "spread {spread_rate:.2} vs hotspot {hotspot_rate:.2} flits/cycle"
        );
    }

    #[test]
    fn eq21_shape() {
        assert_eq!(eq21_delivery_cycles(256, 1024, 1), 256 * 1024 + 256 * 16);
        // Routing overhead matches payload when F = √P (the Table II story:
        // small packets drown in per-packet routing).
        let small_f = eq21_delivery_cycles(256, 16, 1);
        assert_eq!(small_f, 2 * 256 * 16);
        // Square-minus-corner still accepted with the legacy value.
        assert_eq!(eq21_delivery_cycles(63, 17, 1), 63 * 17 + 63 * 7);
    }

    #[test]
    #[should_panic(expected = "perfect")]
    fn eq21_rejects_non_square_p() {
        // 8×4 = 32 receivers: neither 32 nor 33 is a perfect square, so the
        // truncated ⌊√32⌋ = 5 would silently undercount the real mean
        // corner distance. Pre-fix this returned a wrong-silent number.
        eq21_delivery_cycles(32, 17, 1);
    }

    #[test]
    fn eq21_dims_matches_legacy_on_squares() {
        // 8×8 mesh: P = 63, H̄ = 7 = ⌊√63⌋.
        assert_eq!(
            eq21_delivery_cycles_dims(8, 8, 17, 1, false),
            eq21_delivery_cycles(63, 17, 1)
        );
        // 16×16 mesh: P = 255, H̄ = 15 = ⌊√255⌋.
        assert_eq!(
            eq21_delivery_cycles_dims(16, 16, 1025, 1, false),
            eq21_delivery_cycles(255, 1025, 1)
        );
    }

    #[test]
    fn eq21_dims_rectangle_and_torus() {
        // 8×4 mesh: dim sums 28 and 6, H̄ = (28·4 + 6·8)/32 = 5. The
        // legacy truncated form would also give ⌊√31⌋ = 5 here, but e.g.
        // 16×4 gives H̄ = (120·4 + 6·16)/64 = 9 vs ⌊√63⌋ = 7.
        assert_eq!(
            eq21_delivery_cycles_dims(8, 4, 17, 1, false),
            31 * 17 + 31 * 5
        );
        assert_eq!(
            eq21_delivery_cycles_dims(16, 4, 17, 1, false),
            63 * 17 + 63 * 9
        );
        // Torus wrap links halve the per-dimension distances: 8×8 torus
        // H̄ = (16·8 + 16·8)/64 = 4 (vs 7 on the mesh).
        assert_eq!(
            eq21_delivery_cycles_dims(8, 8, 17, 1, true),
            63 * 17 + 63 * 4
        );
    }

    #[test]
    fn eq21_dims_mean_matches_topology_mean() {
        // The closed-form truncating mean equals the simulator topology's
        // exact mean corner distance, truncated, on every tested geometry.
        for (w, h, torus) in [
            (8usize, 8usize, false),
            (8, 4, false),
            (5, 3, false),
            (8, 8, true),
            (4, 6, true),
            (5, 5, true),
        ] {
            let base = Topology::rect(w, h, MemifPlacement::SingleCorner).with_torus(torus);
            let exact: u64 = (0..base.nodes() as u32)
                .map(|n| base.hops(0, n) as u64)
                .sum();
            let expect = exact / (w * h) as u64;
            let p = (w * h - 1) as u64;
            // Extract the hop term: (value − P·F) / (P·t_r) with F = 0.
            let got = eq21_delivery_cycles_dims(w as u64, h as u64, 0, 1, torus) / p;
            assert_eq!(got, expect, "{w}x{h} torus={torus}");
        }
    }
}
