//! Mesh coordinates and memory-interface placement.
//!
//! A [`Topology`] is a `width × height` grid of nodes, optionally with
//! wraparound (torus) links in both dimensions, plus a memory-interface
//! placement. Constructors validate dimensions up front — a zero-width or
//! zero-height grid has no nodes to route between, and silently wrapping
//! `width - 1` in [`Topology::memif_nodes`] was exactly the class of
//! latent bug generalized geometries made live.

use serde::Serialize;

/// A node's (x, y) position in the mesh; node index = `y * width + x`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize)]
pub struct NodeCoord {
    /// Column.
    pub x: u32,
    /// Row.
    pub y: u32,
}

/// Where memory interfaces attach.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum MemifPlacement {
    /// A single interface at the (0, 0) corner — the Table III setup
    /// ("a single memory port").
    SingleCorner,
    /// Four interfaces at the four corners — the Fig. 5 / Fig. 12 setup
    /// ("four memory interfaces at the corner network nodes").
    FourCorners,
    /// One interface at every node of the top edge (`y = 0`) — the
    /// edge-of-die placement HBM-style interface stacks use. On a
    /// `width = 1` grid this degenerates to a single corner.
    TopEdge,
}

/// A rectangular mesh (or torus) topology.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub struct Topology {
    /// Mesh width (columns). Must be ≥ 1.
    pub width: u32,
    /// Mesh height (rows). Must be ≥ 1.
    pub height: u32,
    /// Memory interface placement.
    pub memifs: MemifPlacement,
    /// Wraparound links in both dimensions (torus). Affects hop
    /// distances and routing; the node-id ↔ coordinate mapping is
    /// unchanged.
    pub torus: bool,
}

impl Topology {
    /// A square mesh of `n` nodes (n must be a positive perfect square).
    pub fn square(n: usize, memifs: MemifPlacement) -> Self {
        let side = (n as f64).sqrt().round() as u32;
        assert_eq!(
            (side * side) as usize,
            n,
            "square topology needs a perfect square, got {n}"
        );
        Topology::rect(side as usize, side as usize, memifs)
    }

    /// A rectangular `width × height` mesh.
    ///
    /// # Panics
    /// Panics if either dimension is zero.
    pub fn rect(width: usize, height: usize, memifs: MemifPlacement) -> Self {
        assert!(
            width >= 1 && height >= 1,
            "topology dimensions must be positive, got {width}x{height}"
        );
        Topology {
            width: width as u32,
            height: height as u32,
            memifs,
            torus: false,
        }
    }

    /// A `width × height` torus: the rectangular mesh plus wraparound
    /// links in both dimensions.
    ///
    /// # Panics
    /// Panics if either dimension is zero.
    pub fn torus(width: usize, height: usize, memifs: MemifPlacement) -> Self {
        Topology {
            torus: true,
            ..Topology::rect(width, height, memifs)
        }
    }

    /// Toggle wraparound links.
    pub fn with_torus(mut self, torus: bool) -> Self {
        self.torus = torus;
        self
    }

    /// Short geometry label, e.g. `8x8`, `8x4`, `4x4t` (torus).
    pub fn label(&self) -> String {
        format!(
            "{}x{}{}",
            self.width,
            self.height,
            if self.torus { "t" } else { "" }
        )
    }

    /// Node count.
    pub fn nodes(&self) -> usize {
        (self.width * self.height) as usize
    }

    /// Coordinate of node `id`.
    pub fn coord(&self, id: u32) -> NodeCoord {
        debug_assert!((id as usize) < self.nodes());
        NodeCoord {
            x: id % self.width,
            y: id / self.width,
        }
    }

    /// Node id at a coordinate.
    pub fn id(&self, c: NodeCoord) -> u32 {
        debug_assert!(c.x < self.width && c.y < self.height);
        c.y * self.width + c.x
    }

    /// Shortest-path distance between two nodes, in hops: Manhattan on a
    /// mesh, per-dimension `min(d, dim − d)` with wraparound on a torus.
    pub fn hops(&self, a: u32, b: u32) -> u32 {
        let (ca, cb) = (self.coord(a), self.coord(b));
        let (dx, dy) = (ca.x.abs_diff(cb.x), ca.y.abs_diff(cb.y));
        if self.torus {
            dx.min(self.width - dx) + dy.min(self.height - dy)
        } else {
            dx + dy
        }
    }

    /// Node ids of the memory interfaces, sorted and deduplicated (a
    /// degenerate grid can place several corners on one node).
    ///
    /// # Panics
    /// Panics on a zero-dimension topology — such a grid has no nodes, so
    /// it cannot carry a memory interface. The constructors reject it;
    /// this guards literal-built values.
    pub fn memif_nodes(&self) -> Vec<u32> {
        assert!(
            self.width >= 1 && self.height >= 1,
            "memif_nodes on a degenerate {}x{} topology",
            self.width,
            self.height
        );
        let mut ids = match self.memifs {
            MemifPlacement::SingleCorner => vec![0],
            MemifPlacement::FourCorners => vec![
                self.id(NodeCoord { x: 0, y: 0 }),
                self.id(NodeCoord {
                    x: self.width - 1,
                    y: 0,
                }),
                self.id(NodeCoord {
                    x: 0,
                    y: self.height - 1,
                }),
                self.id(NodeCoord {
                    x: self.width - 1,
                    y: self.height - 1,
                }),
            ],
            MemifPlacement::TopEdge => (0..self.width).collect(),
        };
        ids.sort_unstable();
        ids.dedup();
        ids
    }

    /// The memory interface nearest `node` (ties broken by lowest id) —
    /// how LLMORE-style mapping assigns processors to memory ports.
    pub fn nearest_memif(&self, node: u32) -> u32 {
        *self
            .memif_nodes()
            .iter()
            .min_by_key(|&&m| (self.hops(node, m), m))
            .expect("at least one memif")
    }

    /// Average hop distance from all nodes to their nearest memif.
    pub fn mean_hops_to_memif(&self) -> f64 {
        let total: u64 = (0..self.nodes() as u32)
            .map(|n| self.hops(n, self.nearest_memif(n)) as u64)
            .sum();
        total as f64 / self.nodes() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn square_construction() {
        let t = Topology::square(256, MemifPlacement::FourCorners);
        assert_eq!((t.width, t.height), (16, 16));
        assert_eq!(t.nodes(), 256);
        assert!(!t.torus);
    }

    #[test]
    #[should_panic(expected = "perfect square")]
    fn non_square_rejected() {
        Topology::square(10, MemifPlacement::SingleCorner);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_mesh_rejected() {
        Topology::square(0, MemifPlacement::FourCorners);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_width_rect_rejected() {
        Topology::rect(0, 4, MemifPlacement::SingleCorner);
    }

    #[test]
    #[should_panic(expected = "degenerate")]
    fn literal_zero_topology_cannot_place_memifs() {
        let t = Topology {
            width: 0,
            height: 0,
            memifs: MemifPlacement::FourCorners,
            torus: false,
        };
        t.memif_nodes();
    }

    #[test]
    fn degenerate_corners_dedupe() {
        // A 1×1 "mesh" has one node; all four corners coincide on it.
        let t = Topology::square(1, MemifPlacement::FourCorners);
        assert_eq!(t.memif_nodes(), vec![0]);
        // A 1×4 column: the two corner pairs coincide pairwise.
        let col = Topology::rect(1, 4, MemifPlacement::FourCorners);
        assert_eq!(col.memif_nodes(), vec![0, 3]);
        // A 4×1 row likewise.
        let row = Topology::rect(4, 1, MemifPlacement::FourCorners);
        assert_eq!(row.memif_nodes(), vec![0, 3]);
    }

    #[test]
    fn coord_id_roundtrip() {
        let t = Topology::square(64, MemifPlacement::SingleCorner);
        for id in 0..64u32 {
            assert_eq!(t.id(t.coord(id)), id);
        }
    }

    #[test]
    fn rect_coord_id_roundtrip() {
        let t = Topology::rect(8, 3, MemifPlacement::SingleCorner);
        assert_eq!(t.nodes(), 24);
        for id in 0..24u32 {
            assert_eq!(t.id(t.coord(id)), id);
        }
    }

    #[test]
    fn hop_distance() {
        let t = Topology::square(16, MemifPlacement::SingleCorner);
        // Node 0 = (0,0), node 15 = (3,3): 6 hops.
        assert_eq!(t.hops(0, 15), 6);
        assert_eq!(t.hops(5, 5), 0);
    }

    #[test]
    fn torus_hops_wrap() {
        let t = Topology::torus(4, 4, MemifPlacement::SingleCorner);
        // (0,0) -> (3,3): 1 + 1 via the wrap links, not 6.
        assert_eq!(t.hops(0, 15), 2);
        // (0,0) -> (2,0): both directions cost 2.
        assert_eq!(t.hops(0, 2), 2);
        assert!(t.label().ends_with('t'));
    }

    #[test]
    fn torus_never_longer_than_mesh() {
        let mesh = Topology::rect(5, 3, MemifPlacement::SingleCorner);
        let torus = mesh.with_torus(true);
        for a in 0..mesh.nodes() as u32 {
            for b in 0..mesh.nodes() as u32 {
                assert!(torus.hops(a, b) <= mesh.hops(a, b), "{a} -> {b}");
            }
        }
    }

    #[test]
    fn corner_memifs() {
        let t = Topology::square(16, MemifPlacement::FourCorners);
        assert_eq!(t.memif_nodes(), vec![0, 3, 12, 15]);
        let s = Topology::square(16, MemifPlacement::SingleCorner);
        assert_eq!(s.memif_nodes(), vec![0]);
    }

    #[test]
    fn top_edge_memifs() {
        let t = Topology::rect(4, 3, MemifPlacement::TopEdge);
        assert_eq!(t.memif_nodes(), vec![0, 1, 2, 3]);
        // Every node's nearest interface is straight up its own column.
        assert_eq!(t.nearest_memif(9), 1); // (1,2) -> (1,0)
        assert_eq!(t.mean_hops_to_memif(), 1.0); // columns of height 3: 0+1+2 over 3
    }

    #[test]
    fn nearest_memif_partitions_quadrants() {
        let t = Topology::square(16, MemifPlacement::FourCorners);
        assert_eq!(t.nearest_memif(5), 0); // (1,1) -> corner (0,0)
        assert_eq!(t.nearest_memif(7), 3); // (3,1) -> corner (3,0)
        assert_eq!(t.nearest_memif(10), 15); // (2,2) -> nearest is (3,3) at 2 hops
    }

    #[test]
    fn four_corners_shrink_mean_distance() {
        let one = Topology::square(256, MemifPlacement::SingleCorner);
        let four = Topology::square(256, MemifPlacement::FourCorners);
        assert!(four.mean_hops_to_memif() < one.mean_hops_to_memif() / 1.5);
    }

    #[test]
    fn torus_shrinks_mean_distance_to_corner() {
        let mesh = Topology::square(64, MemifPlacement::SingleCorner);
        let torus = mesh.with_torus(true);
        assert!(torus.mean_hops_to_memif() < mesh.mean_hops_to_memif());
    }
}
