//! Compiling abstract data redistributions to communication programs —
//! the paper's §VIII future-work item "generation of distributed
//! communication programs from abstract programmer constructs".
//!
//! A programmer describes *where data lives* (a block-cyclic [`Layout`])
//! and *what order it must land in* (a [`Perm`] over element indices —
//! identity, matrix transpose, FFT bit-reversal, or a fixed stride, which
//! covers every access pattern in the paper). [`compile`] turns that into
//! the gather spec (who drives which wavefront) plus per-node drain orders,
//! ready to run on the bus — no hand-written CPs.

use serde::Serialize;

use crate::compiler::GatherSpec;
use crate::NodeId;

/// A 1-D block-cyclic distribution of `n` elements over `procs` processors
/// with blocks of `block` elements (block = ⌈n/procs⌉ gives pure block;
/// block = 1 gives pure cyclic).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub struct Layout {
    /// Total elements.
    pub n: u64,
    /// Processors.
    pub procs: usize,
    /// Elements per dealt block.
    pub block: u64,
}

impl Layout {
    /// Pure block distribution.
    pub fn block(n: u64, procs: usize) -> Self {
        Layout {
            n,
            procs,
            block: n.div_ceil(procs as u64),
        }
    }

    /// Pure cyclic distribution.
    pub fn cyclic(n: u64, procs: usize) -> Self {
        Layout { n, procs, block: 1 }
    }

    /// Owner of element `e`.
    pub fn owner(&self, e: u64) -> NodeId {
        debug_assert!(e < self.n);
        ((e / self.block) % self.procs as u64) as NodeId
    }

    /// Local position of element `e` within its owner's memory (elements
    /// stored in ascending global order).
    pub fn local_index(&self, e: u64) -> u64 {
        let round = e / (self.block * self.procs as u64);
        round * self.block + e % self.block
    }

    /// Elements owned by `p`, in local-memory order.
    pub fn elements_of(&self, p: NodeId) -> Vec<u64> {
        (0..self.n).filter(|&e| self.owner(e) == p).collect()
    }
}

/// The target ordering of the coalesced stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum Perm {
    /// Stream elements in index order (a plain gather).
    Identity,
    /// Treat indices as (row, col) of a row-major `rows × cols` matrix and
    /// stream its transpose — the corner turn.
    Transpose {
        /// Matrix rows.
        rows: u64,
        /// Matrix cols.
        cols: u64,
    },
    /// Stream in radix-2 bit-reversed order (FFT input permutation).
    BitReversal,
    /// Stream with a fixed stride (mod n): slot k carries element
    /// `(k·stride) mod n` — the Fig. 10 decimated delivery, `stride = k`.
    Stride {
        /// The stride; must be coprime with n to be a permutation.
        stride: u64,
    },
}

impl Perm {
    /// Element index occupying slot `k` of the target stream.
    pub fn source_element(&self, k: u64, n: u64) -> u64 {
        match *self {
            Perm::Identity => k,
            Perm::Transpose { rows, cols } => {
                debug_assert_eq!(rows * cols, n);
                // Slot k is (c, r) of the transposed matrix: element (r, c).
                let c = k / rows;
                let r = k % rows;
                r * cols + c
            }
            Perm::BitReversal => {
                debug_assert!(n.is_power_of_two());
                let bits = n.trailing_zeros();
                if bits == 0 {
                    k
                } else {
                    k.reverse_bits() >> (64 - bits)
                }
            }
            Perm::Stride { stride } => (k.wrapping_mul(stride)) % n,
        }
    }

    /// Whether this is a true permutation of `0..n`.
    pub fn is_permutation(&self, n: u64) -> bool {
        match *self {
            Perm::Identity | Perm::BitReversal | Perm::Transpose { .. } => true,
            Perm::Stride { stride } => gcd(stride, n) == 1,
        }
    }
}

fn gcd(a: u64, b: u64) -> u64 {
    if b == 0 {
        a
    } else {
        gcd(b, a % b)
    }
}

/// A compiled redistribution: run `spec` with `drain_order`-arranged node
/// data to synthesize the target stream.
#[derive(Debug, Clone)]
pub struct CompiledRedistribution {
    /// Slot-to-source-node map (feeds [`crate::compiler::CpCompiler`] /
    /// [`crate::network::Pscan::gather`]).
    pub spec: GatherSpec,
    /// Per node: the *local memory indices* to feed the modulator, in slot
    /// order — the node's waveguide-interface drain program.
    pub drain_order: Vec<Vec<u64>>,
}

/// Compile a redistribution of `layout`-distributed data into `perm` order.
pub fn compile(layout: &Layout, perm: &Perm) -> CompiledRedistribution {
    assert!(
        perm.is_permutation(layout.n),
        "target ordering is not a permutation"
    );
    let n = layout.n;
    let mut slot_source = Vec::with_capacity(n as usize);
    let mut drain_order = vec![Vec::new(); layout.procs];
    for k in 0..n {
        let e = perm.source_element(k, n);
        let owner = layout.owner(e);
        slot_source.push(owner);
        drain_order[owner].push(layout.local_index(e));
    }
    CompiledRedistribution {
        spec: GatherSpec { slot_source },
        drain_order,
    }
}

/// Arrange each node's local data into drain order (what the waveguide
/// interface does as it feeds the modulator).
pub fn arrange_data(red: &CompiledRedistribution, local: &[Vec<u64>]) -> Vec<Vec<u64>> {
    red.drain_order
        .iter()
        .zip(local)
        .map(|(order, mem)| order.iter().map(|&i| mem[i as usize]).collect())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::network::{Pscan, PscanConfig};

    /// End-to-end helper: distribute 0..n by `layout`, redistribute by
    /// `perm`, and return the coalesced stream.
    fn run(layout: Layout, perm: Perm) -> Vec<u64> {
        let red = compile(&layout, &perm);
        // Node memories hold their elements' global ids in local order.
        let local: Vec<Vec<u64>> = (0..layout.procs).map(|p| layout.elements_of(p)).collect();
        let data = arrange_data(&red, &local);
        let pscan = Pscan::new(PscanConfig {
            nodes: layout.procs,
            ..Default::default()
        });
        let out = pscan.gather(&red.spec, &data).unwrap();
        assert_eq!(out.utilization, 1.0);
        out.received.iter().map(|w| w.unwrap()).collect()
    }

    #[test]
    fn identity_gather_restores_index_order() {
        for layout in [Layout::block(64, 8), Layout::cyclic(64, 8)] {
            let stream = run(layout, Perm::Identity);
            assert_eq!(stream, (0..64).collect::<Vec<u64>>());
        }
    }

    #[test]
    fn transpose_streams_column_major() {
        let stream = run(Layout::block(64, 8), Perm::Transpose { rows: 8, cols: 8 });
        // Slot k should carry element (k%8)*8 + k/8.
        for (k, &e) in stream.iter().enumerate() {
            let k = k as u64;
            assert_eq!(e, (k % 8) * 8 + k / 8);
        }
    }

    #[test]
    fn bit_reversal_matches_fft_permutation() {
        let stream = run(Layout::cyclic(16, 4), Perm::BitReversal);
        let expect: Vec<u64> = (0..16u64).map(|k| k.reverse_bits() >> 60).collect();
        assert_eq!(stream, expect);
    }

    #[test]
    fn strided_delivery_is_the_fig10_decimation() {
        // stride 5 is coprime with 16.
        let stream = run(Layout::block(16, 4), Perm::Stride { stride: 5 });
        let expect: Vec<u64> = (0..16u64).map(|k| k * 5 % 16).collect();
        assert_eq!(stream, expect);
    }

    #[test]
    fn non_coprime_stride_rejected() {
        assert!(!Perm::Stride { stride: 4 }.is_permutation(16));
    }

    #[test]
    #[should_panic(expected = "not a permutation")]
    fn compile_rejects_non_permutations() {
        compile(&Layout::block(16, 4), &Perm::Stride { stride: 8 });
    }

    #[test]
    fn block_cyclic_owner_and_local_index() {
        let l = Layout {
            n: 24,
            procs: 3,
            block: 2,
        };
        // Blocks of 2 dealt to P0,P1,P2: elements 0,1->P0; 2,3->P1; ...
        assert_eq!(l.owner(0), 0);
        assert_eq!(l.owner(3), 1);
        assert_eq!(l.owner(4), 2);
        assert_eq!(l.owner(6), 0);
        // P0 owns 0,1,6,7,12,13,...: local index of 6 is 2.
        assert_eq!(l.local_index(6), 2);
        assert_eq!(l.elements_of(0), vec![0, 1, 6, 7, 12, 13, 18, 19]);
    }

    #[test]
    fn cross_layout_roundtrip() {
        // Redistribute block->stream (identity), then conceptually reload
        // cyclic: compile from the cyclic layout with identity must also
        // restore order — two different CP sets, same stream.
        let a = run(Layout::block(32, 4), Perm::Identity);
        let b = run(Layout::cyclic(32, 4), Perm::Identity);
        assert_eq!(a, b);
    }
}
