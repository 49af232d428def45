//! CP compilation from abstract transfer specifications.
//!
//! The paper leaves "generation of distributed communication programs from
//! abstract programmer constructs" as future work (§VIII); this module
//! implements the essential version of it. A gather is fully described by a
//! *slot map*: for each global slot of the synthesized burst, which node
//! contributes it. A scatter is the mirror: for each slot of the monolithic
//! burst, which node must capture it. The compiler coalesces per-node slot
//! runs into minimal CPs and proves the set collision-free by construction.

use crate::cp::{CommProgram, CpAction, CpEntry};
use crate::NodeId;

/// A gather (SCA): `slot_source[k]` is the node whose data occupies global
/// slot `k` of the coalesced burst arriving at the terminus.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GatherSpec {
    /// Source node per slot, in burst order.
    pub slot_source: Vec<NodeId>,
}

/// A scatter (SCA⁻¹): `slot_dest[k]` is the node that must detect global
/// slot `k` of the head node's monolithic burst.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScatterSpec {
    /// Destination node per slot, in burst order.
    pub slot_dest: Vec<NodeId>,
}

impl GatherSpec {
    /// Round-robin interleave: `nodes` sources, `block` consecutive slots
    /// per turn, `turns` turns each. Models a transpose writeback where each
    /// processor's row elements interleave in linear memory order.
    pub fn interleaved(nodes: usize, block: usize, turns: usize) -> Self {
        assert!(nodes > 0 && block > 0);
        let mut slot_source = Vec::with_capacity(nodes * block * turns);
        for _ in 0..turns {
            for n in 0..nodes {
                slot_source.extend(std::iter::repeat_n(n, block));
            }
        }
        GatherSpec { slot_source }
    }

    /// Blocked layout: node 0's `block` slots, then node 1's, etc. Models a
    /// simple result writeback (Model I wind-down).
    pub fn blocked(nodes: usize, block: usize) -> Self {
        Self::interleaved(nodes, block, 1)
    }

    /// Total slots in the burst.
    pub fn total_slots(&self) -> u64 {
        self.slot_source.len() as u64
    }
}

impl ScatterSpec {
    /// Round-robin interleave, mirror of [`GatherSpec::interleaved`].
    /// Models Model-II blocked data delivery (Fig. 9).
    pub fn interleaved(nodes: usize, block: usize, turns: usize) -> Self {
        ScatterSpec {
            slot_dest: GatherSpec::interleaved(nodes, block, turns).slot_source,
        }
    }

    /// Blocked layout, mirror of [`GatherSpec::blocked`]. Models Model-I
    /// delivery (Fig. 8).
    pub fn blocked(nodes: usize, block: usize) -> Self {
        Self::interleaved(nodes, block, 1)
    }

    /// Total slots in the burst.
    pub fn total_slots(&self) -> u64 {
        self.slot_dest.len() as u64
    }
}

/// The compiler: slot maps in, per-node [`CommProgram`]s out.
#[derive(Debug, Clone, Copy, Default)]
pub struct CpCompiler;

impl CpCompiler {
    /// Compile a gather into one Drive-CP per node (plus implicit Pass).
    ///
    /// The resulting programs are disjoint by construction: slot `k` appears
    /// in exactly the CP of `spec.slot_source[k]`.
    pub fn compile_gather(&self, spec: &GatherSpec, nodes: usize) -> Vec<CommProgram> {
        Self::compile_map(&spec.slot_source, nodes, CpAction::Drive)
    }

    /// Compile a scatter into one Listen-CP per node.
    pub(crate) fn compile_scatter(&self, spec: &ScatterSpec, nodes: usize) -> Vec<CommProgram> {
        Self::compile_map(&spec.slot_dest, nodes, CpAction::Listen)
    }

    fn compile_map(map: &[NodeId], nodes: usize, action: CpAction) -> Vec<CommProgram> {
        let mut runs: Vec<Vec<CpEntry>> = vec![Vec::new(); nodes];
        let mut k = 0u64;
        while (k as usize) < map.len() {
            let node = map[k as usize];
            assert!(node < nodes, "slot {k} names node {node} >= {nodes}");
            let start = k;
            while (k as usize) < map.len() && map[k as usize] == node {
                k += 1;
            }
            runs[node].push(CpEntry {
                start,
                len: k - start,
                action,
            });
        }
        runs.into_iter()
            .map(|entries| CommProgram::new(entries).expect("compiler produced invalid CP"))
            .collect()
    }

    /// Check that a set of per-node CPs is globally disjoint in its Drive
    /// slots, returning the offending slot on failure. Used as an
    /// independent audit of hand-written CPs.
    pub fn audit_disjoint(programs: &[CommProgram]) -> Result<(), u64> {
        let mut runs: Vec<(u64, u64)> = programs
            .iter()
            .flat_map(|p| {
                p.entries()
                    .iter()
                    .filter(|e| e.action == CpAction::Drive)
                    .map(|e| (e.start, e.end()))
            })
            .collect();
        runs.sort_unstable();
        for w in runs.windows(2) {
            if w[1].0 < w[0].1 {
                return Err(w[1].0);
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn blocked_gather_compiles_to_one_run_per_node() {
        let spec = GatherSpec::blocked(4, 8);
        let cps = CpCompiler.compile_gather(&spec, 4);
        assert_eq!(cps.len(), 4);
        for (n, cp) in cps.iter().enumerate() {
            assert_eq!(cp.entries().len(), 1);
            let e = cp.entries()[0];
            assert_eq!(e.start, (n as u64) * 8);
            assert_eq!(e.len, 8);
            assert_eq!(e.action, CpAction::Drive);
        }
    }

    #[test]
    fn interleaved_gather_has_turns_many_runs() {
        let spec = GatherSpec::interleaved(4, 2, 3);
        let cps = CpCompiler.compile_gather(&spec, 4);
        for cp in &cps {
            assert_eq!(cp.entries().len(), 3);
            assert_eq!(cp.slots_driven(), 6);
        }
        assert!(CpCompiler::audit_disjoint(&cps).is_ok());
    }

    #[test]
    fn fig4_two_node_interleave() {
        // Fig. 4: P0 drives slots {0,1} and {4,5}; P1 drives {2,3}.
        let spec = GatherSpec {
            slot_source: vec![0, 0, 1, 1, 0, 0],
        };
        let cps = CpCompiler.compile_gather(&spec, 2);
        assert_eq!(
            cps[0].entries(),
            &[
                CpEntry {
                    start: 0,
                    len: 2,
                    action: CpAction::Drive
                },
                CpEntry {
                    start: 4,
                    len: 2,
                    action: CpAction::Drive
                },
            ]
        );
        assert_eq!(
            cps[1].entries(),
            &[CpEntry {
                start: 2,
                len: 2,
                action: CpAction::Drive
            }]
        );
    }

    #[test]
    fn scatter_mirrors_gather() {
        let spec = ScatterSpec::interleaved(3, 4, 2);
        let cps = CpCompiler.compile_scatter(&spec, 3);
        for cp in &cps {
            assert_eq!(cp.slots_listened(), 8);
            assert_eq!(cp.slots_driven(), 0);
        }
    }

    #[test]
    fn audit_catches_overlap() {
        let a = CommProgram::new(vec![CpEntry {
            start: 0,
            len: 4,
            action: CpAction::Drive,
        }])
        .unwrap();
        let b = CommProgram::new(vec![CpEntry {
            start: 3,
            len: 2,
            action: CpAction::Drive,
        }])
        .unwrap();
        assert_eq!(CpCompiler::audit_disjoint(&[a, b]), Err(3));
    }

    #[test]
    fn slots_per_node_counts() {
        let spec = GatherSpec::interleaved(4, 2, 5);
        for node in 0..4 {
            assert_eq!(spec.slot_source.iter().filter(|&&n| n == node).count(), 10);
        }
        assert_eq!(spec.total_slots(), 40);
    }

    #[test]
    fn nodes_without_slots_get_empty_programs() {
        let spec = GatherSpec {
            slot_source: vec![1, 1],
        };
        let cps = CpCompiler.compile_gather(&spec, 3);
        assert!(cps[0].entries().is_empty());
        assert_eq!(cps[1].slots_driven(), 2);
        assert!(cps[2].entries().is_empty());
    }
}
