//! Collective-operation vocabulary shared by both fabrics.
//!
//! The electronic mesh (`emesh::collectives`) and the photonic SCA machine
//! (`psync::collectives`) generate traffic for the same three collectives;
//! this module is the single definition of *which* collectives exist, their
//! wire labels, and their phase names, so harnesses and the service layer
//! can parse and compare results across fabrics without string drift.

/// A collective operation over the fabric's processing nodes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Collective {
    /// Personalized exchange: every node sends a distinct block to every
    /// other node (the 2D-FFT corner turn is the P-block special case).
    AllToAll,
    /// Every node broadcasts its own block; all nodes end with every block.
    AllGather,
    /// Element-wise reduction of per-node vectors, result on every node.
    /// Decomposed as reduce-scatter + all-gather on the mesh, and as
    /// gather / shard-scatter / reduce / gather / broadcast on the SCA.
    AllReduce,
}

impl Collective {
    /// Every collective, in canonical (result-row) order.
    pub const ALL: [Collective; 3] = [
        Collective::AllToAll,
        Collective::AllGather,
        Collective::AllReduce,
    ];

    /// Stable lowercase wire label (result rows, JobSpec JSON, telemetry).
    pub fn label(self) -> &'static str {
        match self {
            Collective::AllToAll => "alltoall",
            Collective::AllGather => "allgather",
            Collective::AllReduce => "allreduce",
        }
    }

    /// Telemetry phase-span name: `collective.<op>.<phase>`.
    pub fn phase_name(self, phase: &str) -> String {
        format!("collective.{}.{phase}", self.label())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn phase_names_are_namespaced() {
        assert_eq!(
            Collective::AllReduce.phase_name("gather"),
            "collective.allreduce.gather"
        );
    }
}
