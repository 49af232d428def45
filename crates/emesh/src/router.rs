//! The five ports of a wormhole router.
//!
//! Ports: Local (0), North (1), East (2), South (3), West (4). Each input
//! port has a 2-flit buffer by default (the paper's "2-flit deep buffers
//! output to inter-processor channels"); each output port is a wormhole
//! channel owned by at most one in-flight packet between its head and tail
//! flits, and carries at most one flit per cycle. The mesh keeps every
//! router's port state in one record per router (`mesh/soa.rs`).

/// Port indices.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u8)]
pub(crate) enum Port {
    /// Processor / memory-interface attachment.
    Local = 0,
    /// Toward y − 1.
    North = 1,
    /// Toward x + 1.
    East = 2,
    /// Toward y + 1.
    South = 3,
    /// Toward x − 1.
    West = 4,
}

/// All ports, in arbitration order.
pub(crate) const PORTS: [Port; 5] = [
    Port::Local,
    Port::North,
    Port::East,
    Port::South,
    Port::West,
];

/// Number of ports.
pub(crate) const NUM_PORTS: usize = 5;

impl Port {
    /// Port from its index.
    pub(crate) fn from_index(i: usize) -> Port {
        PORTS[i]
    }

    /// The opposite direction (where a flit sent out `self` arrives).
    pub(crate) fn opposite(self) -> Port {
        match self {
            Port::Local => Port::Local,
            Port::North => Port::South,
            Port::East => Port::West,
            Port::South => Port::North,
            Port::West => Port::East,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flit::{FlitKind, Packet};

    #[test]
    fn opposite_ports() {
        assert_eq!(Port::North.opposite(), Port::South);
        assert_eq!(Port::East.opposite(), Port::West);
        assert_eq!(Port::Local.opposite(), Port::Local);
    }

    #[test]
    fn flit_kind_roundtrip_via_packet() {
        let f = Packet::headerless(0, 0, vec![1]).flits()[0];
        assert_eq!(f.kind, FlitKind::HeadTail);
    }
}
