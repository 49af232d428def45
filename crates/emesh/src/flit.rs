//! Flits and packets.
//!
//! The paper's transpose analysis uses 64-bit flits, one FFT element per
//! payload flit, and a 64-bit address header per transaction (`S_h`). A
//! simulator flit carries some metadata a real flit would not (destination,
//! readiness stamp) purely for bookkeeping; the *timed* width is 64 bits.

/// Position of a flit within its packet.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FlitKind {
    /// First flit: carries routing info, pays `t_r` at each router.
    Head,
    /// Interior payload flit.
    Body,
    /// Last flit: releases the wormhole channel behind it.
    Tail,
    /// Single-flit packet (head and tail at once).
    HeadTail,
}

impl FlitKind {
    /// Does this flit open a wormhole channel?
    pub(crate) fn is_head(self) -> bool {
        matches!(self, FlitKind::Head | FlitKind::HeadTail)
    }

    /// Does this flit close a wormhole channel?
    pub(crate) fn is_tail(self) -> bool {
        matches!(self, FlitKind::Tail | FlitKind::HeadTail)
    }
}

/// One 64-bit flit in flight.
#[derive(Debug, Clone, Copy)]
pub struct Flit {
    /// Destination node index.
    pub dest: u32,
    /// Source node index (stamped by the mesh at injection; the NACK path
    /// retransmits to it).
    pub src: u32,
    /// Payload: for transpose traffic, the linear DRAM word address of the
    /// element; for delivery traffic, a data word.
    pub payload: u64,
    /// Position within the packet.
    pub kind: FlitKind,
    /// Packet id (for wormhole bookkeeping and debugging). 64-bit: at
    /// 16k–64k-node scale the per-run packet count overflows a `u32`.
    pub packet: u64,
    /// Earliest cycle this flit may next be forwarded (set on arrival:
    /// `cycle + 1` for body/tail, `cycle + 1 + t_r` for heads).
    pub ready_at: u64,
    /// Poisoned by fault injection (a failed-ECC flag; the payload word is
    /// retained so a retransmission carries clean data).
    pub corrupted: bool,
}

/// A whole packet, pre-flitted.
#[derive(Debug, Clone)]
pub struct Packet {
    /// Destination node index.
    pub dest: u32,
    /// Packet id.
    pub id: u64,
    /// Payload words, one per payload flit.
    pub payload: Vec<u64>,
    /// Whether a separate header flit is prepended (the paper's `S_h`).
    pub explicit_header: bool,
}

impl Packet {
    /// A packet with a header flit plus one payload flit per word.
    pub fn with_header(dest: u32, id: u64, payload: Vec<u64>) -> Self {
        Packet {
            dest,
            id,
            payload,
            explicit_header: true,
        }
    }

    /// Total flits on the wire.
    pub(crate) fn flit_count(&self) -> usize {
        self.payload.len() + usize::from(self.explicit_header)
    }

    /// Expand into wire flits (with `ready_at` = 0; the mesh stamps it on
    /// injection).
    pub fn flits(&self) -> Vec<Flit> {
        self.flit_iter().collect()
    }

    /// The wire flits of [`Packet::flits`], in order, without allocating.
    pub(crate) fn flit_iter(&self) -> impl ExactSizeIterator<Item = Flit> + '_ {
        let n = self.flit_count();
        assert!(n > 0, "empty packet");
        let header = usize::from(self.explicit_header);
        (0..n).map(move |i| Flit {
            dest: self.dest,
            src: 0,
            payload: if i < header {
                0
            } else {
                self.payload[i - header]
            },
            kind: match (i, n) {
                (0, 1) => FlitKind::HeadTail,
                (0, _) => FlitKind::Head,
                (i, n) if i == n - 1 => FlitKind::Tail,
                _ => FlitKind::Body,
            },
            packet: self.id,
            ready_at: 0,
            corrupted: false,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl Packet {
        /// A headerless packet (the head flit carries the first payload word),
        /// used where the paper folds the header into the data ("Flit Size =
        /// FFT element size").
        pub(crate) fn headerless(dest: u32, id: u64, payload: Vec<u64>) -> Self {
            assert!(!payload.is_empty(), "headerless packet needs payload");
            Packet {
                dest,
                id,
                payload,
                explicit_header: false,
            }
        }
    }

    #[test]
    fn two_flit_element_packet() {
        // The transpose wire format: header + one 64-bit element.
        let p = Packet::with_header(7, 1, vec![0xDEAD]);
        let f = p.flits();
        assert_eq!(f.len(), 2);
        assert_eq!(f[0].kind, FlitKind::Head);
        assert_eq!(f[1].kind, FlitKind::Tail);
        assert_eq!(f[1].payload, 0xDEAD);
        assert!(f.iter().all(|x| x.dest == 7));
    }

    #[test]
    fn single_flit_packet_is_headtail() {
        let p = Packet::headerless(3, 9, vec![42]);
        let f = p.flits();
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].kind, FlitKind::HeadTail);
        assert!(f[0].kind.is_head() && f[0].kind.is_tail());
    }

    #[test]
    fn long_packet_structure() {
        let p = Packet::with_header(0, 0, (0..32).collect());
        let f = p.flits();
        assert_eq!(f.len(), 33);
        assert_eq!(f[0].kind, FlitKind::Head);
        assert!(f[1..32].iter().all(|x| x.kind == FlitKind::Body));
        assert_eq!(f[32].kind, FlitKind::Tail);
        // Payload words preserved in order.
        assert_eq!(f[1].payload, 0);
        assert_eq!(f[32].payload, 31);
    }

    #[test]
    fn kind_predicates() {
        assert!(FlitKind::Head.is_head());
        assert!(!FlitKind::Head.is_tail());
        assert!(FlitKind::Tail.is_tail());
        assert!(!FlitKind::Body.is_head());
    }
}
