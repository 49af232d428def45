//! Router storage for the mesh hot path: one cache line of state per
//! router, plus its flit slots.
//!
//! A router service reads and writes a few scalars per port — ring lengths
//! and heads, routes, owners, the outputs already used this cycle — and
//! the wake wheel's queued mask. [`RouterState`] keeps all of them for one
//! router in a single 64-byte, 64-aligned record, so a service touches one
//! line of router state instead of one line per parallel array.
//!
//! * Ring lengths and heads are `u32` (heads free-running, masked by
//!   `cap - 1`), so every buffer depth that fits in memory keeps working.
//! * Route and owner share one byte per port: the low nibble is the
//!   output assigned to input `p`, the high nibble the input owning output
//!   `p`, and [`NO_PORT`] marks "none".
//! * Output use is one `(serviced_at, used)` pair rather than a stamp per
//!   output: an output is only ever asked whether it was used *during the
//!   current service*, and a router is serviced at most once per cycle, so
//!   the mask is cleared when a service begins and `serviced_at` doubles
//!   as the wheel's dedup stamp.
//!
//! Flits are buffered as 32-byte [`Slot`]s — the public [`Flit`] is 40
//! bytes with padding — packed at `cap` per input port, where `cap` is the
//! buffer depth rounded up to a power of two (minimum 2). At the paper's
//! depth of two one port's ring is exactly one cache line.

use crate::flit::{Flit, FlitKind};
use crate::router::NUM_PORTS;

/// Packed `None` for route/owner nibbles.
pub(crate) const NO_PORT: u8 = 0xF;

/// A flit as the mesh buffers it: [`Flit`]'s fields in 32 bytes, with
/// `src`, `corrupted` and `kind` sharing one `u32` (`src << 3 |
/// corrupted << 2 | kind`). `src` therefore has [`Slot::SRC_BITS`] bits,
/// which bounds the node count [`crate::mesh::Mesh::new`] accepts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(C, align(32))]
pub(crate) struct Slot {
    /// Earliest cycle the flit may next be forwarded.
    pub ready_at: u64,
    payload: u64,
    packet: u64,
    /// Destination node index.
    pub dest: u32,
    meta: u32,
}

const _: () = assert!(std::mem::size_of::<Slot>() == 32 && std::mem::align_of::<Slot>() == 32);

impl Slot {
    /// Bits left for `src` beside `corrupted` and `kind`.
    pub(crate) const SRC_BITS: u32 = 29;

    const EMPTY: Slot = Slot {
        ready_at: 0,
        payload: 0,
        packet: 0,
        dest: 0,
        meta: 0,
    };

    /// Pack `f`. Its `src` must fit in [`Slot::SRC_BITS`] bits.
    #[inline]
    pub(crate) fn pack(f: &Flit) -> Slot {
        debug_assert!(f.src >> Self::SRC_BITS == 0, "src {} overflows", f.src);
        Slot {
            ready_at: f.ready_at,
            payload: f.payload,
            packet: f.packet,
            dest: f.dest,
            meta: f.src << 3 | u32::from(f.corrupted) << 2 | f.kind as u32,
        }
    }

    /// The flit this slot holds.
    #[inline]
    pub(crate) fn unpack(&self) -> Flit {
        Flit {
            dest: self.dest,
            src: self.meta >> 3,
            payload: self.payload,
            kind: self.kind(),
            packet: self.packet,
            ready_at: self.ready_at,
            corrupted: self.meta & 4 != 0,
        }
    }

    /// Position within the packet.
    #[inline]
    pub fn kind(&self) -> FlitKind {
        match self.meta & 3 {
            0 => FlitKind::Head,
            1 => FlitKind::Body,
            2 => FlitKind::Tail,
            _ => FlitKind::HeadTail,
        }
    }

    /// Poison the flit (fault injection).
    #[inline]
    pub fn corrupt(&mut self) {
        self.meta |= 4;
    }
}

/// One router's service state, on one cache line.
#[derive(Debug, Clone, Copy)]
#[repr(C, align(64))]
pub(crate) struct RouterState {
    /// Cycle of the router's last service ([`super::NEVER`] before the
    /// first); the cycle the `used` mask refers to.
    pub serviced_at: u64,
    /// Wake-wheel mask: bit `cycle % WINDOW` set while the router has an
    /// entry in that cycle's bucket.
    pub queued: u64,
    len: [u32; NUM_PORTS],
    head: [u32; NUM_PORTS],
    /// Low nibble: output of the packet at input `p`, set by its head
    /// (from a route fixed by node and destination, or when it moves) and
    /// cleared by its tail; high nibble: input owning output `p`
    /// ([`NO_PORT`] = none).
    chan: [u8; NUM_PORTS],
    /// Bit `p` set while input `p` buffers a flit.
    nonempty: u8,
    /// Bit `o` set once output `o` carried a flit during the service at
    /// `serviced_at`.
    used: u8,
    /// Whether the router's injection queue holds flits.
    pub injecting: bool,
}

const _: () =
    assert!(std::mem::size_of::<RouterState>() <= 64 && std::mem::align_of::<RouterState>() == 64);

impl RouterState {
    const IDLE: RouterState = RouterState {
        serviced_at: super::NEVER,
        queued: 0,
        len: [0; NUM_PORTS],
        head: [0; NUM_PORTS],
        chan: [NO_PORT << 4 | NO_PORT; NUM_PORTS],
        nonempty: 0,
        used: 0,
        injecting: false,
    };
}

/// Service state and flit slots for every router in the mesh.
#[derive(Debug)]
pub(crate) struct RouterSlab {
    /// Ring capacity per input port (power of two ≥ 2, ≥ buffer depth).
    cap: usize,
    /// One record per router.
    state: Vec<RouterState>,
    /// Flit slots: `cap` per input port, `NUM_PORTS` ports per router.
    slots: Vec<Slot>,
}

impl RouterSlab {
    /// Storage for `n` routers with the given logical buffer depth.
    pub fn new(n: usize, buffer_depth: usize) -> Self {
        assert!(buffer_depth >= 1, "buffer depth must be at least 1");
        let cap = buffer_depth.next_power_of_two().max(2);
        assert!(
            u32::try_from(cap).is_ok(),
            "buffer depth {buffer_depth} exceeds the u32 ring index"
        );
        RouterSlab {
            cap,
            state: vec![RouterState::IDLE; n],
            slots: vec![Slot::EMPTY; n * NUM_PORTS * cap],
        }
    }

    /// Ring capacity per input port.
    #[cfg(test)]
    pub fn cap(&self) -> usize {
        self.cap
    }

    /// Return every router to the state [`RouterSlab::new`] leaves it in,
    /// keeping the allocations. Stale flit slots stay behind; they are
    /// unreachable once every length is 0.
    pub fn clear(&mut self) {
        self.state.fill(RouterState::IDLE);
    }

    /// Router `r`'s record.
    #[inline]
    pub fn state(&self, r: usize) -> &RouterState {
        &self.state[r]
    }

    /// Router `r`'s record, for the wheel and service bookkeeping.
    #[inline]
    pub fn state_mut(&mut self, r: usize) -> &mut RouterState {
        &mut self.state[r]
    }

    /// Begin router `r`'s service at cycle `c`: stamp it and clear its
    /// used-output mask. Returns false when `r` was already serviced at
    /// `c` (a merged duplicate wake).
    #[inline]
    pub fn begin_service(&mut self, r: usize, c: u64) -> bool {
        let s = &mut self.state[r];
        if s.serviced_at == c {
            return false;
        }
        s.serviced_at = c;
        s.used = 0;
        true
    }

    /// True when router `r` buffers nothing.
    pub fn is_empty(&self, r: usize) -> bool {
        self.state[r].nonempty == 0
    }

    /// Routers in the slab.
    pub fn routers(&self) -> usize {
        self.state.len()
    }

    /// Buffered flit count of input `p` of router `r`.
    #[inline]
    pub fn input_len(&self, r: usize, p: usize) -> usize {
        self.state[r].len[p] as usize
    }

    /// Slot index of the `k`-th buffered flit of input `p` of router `r`.
    #[inline]
    fn slot(&self, r: usize, p: usize, k: usize) -> usize {
        (r * NUM_PORTS + p) * self.cap + ((self.state[r].head[p] as usize + k) & (self.cap - 1))
    }

    /// Oldest buffered flit of input `p` of router `r`, if any, read in
    /// place.
    #[inline]
    pub fn front_ref(&self, r: usize, p: usize) -> Option<&Slot> {
        (self.state[r].len[p] > 0).then(|| &self.slots[self.slot(r, p, 0)])
    }

    /// Append a flit to input `p` of router `r`. Panics if the ring's
    /// physical capacity is exceeded (the mesh checks logical space first).
    #[inline]
    pub fn push_back(&mut self, r: usize, p: usize, slot: Slot) {
        let len = self.state[r].len[p] as usize;
        assert!(len < self.cap, "input ring overflow");
        let i = self.slot(r, p, len);
        self.slots[i] = slot;
        let s = &mut self.state[r];
        s.len[p] += 1;
        s.nonempty |= 1 << p;
    }

    /// Remove and return the oldest buffered flit of input `p` of router
    /// `r`.
    #[inline]
    pub fn pop_front(&mut self, r: usize, p: usize) -> Option<Slot> {
        let slot = *self.front_ref(r, p)?;
        self.discard_front(r, p);
        Some(slot)
    }

    /// Drop the oldest buffered flit of the non-empty input `p` of router
    /// `r`, already read through [`RouterSlab::front_ref`].
    #[inline]
    pub fn discard_front(&mut self, r: usize, p: usize) {
        let s = &mut self.state[r];
        debug_assert!(s.len[p] > 0, "discard from an empty input");
        s.head[p] = s.head[p].wrapping_add(1);
        s.len[p] -= 1;
        if s.len[p] == 0 {
            s.nonempty &= !(1 << p);
        }
    }

    /// Assigned output of input `p` of router `r`.
    #[inline]
    pub fn route(&self, r: usize, p: usize) -> Option<u8> {
        let v = self.state[r].chan[p] & 0xF;
        (v != NO_PORT).then_some(v)
    }

    /// Assign (or clear, with `NO_PORT`) the route of input `p`.
    #[inline]
    pub fn set_route(&mut self, r: usize, p: usize, v: u8) {
        let c = &mut self.state[r].chan[p];
        *c = *c & 0xF0 | v;
    }

    /// Owning input of output `o` of router `r` (the hot path reads it
    /// only through [`RouterSlab::output_available`]).
    #[cfg(test)]
    pub fn owner(&self, r: usize, o: usize) -> Option<u8> {
        let v = self.state[r].chan[o] >> 4;
        (v != NO_PORT).then_some(v)
    }

    /// Set (or clear, with `NO_PORT`) the owner of output `o`.
    #[inline]
    pub fn set_owner(&mut self, r: usize, o: usize, v: u8) {
        let c = &mut self.state[r].chan[o];
        *c = *c & 0xF | v << 4;
    }

    /// Whether output `o` of router `r` already carried a flit during the
    /// current service.
    #[inline]
    pub fn output_used(&self, r: usize, o: usize) -> bool {
        self.state[r].used & 1 << o != 0
    }

    /// Mark output `o` of router `r` as used during the current service.
    #[inline]
    pub fn mark_used(&mut self, r: usize, o: usize) {
        self.state[r].used |= 1 << o;
    }

    /// Whether input `p` of router `r` can accept another flit under a
    /// logical buffer depth of `depth` flits.
    #[inline]
    pub fn has_space_depth(&self, r: usize, p: usize, depth: usize) -> bool {
        self.input_len(r, p) < depth
    }

    /// Whether output `o` of router `r` is free for input `p` during the
    /// current service: the channel is un-owned or owned by `p`, and it
    /// has not carried a flit yet this cycle.
    #[inline]
    pub fn output_available(&self, r: usize, o: usize, p: usize) -> bool {
        let s = &self.state[r];
        let owner = s.chan[o] >> 4;
        (owner == NO_PORT || owner as usize == p) && s.used & 1 << o == 0
    }

    /// Bit `p` set for every non-empty input `p` of router `r`.
    #[inline]
    pub fn nonempty_mask(&self, r: usize) -> u32 {
        u32::from(self.state[r].nonempty)
    }

    /// Buffered flits across all of router `r`'s inputs.
    #[inline]
    pub fn occupancy(&self, r: usize) -> usize {
        self.state[r].len.iter().map(|&l| l as usize).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flit::Packet;

    fn some_flit(payload: u64) -> Slot {
        let mut f = Packet::headerless(0, 0, vec![1]).flits()[0];
        f.payload = payload;
        Slot::pack(&f)
    }

    fn payload(s: Slot) -> u64 {
        s.unpack().payload
    }

    #[test]
    fn capacity_rounds_up_to_a_power_of_two_with_floor_two() {
        assert_eq!(RouterSlab::new(1, 1).cap(), 2);
        assert_eq!(RouterSlab::new(1, 2).cap(), 2);
        assert_eq!(RouterSlab::new(1, 3).cap(), 4);
        assert_eq!(RouterSlab::new(1, 64).cap(), 64);
    }

    #[test]
    fn fifo_order_and_wraparound_match_flit_ring() {
        let mut v = RouterSlab::new(2, 2);
        let mut next = 0u64;
        let mut expect = 0u64;
        // Push/pop far past the ring capacity so the head wraps, on a
        // non-zero router/port to exercise the indexing.
        for _ in 0..(64 * 3) {
            v.push_back(1, 3, some_flit(next));
            next += 1;
            v.push_back(1, 3, some_flit(next));
            next += 1;
            assert_eq!(v.input_len(1, 3), 2);
            assert!(!v.has_space_depth(1, 3, 2));
            assert_eq!(payload(*v.front_ref(1, 3).unwrap()), expect);
            assert_eq!(payload(v.pop_front(1, 3).unwrap()), expect);
            assert_eq!(payload(v.pop_front(1, 3).unwrap()), expect + 1);
            expect += 2;
            assert!(v.pop_front(1, 3).is_none());
        }
        // Router 0 was never touched.
        assert_eq!(v.input_len(0, 3), 0);
        assert!(v.is_empty(0));
    }

    #[test]
    fn output_availability_matches_router_semantics() {
        let mut v = RouterSlab::new(1, 2);
        assert!(v.begin_service(0, 10));
        // Fresh output: available to every input.
        assert!((0..NUM_PORTS).all(|p| v.output_available(0, 2, p)));
        // Owned by input 1: only input 1 may use it.
        v.set_owner(0, 2, 1);
        assert!(!v.output_available(0, 2, 0));
        assert!(v.output_available(0, 2, 1));
        // Used this cycle: nobody may use it again during this service,
        // and the other outputs are unaffected.
        v.mark_used(0, 2);
        assert!(v.output_used(0, 2));
        assert!(!v.output_available(0, 2, 1));
        assert!(v.output_available(0, 3, 1));
        // A second wake at the same cycle is not a new service.
        assert!(!v.begin_service(0, 10));
        assert!(!v.output_available(0, 2, 1));
        // The next cycle's service frees it for its owner again.
        assert!(v.begin_service(0, 11));
        assert!(!v.output_used(0, 2));
        assert!(v.output_available(0, 2, 1));
        assert!(!v.output_available(0, 2, 0));
        // Releasing the channel opens it to everyone.
        v.set_owner(0, 2, NO_PORT);
        assert!(v.output_available(0, 2, 0));
    }

    #[test]
    fn route_and_owner_pack_none_as_sentinel() {
        let mut v = RouterSlab::new(3, 2);
        assert_eq!(v.route(2, 4), None);
        v.set_route(2, 4, 2);
        assert_eq!(v.route(2, 4), Some(2));
        // Route and owner share a byte without disturbing each other.
        v.set_owner(2, 4, 3);
        assert_eq!((v.route(2, 4), v.owner(2, 4)), (Some(2), Some(3)));
        v.set_route(2, 4, NO_PORT);
        assert_eq!((v.route(2, 4), v.owner(2, 4)), (None, Some(3)));
        assert_eq!(v.owner(1, 0), None);
        v.set_owner(1, 0, 4);
        assert_eq!(v.owner(1, 0), Some(4));
        assert_eq!(v.state(1).serviced_at, super::super::NEVER);
    }

    #[test]
    fn occupancy_sums_all_inputs() {
        let mut slab = RouterSlab::new(2, 4);
        slab.push_back(1, 0, some_flit(0));
        slab.push_back(1, 2, some_flit(1));
        slab.push_back(1, 2, some_flit(2));
        assert_eq!(slab.occupancy(1), 3);
        assert_eq!(slab.occupancy(0), 0);
        assert_eq!(slab.nonempty_mask(1), 0b00101);
        assert_eq!(slab.nonempty_mask(0), 0);
        assert!(!slab.is_empty(1));
        // The mask tracks pops: an input's bit clears only when it empties.
        slab.pop_front(1, 2);
        assert_eq!(slab.nonempty_mask(1), 0b00101);
        slab.pop_front(1, 2);
        slab.pop_front(1, 0);
        assert_eq!(slab.nonempty_mask(1), 0);
        assert!(slab.is_empty(1));
        slab.push_back(1, 4, some_flit(3));
        slab.set_owner(1, 4, 0);
        slab.clear();
        assert_eq!((slab.nonempty_mask(1), slab.occupancy(1)), (0, 0));
        assert_eq!(slab.owner(1, 4), None);
    }

    #[test]
    fn slot_packing_round_trips_every_field_at_its_extremes() {
        let kinds = [
            FlitKind::Head,
            FlitKind::Body,
            FlitKind::Tail,
            FlitKind::HeadTail,
        ];
        let max_src = (1u32 << Slot::SRC_BITS) - 1;
        for kind in kinds {
            for corrupted in [false, true] {
                for src in [0, 1, max_src - 1, max_src] {
                    for dest in [0, 1, u32::MAX] {
                        for wide in [0, 1, u64::MAX - 1, u64::MAX] {
                            let f = Flit {
                                dest,
                                src,
                                payload: wide,
                                kind,
                                packet: wide.rotate_left(7),
                                ready_at: wide ^ 0x5555,
                                corrupted,
                            };
                            let back = Slot::pack(&f).unpack();
                            assert_eq!(
                                (
                                    back.dest,
                                    back.src,
                                    back.payload,
                                    back.kind,
                                    back.packet,
                                    back.ready_at,
                                    back.corrupted,
                                ),
                                (
                                    f.dest,
                                    f.src,
                                    f.payload,
                                    f.kind,
                                    f.packet,
                                    f.ready_at,
                                    f.corrupted
                                ),
                            );
                            assert_eq!(Slot::pack(&f).kind(), kind);
                        }
                    }
                }
            }
        }
        // Corrupting a slot sets only the flag.
        let mut s = some_flit(9);
        s.corrupt();
        let f = s.unpack();
        assert!(f.corrupted);
        assert_eq!((f.payload, f.kind, f.src), (9, FlitKind::HeadTail, 0));
    }
}
