//! Structure-of-Arrays router storage for the mesh hot path.
//!
//! [`crate::router::Router`] is the *specification* of one router — inline
//! 64-slot rings, `Option` route/owner fields — and stays the unit under
//! test for port semantics. The simulator, however, services thousands of
//! routers per cycle, and an array-of-structs `Vec<Router>` pays for the
//! specification's generality twice over:
//!
//! * each router is ~10 KiB (five 64-slot inline rings) even though the
//!   paper's default depth is **2**, so two routers never share a cache
//!   line and the working set is ~50× larger than the live data;
//! * the scheduler's per-cycle bookkeeping reads only a few scalar fields
//!   (lengths, routes, owners, stamps) but drags whole rings through the
//!   cache to get them.
//!
//! [`RouterSlab`] stores the same state as dense parallel arrays sized to
//! the *configured* buffer depth: all ring lengths adjacent, all routes
//! adjacent, and the flit slots packed at `cap` per input port where `cap`
//! is the depth rounded up to a power of two (minimum 2). `Option<u8>`
//! fields are packed as `0xFF = None`, `last_used` keeps the
//! `u64::MAX = never` convention of [`crate::router::OutputPort`]. Each
//! router also keeps a byte with bit `p` set while input `p` is non-empty,
//! updated by every push and pop, so the service loop reads its port mask
//! in one load. All accessors take `(router, port)` coordinates; reads
//! borrow `&self`, writes `&mut self`.

use crate::flit::{Flit, FlitKind};
use crate::router::NUM_PORTS;

/// Packed `None` for route/owner bytes.
pub(crate) const NO_PORT: u8 = 0xFF;

/// Packed `never used` for output stamps (matches
/// [`crate::router::OutputPort::last_used`]'s default).
pub(crate) const NEVER_USED: u64 = u64::MAX;

const EMPTY_FLIT: Flit = Flit {
    dest: 0,
    src: 0,
    payload: 0,
    kind: FlitKind::HeadTail,
    packet: 0,
    ready_at: 0,
    corrupted: false,
};

/// Dense SoA storage for every router in the mesh.
#[derive(Debug)]
pub(crate) struct RouterSlab {
    /// Routers.
    n: usize,
    /// Ring capacity per input port (power of two ≥ 2, ≥ buffer depth).
    cap: usize,
    /// Flit slots: `cap` per input port, `NUM_PORTS` ports per router.
    flits: Vec<Flit>,
    /// Ring head index per input port (free-running, masked by `cap - 1`).
    head: Vec<u32>,
    /// Buffered flit count per input port.
    len: Vec<u32>,
    /// Per router, bit `p` set while input `p` buffers a flit.
    nonempty: Vec<u8>,
    /// Assigned output per input port (`NO_PORT` = none).
    route: Vec<u8>,
    /// Owning input per output port (`NO_PORT` = none).
    owner: Vec<u8>,
    /// Last-forward cycle stamp per output port (`NEVER_USED` = never).
    last_used: Vec<u64>,
}

impl RouterSlab {
    /// Storage for `n` routers with the given logical buffer depth.
    pub fn new(n: usize, buffer_depth: usize) -> Self {
        assert!(buffer_depth >= 1, "buffer depth must be at least 1");
        let cap = buffer_depth.next_power_of_two().max(2);
        RouterSlab {
            n,
            cap,
            flits: vec![EMPTY_FLIT; n * NUM_PORTS * cap],
            head: vec![0; n * NUM_PORTS],
            len: vec![0; n * NUM_PORTS],
            nonempty: vec![0; n],
            route: vec![NO_PORT; n * NUM_PORTS],
            owner: vec![NO_PORT; n * NUM_PORTS],
            last_used: vec![NEVER_USED; n * NUM_PORTS],
        }
    }

    /// Ring capacity per input port.
    #[cfg(test)]
    pub fn cap(&self) -> usize {
        self.cap
    }

    /// Empty every input and clear every route, owner and output stamp,
    /// as [`RouterSlab::new`] leaves them, keeping the allocations. Stale
    /// flit slots stay behind; they are unreachable once every length is 0.
    pub fn clear(&mut self) {
        self.head.fill(0);
        self.len.fill(0);
        self.nonempty.fill(0);
        self.route.fill(NO_PORT);
        self.owner.fill(NO_PORT);
        self.last_used.fill(NEVER_USED);
    }

    /// True when router `r` buffers nothing.
    pub fn is_empty(&self, r: usize) -> bool {
        self.nonempty[r] == 0
    }

    /// Routers in the slab.
    pub fn routers(&self) -> usize {
        self.n
    }

    #[inline]
    fn port(r: usize, p: usize) -> usize {
        debug_assert!(p < NUM_PORTS);
        r * NUM_PORTS + p
    }

    /// Buffered flit count of input `p` of router `r`.
    #[inline]
    pub fn input_len(&self, r: usize, p: usize) -> usize {
        self.len[Self::port(r, p)] as usize
    }

    /// Ring slot holding the `k`-th buffered flit of port index `i`.
    #[inline]
    fn slot(&self, i: usize, k: usize) -> usize {
        i * self.cap + ((self.head[i] as usize + k) & (self.cap - 1))
    }

    /// Oldest buffered flit of input `p` of router `r`, if any, read in
    /// place.
    #[inline]
    pub fn front_ref(&self, r: usize, p: usize) -> Option<&Flit> {
        let i = Self::port(r, p);
        (self.len[i] > 0).then(|| &self.flits[self.slot(i, 0)])
    }

    /// Append a flit to input `p` of router `r`. Panics if the ring's
    /// physical capacity is exceeded (the mesh checks logical space first,
    /// exactly as it did against [`crate::router::FlitRing`]).
    #[inline]
    pub fn push_back(&mut self, r: usize, p: usize, flit: Flit) {
        let i = Self::port(r, p);
        let len = self.len[i] as usize;
        assert!(len < self.cap, "input ring overflow");
        let slot = self.slot(i, len);
        self.flits[slot] = flit;
        self.len[i] += 1;
        self.nonempty[r] |= 1 << p;
    }

    /// Remove and return the oldest buffered flit of input `p` of router
    /// `r`.
    #[inline]
    pub fn pop_front(&mut self, r: usize, p: usize) -> Option<Flit> {
        let flit = *self.front_ref(r, p)?;
        let i = Self::port(r, p);
        self.head[i] = self.head[i].wrapping_add(1);
        self.len[i] -= 1;
        if self.len[i] == 0 {
            self.nonempty[r] &= !(1 << p);
        }
        Some(flit)
    }

    /// Assigned output of input `p` of router `r`.
    #[inline]
    pub fn route(&self, r: usize, p: usize) -> Option<u8> {
        let v = self.route[Self::port(r, p)];
        (v != NO_PORT).then_some(v)
    }

    /// Assign (or clear, with `NO_PORT`) the route of input `p`.
    #[inline]
    pub fn set_route_raw(&mut self, r: usize, p: usize, v: u8) {
        self.route[Self::port(r, p)] = v;
    }

    /// Owning input of output `o` of router `r` (the hot path reads it
    /// only through [`RouterSlab::output_available`]).
    #[cfg(test)]
    pub fn owner(&self, r: usize, o: usize) -> Option<u8> {
        let v = self.owner[Self::port(r, o)];
        (v != NO_PORT).then_some(v)
    }

    /// Set (or clear, with `NO_PORT`) the owner of output `o`.
    #[inline]
    pub fn set_owner_raw(&mut self, r: usize, o: usize, v: u8) {
        self.owner[Self::port(r, o)] = v;
    }

    /// Last-forward stamp of output `o` of router `r`.
    #[inline]
    pub fn last_used(&self, r: usize, o: usize) -> u64 {
        self.last_used[Self::port(r, o)]
    }

    /// Stamp output `o` as used at `cycle`.
    #[inline]
    pub fn set_last_used(&mut self, r: usize, o: usize, cycle: u64) {
        self.last_used[Self::port(r, o)] = cycle;
    }

    /// Whether input `p` of router `r` can accept another flit under a
    /// logical buffer depth of `depth` flits
    /// ([`crate::router::Router::has_space_depth`]).
    #[inline]
    pub fn has_space_depth(&self, r: usize, p: usize, depth: usize) -> bool {
        self.input_len(r, p) < depth
    }

    /// Whether output `o` of router `r` is free this cycle for input `p`:
    /// channel un-owned or owned by `p`, and not already used at `cycle`
    /// ([`crate::router::Router::output_available`]).
    #[inline]
    pub fn output_available(&self, r: usize, o: usize, p: usize, cycle: u64) -> bool {
        let i = Self::port(r, o);
        let owner = self.owner[i];
        let last = self.last_used[i];
        (owner == NO_PORT || owner as usize == p) && (last == NEVER_USED || last < cycle)
    }

    /// Bit `p` set for every non-empty input `p` of router `r`.
    #[inline]
    pub fn nonempty_mask(&self, r: usize) -> u32 {
        u32::from(self.nonempty[r])
    }

    /// Buffered flits across all of router `r`'s inputs.
    #[inline]
    pub fn occupancy(&self, r: usize) -> usize {
        self.len[r * NUM_PORTS..(r + 1) * NUM_PORTS]
            .iter()
            .map(|&l| l as usize)
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flit::Packet;
    use crate::router::Router;

    fn some_flit(payload: u64) -> Flit {
        let mut f = Packet::headerless(0, 0, vec![1]).flits()[0];
        f.payload = payload;
        f
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
            assert_eq!(v.front_ref(1, 3).unwrap().payload, expect);
            assert_eq!(v.pop_front(1, 3).unwrap().payload, expect);
            assert_eq!(v.pop_front(1, 3).unwrap().payload, expect + 1);
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
        let mut reference = Router::default();
        // Fresh output: available to anyone.
        assert!(v.output_available(0, 2, 0, 10));
        assert!(reference.output_available(2, 0, 10));
        // Owned by input 1: only input 1 may use it.
        v.set_owner_raw(0, 2, 1);
        reference.outputs[2].owner = Some(1);
        assert_eq!(
            v.output_available(0, 2, 0, 10),
            reference.output_available(2, 0, 10)
        );
        assert_eq!(
            v.output_available(0, 2, 1, 10),
            reference.output_available(2, 1, 10)
        );
        // Used this cycle: nobody may use it again until the next one.
        v.set_last_used(0, 2, 10);
        reference.outputs[2].last_used = 10;
        assert_eq!(
            v.output_available(0, 2, 1, 10),
            reference.output_available(2, 1, 10)
        );
        assert_eq!(
            v.output_available(0, 2, 1, 11),
            reference.output_available(2, 1, 11)
        );
        assert!(v.output_available(0, 2, 1, 11));
    }

    #[test]
    fn route_and_owner_pack_none_as_sentinel() {
        let mut v = RouterSlab::new(3, 2);
        assert_eq!(v.route(2, 4), None);
        v.set_route_raw(2, 4, 2);
        assert_eq!(v.route(2, 4), Some(2));
        v.set_route_raw(2, 4, NO_PORT);
        assert_eq!(v.route(2, 4), None);
        assert_eq!(v.owner(1, 0), None);
        v.set_owner_raw(1, 0, 4);
        assert_eq!(v.owner(1, 0), Some(4));
        assert_eq!(v.last_used(1, 0), NEVER_USED);
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
        slab.clear();
        assert_eq!((slab.nonempty_mask(1), slab.occupancy(1)), (0, 0));
    }
}
