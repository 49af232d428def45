//! The mesh service loop.
//!
//! One sequential drain over plain `&mut` state: every serviced cycle takes
//! the wake-wheel bucket for that cycle and services its routers in
//! insertion order — telemetry tap, dead check, injection, then port
//! service rotated by the cycle number. A router is serviced at most once
//! per cycle, and only its own service pops its inputs: no forward targets
//! the router being serviced (DESIGN.md §11). So each input pops at most
//! once per cycle without a per-port stamp, and port service visits only
//! the inputs that are non-empty after injection. Every router service step
//! (injection, wormhole forwarding, ejection, fault evaluation, latency and
//! telemetry taps) lives here exactly once and applies its effects
//! directly, in the order the golden transpose tests pin (DESIGN.md §11).
//!
//! The drain is generic over `INSTRUMENTED`. [`Mesh::run`] picks `false`
//! when no fault layer, telemetry or latency tracking is attached, and the
//! compiler then drops every fault, telemetry and latency branch from the
//! per-flit path; with any of them attached the same source runs with the
//! branches in.
//!
//! Fault evaluation does not depend on that order for its schedule: each
//! Bernoulli site (a router's corruption stream, a directed link's outage
//! stream) owns a plain trial counter, and
//! [`sim_core::faults::hash_bernoulli`] makes a trial's outcome a pure
//! function of `(seed, site, trial)`.

use sim_core::invariant;

use super::soa::NO_PORT;
use super::{Mesh, MeshError, MeshRunResult, RoutingPolicy, WakeWheel};
use super::{AUDIT_INTERVAL, NEVER, NO_LINK};
use crate::faults::PROBE_INTERVAL;
use crate::flit::FlitKind;
use crate::router::{Port, NUM_PORTS};

const LOCAL: usize = Port::Local as usize;

/// Every input port's bit in a port mask.
const ALL_PORTS: u32 = (1 << NUM_PORTS) - 1;

impl Mesh {
    /// Drive the simulation until all traffic drains. Returns completion
    /// cycle and statistics.
    ///
    /// Execution is sequential whatever [`super::MeshConfig::threads`]
    /// asks for; a request for more than one thread is reported as
    /// [`super::RunWarning::SequentialOnly`] in [`MeshRunResult::warnings`].
    pub fn run(&mut self) -> Result<MeshRunResult, MeshError> {
        if self.faults.is_none() && self.telemetry.is_none() && self.latency.is_none() {
            self.drain::<false>()?;
        } else {
            self.drain::<true>()?;
        }
        self.finish()
    }

    /// Service wakeups until none is left. With `INSTRUMENTED` false the
    /// caller guarantees no fault layer, telemetry or latency tracking is
    /// attached.
    fn drain<const INSTRUMENTED: bool>(&mut self) -> Result<(), MeshError> {
        let mut audit_countdown = AUDIT_INTERVAL;
        loop {
            // Next service cycle: earliest wheel wakeup or NACK-retransmit
            // turnaround, whichever comes first.
            let mut next = self.wheel.next_cycle();
            if INSTRUMENTED {
                if let Some(due) = self.faults.as_ref().and_then(|fl| fl.next_retx_due()) {
                    next = Some(next.map_or(due, |n| n.min(due)));
                }
            }
            let Some(c) = next else { return Ok(()) };
            // Cooperative cancellation: one branch per serviced cycle when
            // no interrupt is installed.
            if let Some(intr) = self.interrupt.as_mut() {
                if let Some(cause) = intr.check(c) {
                    return Err(MeshError::Cancelled {
                        at_cycle: c,
                        cause,
                        in_flight: self.in_flight,
                        pending_inject: self.pending_inject,
                        energy: self.energy,
                    });
                }
            }
            if c > self.cfg.max_cycles {
                return Err(MeshError::CycleLimit {
                    limit: self.cfg.max_cycles,
                });
            }
            debug_assert!(c >= self.now, "wakeup in the past");
            self.now = c;
            self.wheel.advance_to(c);
            if INSTRUMENTED {
                self.drain_due_retransmits(c);
            }
            // Drain the bucket for cycle `c` in insertion order. Every wake
            // pushed while processing cycle `c` targets a cycle ≥ c + 1, so
            // the bucket cannot grow (or be reused — c + WINDOW is spilled
            // to the overflow heap) underneath this loop; take it out
            // wholesale and hand its allocation back afterwards.
            let b = (c % WakeWheel::WINDOW) as usize;
            let mut ids = std::mem::take(&mut self.wheel.buckets[b]);
            self.wheel.bucket_pending -= ids.len() as u64;
            let bit = !(1u64 << b);
            for &r in &ids {
                let ri = r as usize;
                self.slab.state_mut(ri).queued &= bit;
                // A merged overflow duplicate of a serviced entry is skipped.
                if self.slab.begin_service(ri, c) {
                    self.service_entry::<INSTRUMENTED>(r, c);
                }
            }
            ids.clear();
            debug_assert!(
                self.wheel.buckets[b].is_empty(),
                "same-cycle wake pushed while draining"
            );
            self.wheel.buckets[b] = ids;
            if sim_core::invariants::ENABLED {
                audit_countdown -= 1;
                if audit_countdown == 0 {
                    audit_countdown = AUDIT_INTERVAL;
                    self.check_flit_conservation();
                }
            }
            if INSTRUMENTED && self.faults.is_some() {
                self.watchdog_check(c)?;
            }
        }
    }

    /// Queue router `r` for service at `cycle`.
    #[inline]
    pub(super) fn wake(&mut self, r: u32, cycle: u64) {
        let queued = &mut self.slab.state_mut(r as usize).queued;
        self.wheel.push(queued, r, cycle);
    }

    /// Service router `r` at cycle `c`: telemetry tap, dead check,
    /// injection, then port service rotated by the cycle number.
    #[inline]
    fn service_entry<const INSTRUMENTED: bool>(&mut self, r: u32, c: u64) {
        let ri = r as usize;
        if INSTRUMENTED {
            if let Some(t) = self.telemetry.as_deref_mut() {
                if t.first_active[ri] == NEVER {
                    t.first_active[ri] = c;
                }
                t.last_active[ri] = c;
                // Pre-service occupancy, sampled before the dead check.
                t.occupancy.record(self.slab.occupancy(ri) as u64);
            }
            if self.faults.as_ref().is_some_and(|f| f.is_dead(r, c)) {
                return; // a hard-killed router does nothing, forever
            }
        }
        if self.slab.state(ri).injecting {
            self.try_inject::<INSTRUMENTED>(r, c);
        }
        // Visit the non-empty inputs in the order ports k + c (mod 5),
        // k = 0..5: rotate the mask right by c mod 5 so bit k is that port.
        let start = (c % NUM_PORTS as u64) as usize;
        let mask = self.slab.nonempty_mask(ri);
        let mut rotated = (mask >> start | mask << (NUM_PORTS - start)) & ALL_PORTS;
        while rotated != 0 {
            let p = rotated.trailing_zeros() as usize + start;
            rotated &= rotated - 1;
            self.try_forward::<INSTRUMENTED>(r, if p >= NUM_PORTS { p - NUM_PORTS } else { p }, c);
        }
    }

    /// The neighbour of `node` across `port`.
    #[inline]
    fn neighbor(&self, node: u32, port: Port) -> u32 {
        debug_assert!(port != Port::Local, "local has no neighbor");
        let n = self.sites[node as usize].links[port as usize - 1];
        debug_assert!(n != NO_LINK, "router {node} has no {port:?} neighbor");
        n
    }

    /// Route a head flit at `node` toward `dest`, and say whether the
    /// choice is fixed by `(node, dest)` alone. The adaptive arm reads the
    /// candidate neighbours' facing input-port lengths, so its choice is
    /// not.
    #[inline]
    fn route(&self, node: u32, dest: u32) -> (Port, bool) {
        if node == dest {
            return (Port::Local, true);
        }
        let c = self.sites[node as usize].coord;
        let d = self.sites[dest as usize].coord;
        if self.cfg.topology.torus {
            // Shortest-direction dimension-order routing over the wrap
            // links: x resolves first, and an equidistant tie goes East /
            // South so every hop is deterministic. The west-first turn
            // model the adaptive arm relies on is unsound on a ring, so
            // `MinimalAdaptive` also takes this deterministic path on a
            // torus (documented limitation, DESIGN.md §16: no VCs, so
            // torus configs rely on the structured deadlock detector).
            let (w, h) = (self.cfg.topology.width, self.cfg.topology.height);
            if d.x != c.x {
                let east = if d.x > c.x { d.x - c.x } else { d.x + w - c.x };
                let out = if east <= w - east {
                    Port::East
                } else {
                    Port::West
                };
                return (out, true);
            }
            // d.y != c.y here, since node != dest.
            let south = if d.y > c.y { d.y - c.y } else { d.y + h - c.y };
            let out = if south <= h - south {
                Port::South
            } else {
                Port::North
            };
            return (out, true);
        }
        let want_x = if d.x < c.x {
            Some(Port::West)
        } else if d.x > c.x {
            Some(Port::East)
        } else {
            None
        };
        let want_y = if d.y < c.y {
            Some(Port::North)
        } else if d.y > c.y {
            Some(Port::South)
        } else {
            None
        };
        match (want_x, want_y, self.cfg.policy) {
            (Some(x), None, _) => (x, true),
            (None, Some(y), _) => (y, true),
            (Some(x), Some(_), RoutingPolicy::Xy) => (x, true),
            (Some(x), Some(y), RoutingPolicy::MinimalAdaptive) => {
                // West-first turn model: westward hops must happen first.
                if x == Port::West {
                    return (x, true);
                }
                // Adaptive between x and y: pick the emptier downstream
                // buffer; tie prefers x (dimension order).
                let nx = self.neighbor(node, x);
                let ny = self.neighbor(node, y);
                let ox = self.slab.input_len(nx as usize, x.opposite() as usize);
                let oy = self.slab.input_len(ny as usize, y.opposite() as usize);
                (if oy < ox { y } else { x }, false)
            }
            (None, None, _) => unreachable!("handled by node == dest"),
        }
    }

    fn try_inject<const INSTRUMENTED: bool>(&mut self, r: u32, c: u64) {
        let ri = r as usize;
        if !self.slab.has_space_depth(ri, LOCAL, self.cfg.buffer_depth) {
            // Woken when the local input pops.
            return;
        }
        let mut slot = self.inject[ri].pop_front().expect("injecting");
        let kind = slot.kind();
        slot.ready_at = c + 1 + if kind.is_head() { self.cfg.t_r } else { 0 };
        let ready = slot.ready_at;
        if INSTRUMENTED && self.latency.is_some() && kind.is_head() {
            self.inject_cycle.insert(slot.unpack().packet, c);
        }
        self.slab.push_back(ri, LOCAL, slot);
        invariant!(
            self.slab.input_len(ri, LOCAL) <= self.cfg.buffer_depth,
            "buffer bound: router {r} local input exceeds depth {} after inject",
            self.cfg.buffer_depth
        );
        self.pending_inject -= 1;
        self.in_flight += 1;
        self.energy.injections += 1;
        self.wake(r, ready);
        if self.inject[ri].is_empty() {
            self.slab.state_mut(ri).injecting = false;
        } else {
            self.wake(r, c + 1);
        }
    }

    fn try_forward<const INSTRUMENTED: bool>(&mut self, r: u32, p: usize, c: u64) {
        let ri = r as usize;
        let Some(&head) = self.slab.front_ref(ri, p) else {
            return;
        };
        let kind = head.kind();
        if head.ready_at > c {
            self.wake(r, head.ready_at);
            return;
        }
        // Output port: continuation of an open wormhole, a head's route
        // kept from an earlier try, or a fresh route. A route that does
        // not read buffer occupancy is the same on every try, so it is
        // kept for the head's retries; an adaptive choice is made afresh.
        let out = match self.slab.route(ri, p) {
            Some(o) => Port::from_index(o as usize),
            None => {
                debug_assert!(kind.is_head(), "body flit without a route");
                let (out, fixed) = self.route(r, head.dest);
                if fixed {
                    self.slab.set_route(ri, p, out as u8);
                }
                out
            }
        };
        let o = out as usize;
        if !self.slab.output_available(ri, o, p) {
            // Channel owned by another packet (woken on release) or used
            // this cycle (retry next).
            if self.slab.output_used(ri, o) {
                self.wake(r, c + 1);
            }
            return;
        }

        if out == Port::Local {
            self.eject::<INSTRUMENTED>(r, p, c);
            return;
        }

        let n = self.neighbor(r, out);
        invariant!(
            n != r,
            "self-forward: router {r} routed port {p} back into itself via {out:?}"
        );
        let q = out.opposite() as usize;
        if INSTRUMENTED {
            if let Some(f) = self.faults.as_mut() {
                if f.is_dead(n, c) {
                    // Dead neighbour: hold the flit and re-probe. Nothing
                    // will ever answer, so this is a livelock by design —
                    // the watchdog converts it into a structured
                    // diagnostic.
                    f.stats.probes += 1;
                    self.wake(r, c + PROBE_INTERVAL);
                    return;
                }
                let until = f.down_until(ri, o);
                if until > c {
                    // Link still down from an earlier outage; resume then.
                    self.wake(r, until);
                    return;
                }
            }
        }
        if !self
            .slab
            .has_space_depth(n as usize, q, self.cfg.buffer_depth)
        {
            // Woken when (n, q) pops.
            return;
        }
        if INSTRUMENTED {
            if let Some(f) = self.faults.as_mut() {
                // One outage trial per committed traversal of link (r, out).
                if f.link_fire(ri, o) {
                    let until = f.take_down(ri, o, c);
                    self.wake(r, until);
                    return;
                }
            }
        }

        // Commit the move.
        let mut slot = head;
        self.slab.discard_front(ri, p);
        self.after_pop(r, p, c);
        if INSTRUMENTED {
            if let Some(f) = self.faults.as_mut() {
                // Payload corruption in flight, modelled as a failed-ECC
                // flag (header flits are protected: corrupting routing
                // state would misdeliver rather than degrade).
                if !matches!(kind, FlitKind::Head) && f.corrupt_fire(ri) {
                    slot.corrupt();
                    f.stats.corrupted_flits += 1;
                }
            }
        }
        slot.ready_at = c + 1 + if kind.is_head() { self.cfg.t_r } else { 0 };
        let ready = slot.ready_at;
        self.update_channel_state(r, p, o, kind, c);
        self.slab.push_back(n as usize, q, slot);
        invariant!(
            self.slab.input_len(n as usize, q) <= self.cfg.buffer_depth,
            "buffer bound: router {n} input port {q} exceeds depth {} after forward",
            self.cfg.buffer_depth
        );
        self.energy.router_traversals += 1;
        self.energy.link_hops += 1;
        self.router_forwards[ri] += 1;
        self.wake(n, ready);
    }

    fn eject<const INSTRUMENTED: bool>(&mut self, r: u32, p: usize, c: u64) {
        let ri = r as usize;
        let memif = self.memif_slot[ri].map(|slot| slot as usize);
        if let Some(slot) = memif {
            let m = &self.memifs[slot];
            if !m.can_accept(c) {
                // Busy until `free_at() > c`: retry the first cycle it frees.
                let free = m.free_at();
                self.wake(r, free);
                return;
            }
        }
        let flit = self.slab.pop_front(ri, p).expect("head").unpack();
        self.after_pop(r, p, c);
        self.update_channel_state(r, p, LOCAL, flit.kind, c);
        debug_assert!(INSTRUMENTED || !flit.corrupted, "corrupted without faults");
        if let Some(slot) = memif {
            if INSTRUMENTED && flit.corrupted {
                // Poisoned element: charge port timing, refuse staging, NACK.
                self.memifs[slot].accept_nack(c, &flit);
                self.faults
                    .as_mut()
                    .expect("corrupted implies faults")
                    .nack(r, flit.src, flit.packet, flit.payload, c);
            } else {
                self.memifs[slot].accept(c, &flit);
            }
        } else if !matches!(flit.kind, FlitKind::Head) {
            // Processor sink: always ready, one flit per cycle (enforced by
            // the output channel's used mask).
            if INSTRUMENTED && flit.corrupted {
                // Sinks detect but do not NACK (the paper's retransmit sits
                // at the memory interface); the word is lost.
                self.faults
                    .as_mut()
                    .expect("drop implies faults")
                    .stats
                    .dropped_elements += 1;
            } else {
                self.sink_delivered[ri] += 1;
                self.sink_last_cycle[ri] = c;
                if self.collect_sink_words {
                    self.sink_words[ri].push(flit.payload);
                }
            }
        }
        if INSTRUMENTED && flit.kind.is_tail() {
            if let Some(h) = self.latency.as_mut() {
                if let Some(t0) = self.inject_cycle.remove(&flit.packet) {
                    h.record(c - t0);
                }
            }
        }
        invariant!(
            self.in_flight > 0,
            "flit conservation: eject with in_flight = 0"
        );
        self.in_flight -= 1;
        self.energy.ejections += 1;
        self.energy.router_traversals += 1;
        self.router_forwards[ri] += 1;
    }

    /// Book-keeping after popping from input (r, p) at cycle c: wake the
    /// feeder (space freed) and ourselves (next flit).
    fn after_pop(&mut self, r: u32, p: usize, c: u64) {
        let ri = r as usize;
        if self.slab.input_len(ri, p) > 0 {
            self.wake(r, c + 1);
        }
        if p == LOCAL {
            // Feeder is the local injector.
            if self.slab.state(ri).injecting {
                self.wake(r, c + 1);
            }
        } else {
            let feeder = self.neighbor(r, Port::from_index(p));
            self.wake(feeder, c + 1);
        }
    }

    /// Update wormhole ownership and per-input route state for a forwarded
    /// flit of `kind`, and mark the output as used this cycle.
    fn update_channel_state(&mut self, r: u32, p: usize, o: usize, kind: FlitKind, c: u64) {
        let ri = r as usize;
        self.slab.mark_used(ri, o);
        if kind.is_head() {
            self.slab.set_owner(ri, o, p as u8);
            self.slab.set_route(ri, p, o as u8);
        }
        if kind.is_tail() {
            self.slab.set_owner(ri, o, NO_PORT);
            self.slab.set_route(ri, p, NO_PORT);
            // Channel released: contenders at this router may proceed.
            self.wake(r, c + 1);
        }
    }
}
