//! Fault injection and resilience for the electronic mesh.
//!
//! Three fault classes, all deterministic under the config seed:
//!
//! * **Transient corruption** — a per-traversal Bernoulli process poisons a
//!   payload flit (modelled as a failed-ECC flag; the clean word is retained
//!   so a retransmission carries good data). The memory interface detects
//!   poisoned payloads at ejection, refuses to stage them, and NACKs the
//!   source, which retransmits the element after a bounded delay, up to
//!   `max_retransmits` attempts.
//! * **Transient link-down** — a per-traversal Bernoulli process takes one
//!   router output out of service for `link_down_cycles`; flits wait (the
//!   wormhole holds) and resume when the link recovers.
//! * **Hard router kill** — scheduled [`RouterKill`]s permanently silence a
//!   router at a given cycle. Neighbours with traffic for it re-probe every
//!   few cycles, which turns an unrecoverable loss into a *livelock* that
//!   the no-progress watchdog converts into a structured
//!   [`crate::mesh::MeshError::NoProgress`] diagnostic instead of a hang.
//!
//! The Bernoulli processes are *per-site counter-hashed* streams
//! ([`sim_core::faults::hash_bernoulli`]): each router owns its corruption
//! stream and each directed link owns its outage stream, advanced by a
//! plain trial counter. A trial's outcome is a pure function of
//! `(seed, site, trial index)`, so it does not depend on when any *other*
//! site is consulted: the fault schedule is fixed by the traffic each site
//! sees, not by the order the service loop visits sites in (DESIGN.md §11).
//!
//! The layer is attached with [`crate::mesh::Mesh::enable_faults`]; a mesh
//! without it (or with all rates zero and no kills) is bit-identical to the
//! fault-free simulator — enforced by the golden transpose tests.

use std::collections::{HashMap, VecDeque};

use sim_core::faults::hash_bernoulli;

use crate::flit::Packet;
use crate::router::NUM_PORTS;

/// Site-space tags under the config seed (see [`corrupt_site`] /
/// [`link_site`]).
const STREAM_CORRUPT: u64 = 0;
const STREAM_LINK_DOWN: u64 = 1;

/// Fault-site id of router `ri`'s corruption stream.
#[inline]
pub(crate) fn corrupt_site(ri: usize) -> u64 {
    (STREAM_CORRUPT << 40) | ri as u64
}

/// Fault-site id of the outage stream of output `o` of router `ri`.
#[inline]
pub(crate) fn link_site(ri: usize, o: usize) -> u64 {
    (STREAM_LINK_DOWN << 40) | (ri * NUM_PORTS + o) as u64
}

/// How often a blocked sender re-probes a dead neighbour, in cycles.
pub(crate) const PROBE_INTERVAL: u64 = 8;

/// A scheduled permanent router failure.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RouterKill {
    /// Router to kill.
    pub router: u32,
    /// Cycle from which it no longer forwards, ejects or injects.
    pub at_cycle: u64,
}

/// Fault-injection knobs for one mesh instance.
#[derive(Debug, Clone)]
pub struct MeshFaultConfig {
    /// Experiment seed; corruption and link-down streams derive from it.
    pub seed: u64,
    /// Per-traversal probability a payload flit is poisoned.
    pub corrupt_rate: f64,
    /// Per-traversal probability the link being crossed drops.
    pub link_down_rate: f64,
    /// Outage length of a transient link-down, in cycles.
    pub link_down_cycles: u64,
    /// Scheduled hard failures.
    pub router_kills: Vec<RouterKill>,
    /// Whether the memory interface NACKs poisoned elements for
    /// retransmission (false = detected data is simply dropped).
    pub retransmit: bool,
    /// Retransmissions per element before the data is declared lost.
    pub max_retransmits: u32,
    /// Cycles between a NACK at the interface and the source re-injecting.
    pub nack_delay: u64,
    /// No-progress watchdog: with traffic pending and no flit movement for
    /// this many cycles, the run aborts with a diagnostic.
    pub watchdog_cycles: u64,
}

impl Default for MeshFaultConfig {
    fn default() -> Self {
        MeshFaultConfig {
            seed: 0,
            corrupt_rate: 0.0,
            link_down_rate: 0.0,
            link_down_cycles: 16,
            router_kills: Vec::new(),
            retransmit: true,
            max_retransmits: 4,
            nack_delay: 8,
            watchdog_cycles: 10_000,
        }
    }
}

/// Counters the fault layer accumulates over a run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MeshFaultStats {
    /// Payload flits poisoned in flight.
    pub corrupted_flits: u64,
    /// Transient link outages triggered.
    pub link_down_events: u64,
    /// Poisoned elements detected (and NACKed) at memory interfaces.
    pub nacks: u64,
    /// Elements re-injected at their source after a NACK.
    pub retransmits: u64,
    /// Elements lost for good (retry budget spent, retransmit disabled, or
    /// poisoned delivery at a processor sink).
    pub dropped_elements: u64,
    /// Probes of dead neighbours by blocked senders.
    pub probes: u64,
}

/// Structured no-progress diagnostic, produced by the watchdog instead of a
/// hang (see [`crate::mesh::MeshError::NoProgress`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MeshDiagnostic {
    /// Routers dead at the time of the dump.
    pub killed_routers: Vec<u32>,
    /// Flits buffered in the network.
    pub in_flight: u64,
    /// Flits queued at injectors that never entered the network.
    pub pending_inject: u64,
    /// NACKed elements awaiting re-injection.
    pub pending_retransmits: u64,
    /// Routers still holding flits, with their buffer occupancy.
    pub stuck_routers: Vec<(u32, u32)>,
    /// Fault counters at the time of the dump.
    pub stats: MeshFaultStats,
}

/// A NACKed element awaiting re-injection at its source.
#[derive(Debug, Clone)]
pub(crate) struct Retransmit {
    /// Cycle the source re-injects.
    pub due: u64,
    /// Source node.
    pub src: u32,
    /// The element, re-packetised.
    pub packet: Packet,
}

/// Live fault state attached to a [`crate::mesh::Mesh`].
#[derive(Debug)]
pub struct FaultLayer {
    /// The configuration.
    pub cfg: MeshFaultConfig,
    /// Trials consumed so far on each router's corruption stream.
    corrupt_trials: Vec<u64>,
    /// Trials consumed so far on each `router * NUM_PORTS + port` outage
    /// stream.
    link_trials: Vec<u64>,
    /// Cycle until which `router * NUM_PORTS + port` is down.
    down_until: Vec<u64>,
    /// Kill cycle per router (`None` = never dies).
    killed_at: Vec<Option<u64>>,
    /// NACKed elements in due order (dues are monotone: scheduled at
    /// `now + nack_delay` with `now` monotone, so a deque stays sorted).
    pub(crate) retx: VecDeque<Retransmit>,
    /// Retransmission attempts per (source, packet id).
    attempts: HashMap<(u32, u64), u32>,
    /// Counters.
    pub stats: MeshFaultStats,
}

impl FaultLayer {
    /// Build the layer for an `n`-router mesh.
    pub fn new(cfg: MeshFaultConfig, n: usize) -> Self {
        let mut killed_at = vec![None; n];
        for k in &cfg.router_kills {
            assert!((k.router as usize) < n, "kill targets router {}", k.router);
            let slot = &mut killed_at[k.router as usize];
            *slot = Some(slot.map_or(k.at_cycle, |c: u64| c.min(k.at_cycle)));
        }
        FaultLayer {
            corrupt_trials: vec![0; n],
            link_trials: vec![0; n * NUM_PORTS],
            down_until: vec![0; n * NUM_PORTS],
            killed_at,
            retx: VecDeque::new(),
            attempts: HashMap::new(),
            cfg,
            stats: MeshFaultStats::default(),
        }
    }

    /// Cycle `router` is scheduled to die at, if ever.
    pub(crate) fn killed_at(&self, router: u32) -> Option<u64> {
        self.killed_at[router as usize]
    }

    /// Whether `router` is dead at `cycle`.
    #[inline]
    pub(crate) fn is_dead(&self, router: u32, cycle: u64) -> bool {
        self.killed_at[router as usize].is_some_and(|at| at <= cycle)
    }

    /// Routers dead at `cycle`.
    pub(crate) fn dead_routers(&self, cycle: u64) -> Vec<u32> {
        (0..self.killed_at.len() as u32)
            .filter(|&r| self.is_dead(r, cycle))
            .collect()
    }

    /// Due cycle of the next pending retransmission, if any.
    pub(crate) fn next_retx_due(&self) -> Option<u64> {
        self.retx.front().map(|r| r.due)
    }

    /// One trial of router `ri`'s corruption stream.
    #[inline]
    pub(crate) fn corrupt_fire(&mut self, ri: usize) -> bool {
        let trial = self.corrupt_trials[ri];
        self.corrupt_trials[ri] += 1;
        hash_bernoulli(
            self.cfg.seed,
            corrupt_site(ri),
            trial,
            self.cfg.corrupt_rate,
        )
    }

    /// One trial of output `o` of router `ri`'s link-outage stream.
    #[inline]
    pub(crate) fn link_fire(&mut self, ri: usize, o: usize) -> bool {
        let i = ri * NUM_PORTS + o;
        let trial = self.link_trials[i];
        self.link_trials[i] += 1;
        hash_bernoulli(
            self.cfg.seed,
            link_site(ri, o),
            trial,
            self.cfg.link_down_rate,
        )
    }

    /// Cycle until which output `o` of router `ri` is down.
    #[inline]
    pub(crate) fn down_until(&self, ri: usize, o: usize) -> u64 {
        self.down_until[ri * NUM_PORTS + o]
    }

    /// Take output `o` of router `ri` down for the configured outage
    /// length from `cycle`; returns the cycle it comes back.
    #[inline]
    pub(crate) fn take_down(&mut self, ri: usize, o: usize, cycle: u64) -> u64 {
        let until = cycle + self.cfg.link_down_cycles;
        self.down_until[ri * NUM_PORTS + o] = until;
        self.stats.link_down_events += 1;
        until
    }

    /// The memory interface at `router` detected a poisoned element of
    /// `packet` from `src` at `cycle`: account the NACK and, budget
    /// permitting, schedule the retransmission.
    pub(crate) fn nack(&mut self, router: u32, src: u32, packet: u64, payload: u64, cycle: u64) {
        self.stats.nacks += 1;
        if !self.cfg.retransmit {
            self.stats.dropped_elements += 1;
            return;
        }
        let attempts = self.attempts.entry((src, packet)).or_insert(0);
        if *attempts >= self.cfg.max_retransmits {
            self.stats.dropped_elements += 1;
            return;
        }
        *attempts += 1;
        self.stats.retransmits += 1;
        self.retx.push_back(Retransmit {
            due: cycle + self.cfg.nack_delay,
            src,
            packet: Packet::with_header(router, packet, vec![payload]),
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kill_schedule_takes_the_earliest_cycle() {
        let layer = FaultLayer::new(
            MeshFaultConfig {
                router_kills: vec![
                    RouterKill {
                        router: 3,
                        at_cycle: 100,
                    },
                    RouterKill {
                        router: 3,
                        at_cycle: 40,
                    },
                ],
                ..Default::default()
            },
            8,
        );
        assert!(!layer.is_dead(3, 39));
        assert!(layer.is_dead(3, 40));
        assert!(layer.is_dead(3, 1000));
        assert!(!layer.is_dead(2, 1000));
        assert_eq!(layer.dead_routers(50), vec![3]);
    }

    #[test]
    fn zero_rate_layer_never_fires() {
        let mut layer = FaultLayer::new(MeshFaultConfig::default(), 4);
        for ri in 0..4 {
            for _ in 0..1000 {
                assert!(!layer.corrupt_fire(ri));
                for o in 0..NUM_PORTS {
                    assert!(!layer.link_fire(ri, o));
                }
            }
        }
        assert_eq!(layer.stats, MeshFaultStats::default());
    }

    #[test]
    fn fault_sites_are_disjoint_across_streams_and_indices() {
        use std::collections::HashSet;
        let mut seen = HashSet::new();
        for ri in 0..64 {
            assert!(seen.insert(corrupt_site(ri)), "corrupt site collision");
            for o in 0..NUM_PORTS {
                assert!(seen.insert(link_site(ri, o)), "link site collision");
            }
        }
    }
}
