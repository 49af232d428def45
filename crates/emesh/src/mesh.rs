//! The clocked mesh fabric: injection, wormhole forwarding, ejection.
//!
//! Semantics are cycle-accurate at flit granularity:
//!
//! * a flit crosses one link per cycle;
//! * a head flit additionally waits `t_r` cycles at *every* router it
//!   encounters (route computation, §V-C-2);
//! * each output channel carries ≤ 1 flit/cycle and is owned wormhole-style
//!   by one packet between head and tail;
//! * each input buffer holds ≤ 2 flits and pops ≤ 1 flit/cycle —
//!   structurally: a router is serviced at most once per cycle, only its
//!   own service pops its inputs, and each service visits each input at
//!   most once, so no per-port pop stamp is needed;
//! * ejection into a memory interface respects the interface's reorder
//!   occupancy (`t_p`).
//!
//! Execution is **event-driven over wakeups** rather than a dense sweep of
//! every router every cycle: a blocked flit sleeps until the condition that
//! blocks it (downstream space, channel release, reorder unit, `ready_at`)
//! can have changed. This makes the 2²⁰-element Table III transpose run in
//! seconds while preserving exact cycle semantics. Determinism: wakeups pop
//! in (cycle, insertion) order and port service order rotates with the
//! cycle number.
//!
//! Wakeups live in a bucketed timing wheel (`WakeWheel`): near-future
//! cycles map to a ring of per-cycle vectors (push/pop are O(1) appends in
//! insertion order), far-future cycles spill to a small overflow heap.
//! Each router keeps a 64-bit mask of the bucketed cycles it is already
//! queued for (bit `cycle % WINDOW`), so a bucket holds at most one entry
//! per router: a wake for router `r` at cycle `c` is dropped when `r` is
//! already bucketed at `c`. Dropping a later duplicate never moves a
//! service — the first entry for `(r, c)` services `r`, and `processed_at`
//! would skip every later one — so the heap scheduler's exact (cycle,
//! insertion) service order holds, enforced bit-for-bit by the golden
//! transpose tests. Overflow wakes bypass the mask; `processed_at` skips
//! their duplicates once they merge into a bucket.
//!
//! The service loop itself (`mesh/exec.rs`) is one sequential drain over
//! plain `&mut` state, with faults, telemetry and latency tracking applied
//! in place; router port state lives in a structure-of-arrays slab
//! (`mesh/soa.rs`), and each router's neighbours and coordinates are
//! looked up in tables built once by [`Mesh::new`]. DESIGN.md §11 records
//! why there is no parallel executor.

mod exec;
mod soa;

use std::collections::{BinaryHeap, HashMap, VecDeque};

use serde::Serialize;
use sim_core::cancel::{CancelCause, Interrupt};
use sim_core::invariant;
use sim_core::stats::Histogram;
use sim_core::telemetry::{Registry, SeriesHistogram};

use crate::energy::EnergyCounters;
use crate::faults::{FaultLayer, MeshDiagnostic, MeshFaultConfig, MeshFaultStats};
use crate::flit::{Flit, Packet};
use crate::memif::{MemIf, MemifConfig, MemifStats};
use crate::router::{Port, NUM_PORTS};
use crate::topology::{NodeCoord, Topology};

/// Routing policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum RoutingPolicy {
    /// Dimension-order: X first, then Y. Deadlock-free.
    Xy,
    /// Minimal adaptive under the west-first turn model: westward packets
    /// route west first; otherwise the less-occupied minimal port is chosen.
    /// Deadlock-free (west-first) and the paper's "minimal adaptive".
    MinimalAdaptive,
}

/// Mesh configuration.
#[derive(Debug, Clone, Copy, Serialize)]
pub struct MeshConfig {
    /// Topology and memory-interface placement.
    pub topology: Topology,
    /// Cycles to route a header in each router (`t_r`; paper: 1).
    pub t_r: u64,
    /// Routing policy.
    pub policy: RoutingPolicy,
    /// Memory-interface configuration (shared by all interfaces).
    pub memif: MemifConfig,
    /// Input buffer depth in flits (paper: 2).
    pub buffer_depth: usize,
    /// Watchdog: abort after this many cycles.
    pub max_cycles: u64,
    /// Worker threads requested for the run. The executor is sequential
    /// (DESIGN.md §11), so results never depend on this knob; a request
    /// above 1 runs on one thread and is reported as
    /// [`RunWarning::SequentialOnly`] in [`MeshRunResult::warnings`].
    pub threads: usize,
}

impl MeshConfig {
    /// The paper's baseline mesh parameters over a 64-node single-corner
    /// square: `t_r = 1`, XY-capable minimal adaptive routing, 2-flit
    /// buffers, ideal DRAM. Refine with the `with_*` builders:
    ///
    /// ```
    /// use emesh::mesh::{MeshConfig, RoutingPolicy};
    /// let cfg = MeshConfig::paper_default()
    ///     .with_buffers(4)
    ///     .with_policy(RoutingPolicy::Xy);
    /// assert_eq!(cfg.buffer_depth, 4);
    /// ```
    pub fn paper_default() -> Self {
        MeshConfig {
            topology: Topology::square(64, crate::topology::MemifPlacement::SingleCorner),
            t_r: 1,
            policy: RoutingPolicy::MinimalAdaptive,
            memif: MemifConfig::default(),
            buffer_depth: crate::router::Router::BUFFER_DEPTH,
            max_cycles: 1 << 36,
            threads: 1,
        }
    }

    /// The paper's Table III setup for `n` processors: minimal adaptive,
    /// `t_r = 1`, single memory port, ideal DRAM, given `t_p`.
    pub fn table3(n: usize, t_p: u64) -> Self {
        MeshConfig::paper_default()
            .with_topology(Topology::square(
                n,
                crate::topology::MemifPlacement::SingleCorner,
            ))
            .with_memif(MemifConfig {
                t_p,
                ..Default::default()
            })
    }

    /// Replace the topology (and memory-interface placement).
    #[must_use]
    pub fn with_topology(mut self, topology: Topology) -> Self {
        self.topology = topology;
        self
    }

    /// Set the per-router header routing latency `t_r`.
    #[must_use]
    pub fn with_t_r(mut self, t_r: u64) -> Self {
        self.t_r = t_r;
        self
    }

    /// Set the routing policy.
    #[must_use]
    pub fn with_policy(mut self, policy: RoutingPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Replace the memory-interface configuration.
    #[must_use]
    pub fn with_memif(mut self, memif: MemifConfig) -> Self {
        self.memif = memif;
        self
    }

    /// Set the input buffer depth in flits.
    #[must_use]
    pub fn with_buffers(mut self, buffer_depth: usize) -> Self {
        self.buffer_depth = buffer_depth;
        self
    }

    /// Set the watchdog cycle limit.
    #[must_use]
    pub fn with_max_cycles(mut self, max_cycles: u64) -> Self {
        self.max_cycles = max_cycles;
        self
    }

    /// Set the requested worker-thread count (clamped to ≥ 1). The run
    /// itself is always sequential; see [`MeshConfig::threads`].
    #[must_use]
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads.max(1);
        self
    }
}

/// Errors from a mesh run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MeshError {
    /// No wakeups pending but traffic remains: a routing deadlock.
    Deadlock {
        /// Cycle at which progress stopped.
        at_cycle: u64,
        /// Flits still buffered in the network.
        in_flight: u64,
    },
    /// The watchdog cycle limit was exceeded.
    CycleLimit {
        /// The limit.
        limit: u64,
    },
    /// Traffic is pending and wakeups keep firing, but no flit has moved
    /// for the fault layer's watchdog window: a livelock (e.g. senders
    /// probing a hard-killed router forever). Carries a structured dump of
    /// where everything is stuck instead of hanging.
    NoProgress {
        /// Cycle at which the watchdog gave up.
        at_cycle: u64,
        /// The diagnostic dump.
        report: Box<MeshDiagnostic>,
    },
    /// A packet was injected at a node id outside the topology.
    BadInjection {
        /// The offending node id.
        node: u32,
        /// Number of nodes in the mesh.
        nodes: usize,
    },
    /// A packet was addressed to a node id outside the topology.
    BadDestination {
        /// The offending destination node id.
        dest: u32,
        /// Number of nodes in the mesh.
        nodes: usize,
    },
    /// A collective was asked for with fewer than two participating
    /// (non-memory-interface) nodes or an empty payload, so it has no
    /// traffic to schedule.
    BadCollective {
        /// Non-memory-interface nodes of the topology.
        participants: usize,
        /// Payload words per block that were asked for.
        words: usize,
    },
    /// A packet was injected at a hard-killed router.
    DeadNode {
        /// The offending node id.
        node: u32,
        /// Cycle the router died.
        killed_at: u64,
    },
    /// The run was interrupted by the installed [`sim_core::cancel::Interrupt`]
    /// (token, deadline, or deterministic cycle bound). Carries the partial
    /// progress reached, so a supervisor can report how far the run got.
    /// The mesh itself is left mid-flight; cancelled runs are not resumable
    /// — re-run from a fresh or [`Mesh::reset`] mesh (determinism makes
    /// the rerun exact).
    Cancelled {
        /// The serviced cycle the interrupt fired at.
        at_cycle: u64,
        /// Which interrupt source fired.
        cause: CancelCause,
        /// Flits still buffered in the network at cancellation.
        in_flight: u64,
        /// Flits still queued for injection at cancellation.
        pending_inject: u64,
        /// Energy counters accumulated up to cancellation.
        energy: EnergyCounters,
    },
}

impl std::fmt::Display for MeshError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MeshError::Deadlock {
                at_cycle,
                in_flight,
            } => {
                write!(
                    f,
                    "mesh deadlocked at cycle {at_cycle} with {in_flight} flits in flight"
                )
            }
            MeshError::CycleLimit { limit } => write!(f, "mesh exceeded {limit} cycles"),
            MeshError::NoProgress { at_cycle, report } => {
                write!(
                    f,
                    "mesh livelocked (no flit movement) at cycle {at_cycle}: \
                     {} in flight, {} pending injection, {} pending retransmits, \
                     killed routers {:?}; stuck routers (id, flits): {:?}; \
                     fault stats: {:?}",
                    report.in_flight,
                    report.pending_inject,
                    report.pending_retransmits,
                    report.killed_routers,
                    report.stuck_routers,
                    report.stats,
                )
            }
            MeshError::BadInjection { node, nodes } => {
                write!(f, "injection at node {node} outside the {nodes}-node mesh")
            }
            MeshError::BadDestination { dest, nodes } => {
                write!(
                    f,
                    "packet addressed to node {dest} outside the {nodes}-node mesh"
                )
            }
            MeshError::BadCollective {
                participants,
                words,
            } => write!(
                f,
                "collective needs at least two participating (non-memif) nodes \
                 and one payload word, got {participants} participants and \
                 {words} words"
            ),
            MeshError::DeadNode { node, killed_at } => {
                write!(
                    f,
                    "injection at node {node}, which was hard-killed at cycle {killed_at}"
                )
            }
            MeshError::Cancelled {
                at_cycle,
                cause,
                in_flight,
                pending_inject,
                ..
            } => write!(
                f,
                "mesh run Cancelled at cycle {at_cycle} ({cause}); \
                 {in_flight} flits in flight, {pending_inject} pending injection"
            ),
        }
    }
}

impl std::error::Error for MeshError {}

/// A non-fatal condition the scheduler wants the caller to know about.
/// Warnings are deterministic functions of the configuration (never of the
/// host machine), so they are safe to include in golden fingerprints.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum RunWarning {
    /// More than one worker thread was requested; the executor is
    /// sequential, so the run used one.
    SequentialOnly {
        /// Threads requested via [`MeshConfig::threads`].
        requested: usize,
    },
}

impl std::fmt::Display for RunWarning {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RunWarning::SequentialOnly { requested } => write!(
                f,
                "requested {requested} threads; the mesh executor is sequential \
                 and ran on 1"
            ),
        }
    }
}

/// Result of running a mesh workload to completion.
#[derive(Debug, Clone)]
pub struct MeshRunResult {
    /// Cycle at which everything (network + staging + DRAM) drained.
    pub cycles: u64,
    /// Energy counters accumulated over the run.
    pub energy: EnergyCounters,
    /// Per-memory-interface statistics.
    pub memif_stats: Vec<MemifStats>,
    /// Per-node count of payload words delivered to processor sinks.
    pub sink_delivered: Vec<u64>,
    /// Per-node cycle of last sink delivery (0 if none).
    pub sink_last_cycle: Vec<u64>,
    /// Packet latency histogram (inject→tail-eject, cycles), if tracking
    /// was enabled with [`Mesh::track_latency`].
    pub latency: Option<Histogram>,
    /// Per-router flit-forward counts — a congestion heatmap. The hotspot
    /// (§V-C: "an unavoidable bottleneck at the memory interface") shows up
    /// as the maximum, at the memory-interface router.
    pub router_forwards: Vec<u64>,
    /// Fault-layer counters, if a fault layer was attached.
    pub faults: Option<MeshFaultStats>,
    /// Non-fatal scheduler warnings (e.g. an unused thread request).
    /// Always deterministic for a given configuration.
    pub warnings: Vec<RunWarning>,
}

#[derive(PartialEq, Eq)]
struct Wake {
    cycle: u64,
    seq: u64,
    router: u32,
}

impl Ord for Wake {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Min-heap by (cycle, seq).
        other
            .cycle
            .cmp(&self.cycle)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}
impl PartialOrd for Wake {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// Bucketed timing wheel of router wakeups.
///
/// Cycles within [`WakeWheel::WINDOW`] of the wheel cursor land in a ring
/// of per-cycle buckets; each bucket is a plain `Vec<u32>` of router ids in
/// insertion order, so draining a bucket front-to-back reproduces the
/// (cycle, seq) order the old global `BinaryHeap` produced — with O(1)
/// unordered appends instead of O(log n) sift-ups. Cycles at or beyond the
/// window (rare: nothing in the simulator wakes more than `t_r`/`t_p` + 1
/// cycles ahead) spill into a seq-stamped overflow heap and are merged to
/// the *front* of their bucket on arrival; front is correct because the
/// cursor is monotone, so every overflow push for a cycle predates every
/// direct push for it.
struct WakeWheel {
    buckets: Vec<Vec<u32>>,
    /// Per router, bit `cycle % WINDOW` set while the router has an entry
    /// in that cycle's bucket (set by the first push, cleared by
    /// [`WakeWheel::drained`]).
    queued: Vec<u64>,
    /// Cycle the wheel is positioned at; bucket `cursor % WINDOW` holds it.
    cursor: u64,
    /// Total entries across all buckets (not counting the overflow heap).
    bucket_pending: u64,
    overflow: BinaryHeap<Wake>,
    seq: u64,
}

// Every in-window cycle needs its own bit of a router's `queued` mask.
const _: () = assert!(WakeWheel::WINDOW <= u64::BITS as u64);

impl WakeWheel {
    /// Ring size in cycles. Power of two; must exceed the longest
    /// self-rearm distance (`1 + max(t_r, t_p)` in practice — the overflow
    /// heap keeps correctness for configs beyond it).
    const WINDOW: u64 = 64;

    fn new(routers: usize) -> Self {
        WakeWheel {
            buckets: (0..Self::WINDOW).map(|_| Vec::new()).collect(),
            queued: vec![0; routers],
            cursor: 0,
            bucket_pending: 0,
            overflow: BinaryHeap::new(),
            seq: 0,
        }
    }

    /// Empty the wheel and rewind it to cycle 0, keeping its allocations.
    fn clear(&mut self) {
        for b in &mut self.buckets {
            b.clear();
        }
        self.queued.fill(0);
        self.cursor = 0;
        self.bucket_pending = 0;
        self.overflow.clear();
        self.seq = 0;
    }

    /// Queue `router` at `cycle`, unless it is already bucketed there: the
    /// duplicate would pop as a no-op after the first entry serviced the
    /// router. Only exact duplicates go — a stronger-looking "skip if any
    /// earlier wake is pending" rule re-pushes the pair later and reorders
    /// same-cycle service.
    #[inline]
    fn push(&mut self, router: u32, cycle: u64) {
        debug_assert!(cycle >= self.cursor, "wakeup in the past");
        if cycle - self.cursor < Self::WINDOW {
            let bit = 1u64 << (cycle % Self::WINDOW);
            let queued = &mut self.queued[router as usize];
            if *queued & bit != 0 {
                return;
            }
            *queued |= bit;
            self.buckets[(cycle % Self::WINDOW) as usize].push(router);
            self.bucket_pending += 1;
        } else {
            self.overflow.push(Wake {
                cycle,
                seq: self.seq,
                router,
            });
            self.seq += 1;
        }
    }

    /// Earliest cycle ≥ cursor holding any wakeup, or `None` when drained.
    fn next_cycle(&self) -> Option<u64> {
        let mut best: Option<u64> = None;
        if self.bucket_pending > 0 {
            for off in 0..Self::WINDOW {
                let c = self.cursor + off;
                if !self.buckets[(c % Self::WINDOW) as usize].is_empty() {
                    best = Some(c);
                    break;
                }
            }
            debug_assert!(best.is_some(), "pending entries must be in-window");
        }
        if let Some(w) = self.overflow.peek() {
            best = Some(best.map_or(w.cycle, |b| b.min(w.cycle)));
        }
        best
    }

    /// `router`'s entry in the bucket of `cycle` has been drained: a wake
    /// at `cycle % WINDOW` now belongs to a later lap of the ring.
    #[inline]
    fn drained(&mut self, router: usize, cycle: u64) {
        self.queued[router] &= !(1u64 << (cycle % Self::WINDOW));
    }

    /// Move the cursor to `c` and merge any overflow entries for `c` in
    /// front of the direct-push entries already bucketed for it.
    fn advance_to(&mut self, c: u64) {
        debug_assert!(c >= self.cursor);
        self.cursor = c;
        if self.overflow.peek().is_none_or(|w| w.cycle != c) {
            return;
        }
        let b = (c % Self::WINDOW) as usize;
        let mut merged: Vec<u32> = Vec::new();
        while let Some(w) = self.overflow.peek() {
            debug_assert!(w.cycle >= c, "overflow entry skipped");
            if w.cycle != c {
                break;
            }
            merged.push(self.overflow.pop().expect("peeked").router);
        }
        self.bucket_pending += merged.len() as u64;
        merged.append(&mut self.buckets[b]);
        self.buckets[b] = merged;
    }
}

/// The mesh simulator.
pub struct Mesh {
    cfg: MeshConfig,
    /// All router port state, structure-of-arrays (see `mesh/soa.rs`).
    slab: soa::RouterSlab,
    /// Neighbour across each port, flattened `router * NUM_PORTS + port`
    /// ([`NO_LINK`] past a mesh edge and on `Local`).
    links: Vec<u32>,
    /// Coordinate of each router.
    coords: Vec<NodeCoord>,
    /// Pre-flitted injection stream per node.
    inject: Vec<VecDeque<Flit>>,
    memif_slot: Vec<Option<u32>>,
    memifs: Vec<MemIf>,
    sink_delivered: Vec<u64>,
    sink_last_cycle: Vec<u64>,
    sink_words: Vec<Vec<u64>>,
    /// Whether sinks retain delivered payload words (tests) or just count.
    collect_sink_words: bool,
    /// Packet-latency tracking: inject cycle of each packet id whose head
    /// is in the network and whose tail is not yet out (filled only while
    /// `latency` is attached).
    inject_cycle: HashMap<u64, u64>,
    latency: Option<Histogram>,
    wheel: WakeWheel,
    /// Last cycle each router was processed (a router runs at most once per
    /// cycle; duplicate overflow entries pop as no-ops).
    processed_at: Vec<u64>,
    in_flight: u64,
    pending_inject: u64,
    energy: EnergyCounters,
    router_forwards: Vec<u64>,
    now: u64,
    /// Fault-injection layer; `None` (the default) leaves every hot path
    /// untouched and the simulation bit-identical to the fault-free build.
    faults: Option<FaultLayer>,
    /// Telemetry layer; `None` (the default) costs one hoisted `is_some()`
    /// per service batch and nothing per flit. Boxed so the hot struct
    /// stays small and the mesh stays `Send` for rayon'd sweeps.
    telemetry: Option<Box<MeshTelemetry>>,
    /// Watchdog: flit-movement odometer at the last observed change, and
    /// the cycle it changed.
    progress_metric: u64,
    progress_cycle: u64,
    /// Cooperative interrupt, polled once per serviced cycle. `None` (the
    /// default) costs one branch per serviced cycle and keeps the run
    /// bit-identical to a build without the feature.
    interrupt: Option<Interrupt>,
}

const NEVER: u64 = u64::MAX;

/// A missing neighbour in the link table.
const NO_LINK: u32 = u32::MAX;

/// The link table of `t`: entry `node * NUM_PORTS + port` is the node
/// across `port`, wrapping on a torus, or [`NO_LINK`] past a mesh edge and
/// on `Local`.
fn link_table(t: &Topology) -> Vec<u32> {
    let (w, h) = (i64::from(t.width), i64::from(t.height));
    let mut links = vec![NO_LINK; t.nodes() * NUM_PORTS];
    for node in 0..t.nodes() as u32 {
        let c = t.coord(node);
        for port in [Port::North, Port::East, Port::South, Port::West] {
            let (dx, dy) = match port {
                Port::North => (0, -1),
                Port::East => (1, 0),
                Port::South => (0, 1),
                Port::West => (-1, 0),
                Port::Local => unreachable!("local has no neighbor"),
            };
            let (x, y) = (i64::from(c.x) + dx, i64::from(c.y) + dy);
            let (x, y) = if t.torus {
                (x.rem_euclid(w), y.rem_euclid(h))
            } else if (0..w).contains(&x) && (0..h).contains(&y) {
                (x, y)
            } else {
                continue;
            };
            links[node as usize * NUM_PORTS + port as usize] = t.id(NodeCoord {
                x: x as u32,
                y: y as u32,
            });
        }
    }
    links
}

/// Serviced cycles between throttled flit-conservation audits (the audit
/// is O(nodes); hot-site checks are O(1) every cycle).
const AUDIT_INTERVAL: u64 = 1024;

/// Telemetry scratch carried by an instrumented mesh: the registry plus
/// raw per-router accumulators flushed into it at the end of each run.
///
/// Timebase: trace timestamps render one mesh cycle as one microsecond.
#[derive(Debug)]
struct MeshTelemetry {
    registry: Registry,
    /// First cycle each router was serviced ([`NEVER`] = never).
    first_active: Vec<u64>,
    /// Last cycle each router was serviced.
    last_active: Vec<u64>,
    /// Input-buffer occupancy (flits across all ports) sampled at each
    /// router service.
    occupancy: SeriesHistogram,
}

impl Mesh {
    /// Build an idle mesh.
    pub fn new(cfg: MeshConfig) -> Self {
        let n = cfg.topology.nodes();
        let mut memif_slot = vec![None; n];
        let mut memifs = Vec::new();
        for m in cfg.topology.memif_nodes() {
            memif_slot[m as usize] = Some(memifs.len() as u32);
            memifs.push(MemIf::new(cfg.memif));
        }
        Mesh {
            slab: soa::RouterSlab::new(n, cfg.buffer_depth),
            links: link_table(&cfg.topology),
            coords: (0..n as u32).map(|id| cfg.topology.coord(id)).collect(),
            cfg,
            inject: vec![VecDeque::new(); n],
            memif_slot,
            memifs,
            sink_delivered: vec![0; n],
            sink_last_cycle: vec![0; n],
            sink_words: vec![Vec::new(); n],
            collect_sink_words: false,
            inject_cycle: HashMap::new(),
            latency: None,
            wheel: WakeWheel::new(n),
            processed_at: vec![NEVER; n],
            in_flight: 0,
            pending_inject: 0,
            energy: EnergyCounters::default(),
            router_forwards: vec![0; n],
            now: 0,
            faults: None,
            telemetry: None,
            progress_metric: 0,
            progress_cycle: 0,
            interrupt: None,
        }
    }

    /// Return the mesh to the state [`Mesh::new`] builds from its
    /// configuration, keeping its allocations: time rewinds to cycle 0,
    /// every buffer, queue, counter and memory interface empties, and the
    /// fault layer, telemetry, interrupt, latency tracking and sink-word
    /// collection are detached as on a fresh mesh. A reset mesh runs any
    /// workload exactly as a fresh one does, whether its last run drained,
    /// deadlocked or was cancelled.
    pub fn reset(&mut self) {
        self.slab.clear();
        for q in &mut self.inject {
            q.clear();
        }
        for m in &mut self.memifs {
            *m = MemIf::new(self.cfg.memif);
        }
        self.sink_delivered.fill(0);
        self.sink_last_cycle.fill(0);
        for w in &mut self.sink_words {
            w.clear();
        }
        self.collect_sink_words = false;
        self.inject_cycle.clear();
        self.latency = None;
        self.wheel.clear();
        self.processed_at.fill(NEVER);
        self.in_flight = 0;
        self.pending_inject = 0;
        self.energy = EnergyCounters::default();
        self.router_forwards.fill(0);
        self.now = 0;
        self.faults = None;
        self.telemetry = None;
        self.progress_metric = 0;
        self.progress_cycle = 0;
        self.interrupt = None;
    }

    /// Install a cooperative [`Interrupt`]: the run loop polls it once per
    /// serviced cycle and aborts with [`MeshError::Cancelled`] (carrying
    /// the cycle reached and partial progress counters) when a source
    /// fires. Replaces any earlier interrupt. With no interrupt installed
    /// the poll site is a single `None` branch — results stay
    /// bit-identical and the perf gate sees no regression.
    pub fn set_interrupt(&mut self, interrupt: Interrupt) {
        self.interrupt = Some(interrupt);
    }

    /// Remove the installed interrupt, restoring the zero-cost path.
    pub fn clear_interrupt(&mut self) {
        self.interrupt = None;
    }

    /// Attach (or replace) a telemetry registry. Costs nothing on the hot
    /// path beyond one `is_some()` per service batch; all series and spans
    /// are flushed into the registry when [`Mesh::run`] completes. Metric
    /// names follow `emesh.component.metric`; trace timestamps map one
    /// cycle to one microsecond.
    pub fn enable_telemetry(&mut self) {
        let n = self.cfg.topology.nodes();
        self.telemetry = Some(Box::new(MeshTelemetry {
            registry: Registry::new(),
            first_active: vec![NEVER; n],
            last_active: vec![0; n],
            occupancy: SeriesHistogram::default(),
        }));
        for m in &mut self.memifs {
            m.enable_telemetry();
        }
    }

    /// The telemetry registry, if attached (populated after [`Mesh::run`]).
    pub fn telemetry(&self) -> Option<&Registry> {
        self.telemetry.as_ref().map(|t| &t.registry)
    }

    /// Detach and return the telemetry registry (e.g. to merge it into an
    /// experiment-wide registry).
    pub fn take_telemetry(&mut self) -> Option<Registry> {
        self.telemetry.take().map(|t| t.registry)
    }

    /// Attach (or replace) the fault-injection layer. With all rates zero
    /// and no kills the attached layer never perturbs the simulation.
    pub fn enable_faults(&mut self, cfg: MeshFaultConfig) {
        self.faults = Some(FaultLayer::new(cfg, self.cfg.topology.nodes()));
    }

    /// The fault layer, if attached.
    pub fn faults(&self) -> Option<&FaultLayer> {
        self.faults.as_ref()
    }

    /// Retain delivered payload words at processor sinks (for tests /
    /// correctness checks; costs memory on large runs).
    pub fn collect_sink_words(&mut self, yes: bool) {
        self.collect_sink_words = yes;
    }

    /// Record per-packet inject→eject latency into a histogram
    /// (`bucket_width` cycles per bucket).
    pub fn track_latency(&mut self, bucket_width: u64, buckets: usize) {
        self.inject_cycle.clear();
        self.latency = Some(Histogram::new(bucket_width, buckets));
    }

    /// Queue `packet` for injection at `node` (flits leave in FIFO order,
    /// one per cycle at best).
    ///
    /// Asserting wrapper over [`Mesh::try_inject_packet`].
    ///
    /// # Panics
    /// Panics on an out-of-range node or destination id, or a hard-killed
    /// node; use [`Mesh::try_inject_packet`] for a structured error
    /// instead.
    pub fn inject_packet(&mut self, node: u32, packet: &Packet) {
        self.try_inject_packet(node, packet)
            .expect("inject_packet: invalid node, invalid destination or dead node");
    }

    /// Queue `packet` for injection at `node`, rejecting invalid targets.
    ///
    /// Injection may happen between [`Mesh::run`] calls: the node wakes at
    /// the *current* cycle, or the next one if it was already serviced this
    /// cycle (a same-cycle wake would pop as already-processed and the new
    /// traffic would falsely deadlock).
    ///
    /// # Errors
    /// [`MeshError::BadInjection`] if `node` is outside the topology;
    /// [`MeshError::BadDestination`] if `packet.dest` is (routing toward
    /// it would index past the router tables or circle a torus forever);
    /// [`MeshError::DeadNode`] if `node` is a router already hard-killed
    /// (its injector will never run, so the packet would silently wedge
    /// the mesh).
    pub fn try_inject_packet(&mut self, node: u32, packet: &Packet) -> Result<(), MeshError> {
        let nodes = self.cfg.topology.nodes();
        if node as usize >= nodes {
            return Err(MeshError::BadInjection { node, nodes });
        }
        if packet.dest as usize >= nodes {
            return Err(MeshError::BadDestination {
                dest: packet.dest,
                nodes,
            });
        }
        if let Some(fl) = &self.faults {
            if let Some(at) = fl.killed_at(node) {
                if at <= self.now {
                    return Err(MeshError::DeadNode {
                        node,
                        killed_at: at,
                    });
                }
            }
        }
        let flits = packet.flits();
        self.pending_inject += flits.len() as u64;
        self.inject[node as usize].extend(flits);
        let at = if self.processed_at[node as usize] == self.now {
            self.now + 1
        } else {
            self.now
        };
        self.wheel.push(node, at);
        Ok(())
    }

    /// The configuration.
    pub fn config(&self) -> &MeshConfig {
        &self.cfg
    }

    /// Payload words delivered to node sinks (only if collection enabled).
    pub fn sink_words(&self, node: u32) -> &[u64] {
        &self.sink_words[node as usize]
    }

    /// Flit conservation (DESIGN.md §12): `in_flight` counts exactly the
    /// flits resident in router input buffers — every injected flit is in
    /// some buffer until ejected, nowhere else, and never twice. Compiled
    /// out unless [`sim_core::invariants::ENABLED`].
    fn check_flit_conservation(&self) {
        if !sim_core::invariants::ENABLED {
            return;
        }
        let resident: u64 = (0..self.slab.routers())
            .map(|r| self.slab.occupancy(r) as u64)
            .sum();
        invariant!(
            resident == self.in_flight,
            "flit conservation: {resident} flits resident in buffers vs in_flight {}",
            self.in_flight
        );
    }

    /// Re-inject every NACKed element whose turnaround has elapsed by `c`.
    fn drain_due_retransmits(&mut self, c: u64) {
        loop {
            let Some(fl) = self.faults.as_mut() else {
                return;
            };
            if fl.retx.front().is_none_or(|rt| rt.due > c) {
                return;
            }
            let rt = fl.retx.pop_front().expect("checked");
            if fl.is_dead(rt.src, c) {
                // The source died while the NACK was in flight.
                fl.stats.dropped_elements += 1;
                continue;
            }
            self.try_inject_packet(rt.src, &rt.packet)
                .expect("liveness just checked");
        }
    }

    /// Watchdog: with traffic pending and no flit movement for the
    /// configured window, abort with a structured diagnostic. Only called
    /// when a fault layer is attached.
    fn watchdog_check(&mut self, c: u64) -> Result<(), MeshError> {
        let metric = self.energy.injections + self.energy.router_traversals + self.energy.ejections;
        if metric != self.progress_metric {
            self.progress_metric = metric;
            self.progress_cycle = c;
            return Ok(());
        }
        let fl = self.faults.as_ref().expect("gated on faults");
        let pending = self.pending_inject + self.in_flight + fl.retx.len() as u64;
        if pending > 0 && c - self.progress_cycle >= fl.cfg.watchdog_cycles {
            return Err(MeshError::NoProgress {
                at_cycle: c,
                report: Box::new(self.diagnostic(c)),
            });
        }
        Ok(())
    }

    /// Structured dump of where traffic is stuck.
    fn diagnostic(&self, c: u64) -> MeshDiagnostic {
        let fl = self.faults.as_ref().expect("fault layer attached");
        MeshDiagnostic {
            killed_routers: fl.dead_routers(c),
            in_flight: self.in_flight,
            pending_inject: self.pending_inject,
            pending_retransmits: fl.retx.len() as u64,
            stuck_routers: (0..self.slab.routers())
                .filter(|&i| !self.slab.is_empty(i))
                .map(|i| (i as u32, self.slab.occupancy(i) as u32))
                .collect(),
            stats: fl.stats,
        }
    }

    /// Shared end-of-run epilogue: deadlock detection, DRAM drain
    /// accounting, telemetry flush, result assembly.
    fn finish(&mut self) -> Result<MeshRunResult, MeshError> {
        let pending_retx = self.faults.as_ref().map_or(0, |fl| fl.retx.len() as u64);
        if self.pending_inject > 0 || self.in_flight > 0 || pending_retx > 0 {
            return Err(MeshError::Deadlock {
                at_cycle: self.now,
                in_flight: self.in_flight + self.pending_inject + pending_retx,
            });
        }
        // Full end-of-run audit: with in_flight = 0, conservation means
        // every router buffer drained; and every staged element is
        // accounted for at each memory interface.
        self.check_flit_conservation();
        if sim_core::invariants::ENABLED {
            for m in &self.memifs {
                m.check_conservation();
            }
        }
        // Account DRAM drain beyond the last network event.
        let mut done = self.now;
        let memif_stats: Vec<MemifStats> = self.memifs.iter().map(|m| m.stats()).collect();
        for s in &memif_stats {
            done = done.max(s.dram_done);
        }
        if self.telemetry.is_some() {
            self.flush_telemetry(done);
        }
        Ok(MeshRunResult {
            cycles: done,
            energy: self.energy,
            memif_stats,
            sink_delivered: self.sink_delivered.clone(),
            sink_last_cycle: self.sink_last_cycle.clone(),
            latency: self.latency.clone(),
            router_forwards: self.router_forwards.clone(),
            faults: self.faults.as_ref().map(|fl| fl.stats),
            warnings: if self.cfg.threads > 1 {
                vec![RunWarning::SequentialOnly {
                    requested: self.cfg.threads,
                }]
            } else {
                Vec::new()
            },
        })
    }

    /// Publish end-of-run series and spans into the attached registry.
    /// Counters are written with absolute `counter_set` semantics so a
    /// repeated `run()` (mid-run injection workloads) republishes totals
    /// instead of double-counting.
    fn flush_telemetry(&mut self, done: u64) {
        let tel = self.telemetry.as_ref().expect("checked by caller");
        let reg = &tel.registry;
        let n = self.cfg.topology.nodes();
        reg.counter_set("emesh.mesh.cycles", done);
        reg.counter_set("emesh.mesh.injections", self.energy.injections);
        reg.counter_set("emesh.mesh.ejections", self.energy.ejections);
        reg.counter_set("emesh.mesh.link_hops", self.energy.link_hops);
        reg.counter_set(
            "emesh.mesh.router_traversals",
            self.energy.router_traversals,
        );
        // Mean fraction of the mesh's directed links (4 per router) busy
        // per cycle — the aggregate the paper's §V-C contention argument
        // is about.
        let util = if done == 0 {
            0.0
        } else {
            self.energy.link_hops as f64 / (done as f64 * n as f64 * 4.0)
        };
        reg.gauge_set("emesh.link.utilization", util);
        reg.histogram_set_labeled("emesh.router.occupancy", &[], tel.occupancy.clone());
        for (i, &fwd) in self.router_forwards.iter().enumerate() {
            let label = [("node", i.to_string())];
            reg.counter_set_labeled("emesh.router.forwards", &label, fwd);
            if tel.first_active[i] != NEVER {
                reg.span(
                    "emesh",
                    &format!("router {i}"),
                    "active",
                    tel.first_active[i] as f64,
                    (tel.last_active[i] - tel.first_active[i] + 1) as f64,
                    &[("forwards", fwd.to_string())],
                );
            }
        }
        for (slot, node) in self.cfg.topology.memif_nodes().iter().enumerate() {
            let m = &self.memifs[slot];
            let label = [("node", node.to_string())];
            let s = m.stats();
            reg.counter_set_labeled("emesh.memif.flits_accepted", &label, s.flits_accepted);
            reg.counter_set_labeled("emesh.memif.elements", &label, s.elements);
            reg.counter_set_labeled("emesh.memif.rows_written", &label, s.rows_written);
            reg.counter_set_labeled("emesh.memif.nacks", &label, s.nacked);
            let d = m.dram_stats();
            reg.counter_set_labeled("emesh.dram.row_hits", &label, d.hits);
            reg.counter_set_labeled("emesh.dram.row_misses", &label, d.misses);
            reg.counter_set_labeled("emesh.dram.row_conflicts", &label, d.conflicts);
            if let Some(mt) = m.telemetry() {
                reg.histogram_set_labeled(
                    "emesh.memif.staging_depth",
                    &label,
                    mt.staging_depth.clone(),
                );
                let track = format!("memif {node}");
                for &(start, end, row) in &mt.row_spans {
                    reg.span(
                        "emesh",
                        &track,
                        "row_write",
                        start as f64,
                        (end - start) as f64,
                        &[("row", row.to_string())],
                    );
                }
                if mt.row_spans_dropped > 0 {
                    reg.counter_set_labeled(
                        "emesh.memif.row_spans_dropped",
                        &label,
                        mt.row_spans_dropped,
                    );
                }
            }
        }
        if let Some(fl) = &self.faults {
            reg.counter_set("emesh.fault.corrupted_flits", fl.stats.corrupted_flits);
            reg.counter_set("emesh.fault.nacks", fl.stats.nacks);
            reg.counter_set("emesh.fault.retransmits", fl.stats.retransmits);
            reg.counter_set("emesh.fault.link_down_events", fl.stats.link_down_events);
            reg.counter_set("emesh.fault.dropped_elements", fl.stats.dropped_elements);
        }
    }

    /// Access a memory interface by slot for post-run inspection.
    pub fn memif(&self, slot: usize) -> &MemIf {
        &self.memifs[slot]
    }

    /// Mutable access (e.g. to flush partial rows after a run).
    pub fn memif_mut(&mut self, slot: usize) -> &mut MemIf {
        &mut self.memifs[slot]
    }

    /// Number of memory interfaces.
    pub fn memif_count(&self) -> usize {
        self.memifs.len()
    }
}

fn m_free_at(m: &MemIf, c: u64) -> u64 {
    // MemIf does not expose free_at directly; probe forward. The reorder
    // occupancy is bounded by t_p + 1, so this loop is O(t_p).
    let mut t = c + 1;
    while !m.can_accept(t) {
        t += 1;
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flit::Packet;
    use crate::topology::MemifPlacement;

    fn small_cfg(policy: RoutingPolicy) -> MeshConfig {
        MeshConfig {
            topology: Topology::square(16, MemifPlacement::SingleCorner),
            t_r: 1,
            policy,
            memif: MemifConfig::default(),
            buffer_depth: 2,
            max_cycles: 1 << 24,
            threads: 1,
        }
    }

    #[test]
    fn single_packet_latency_matches_hand_count() {
        // Node 15 (3,3) sends a 2-flit packet to a sink at node 12 (0,3):
        // 3 hops west. Head: inject at 0 (ready 2), then per hop 1 cycle
        // link + 1 cycle route. XY routing, empty network.
        let mut cfg = small_cfg(RoutingPolicy::Xy);
        cfg.topology = Topology::square(16, MemifPlacement::SingleCorner);
        let mut m = Mesh::new(cfg);
        m.collect_sink_words(true);
        m.inject_packet(15, &Packet::with_header(12, 0, vec![0xBEEF]));
        let res = m.run().unwrap();
        assert_eq!(m.sink_words(12), &[0xBEEF]);
        assert_eq!(res.sink_delivered[12], 1);
        // Head: ready at 2 after injection; each of 3 forwards lands with
        // +1 link +1 route; final ejection via local port. Tail follows one
        // cycle behind. Bound the latency tightly rather than over-specify.
        assert!(
            (6..=12).contains(&res.cycles),
            "completion at {} cycles",
            res.cycles
        );
    }

    #[test]
    fn all_nodes_to_corner_memif_drains() {
        for policy in [RoutingPolicy::Xy, RoutingPolicy::MinimalAdaptive] {
            let mut m = Mesh::new(small_cfg(policy));
            // Each node sends 32 elements covering addresses so rows fill:
            // node n sends addresses n*32..(n+1)*32 (its own row).
            for n in 0..16u32 {
                for e in 0..32u64 {
                    m.inject_packet(
                        n,
                        &Packet::with_header(0, n as u64 * 32 + e, vec![n as u64 * 32 + e]),
                    );
                }
            }
            let res = m.run().unwrap_or_else(|e| panic!("{policy:?}: {e}"));
            let s = res.memif_stats[0];
            assert_eq!(s.elements, 16 * 32, "{policy:?}");
            assert_eq!(s.rows_written, 16, "{policy:?}");
            assert!(res.cycles > 0);
        }
    }

    #[test]
    fn ejection_throughput_bounds_completion() {
        // 16 nodes x 64 elements to one corner: ejection accepts one
        // 2-flit element per (2 + t_p) cycles, so completion >= elements *
        // (2 + t_p) roughly.
        let mut m = Mesh::new(small_cfg(RoutingPolicy::MinimalAdaptive));
        for n in 0..16u32 {
            for e in 0..64u64 {
                let addr = n as u64 * 64 + e;
                m.inject_packet(n, &Packet::with_header(0, (n as u64) << 8 | e, vec![addr]));
            }
        }
        let res = m.run().unwrap();
        let elements = 16 * 64;
        assert!(res.cycles >= elements * 3 - 3);
        // And the network shouldn't be grossly slower than the port bound.
        assert!(res.cycles <= elements * 3 + 2000, "cycles = {}", res.cycles);
    }

    #[test]
    fn sink_delivery_to_all_nodes() {
        // Scatter-like: corner node 0 sends one 4-payload packet to every
        // other node (sinks). All must arrive intact.
        let mut m = Mesh::new(small_cfg(RoutingPolicy::Xy));
        m.collect_sink_words(true);
        for n in 1..16u32 {
            m.inject_packet(0, &Packet::with_header(n, n as u64, vec![n as u64; 4]));
        }
        let res = m.run().unwrap();
        for n in 1..16usize {
            assert_eq!(res.sink_delivered[n], 4, "node {n}");
            assert_eq!(m.sink_words(n as u32), &[n as u64; 4][..]);
        }
    }

    #[test]
    fn xy_and_adaptive_both_complete_under_contention() {
        // Cross traffic: every node sends to the diagonally opposite node.
        for policy in [RoutingPolicy::Xy, RoutingPolicy::MinimalAdaptive] {
            let mut cfg = small_cfg(policy);
            cfg.topology = Topology::square(16, MemifPlacement::SingleCorner);
            let mut m = Mesh::new(cfg);
            for n in 1..16u32 {
                // skip node 0 (memif)
                let dest = 15 - n;
                if dest != 0 {
                    m.inject_packet(n, &Packet::with_header(dest, n as u64, vec![n as u64; 3]));
                }
            }
            let res = m.run().unwrap_or_else(|e| panic!("{policy:?}: {e}"));
            let total: u64 = res.sink_delivered.iter().sum();
            assert_eq!(total, 14 * 3, "{policy:?}");
        }
    }

    #[test]
    fn energy_counters_accumulate() {
        let mut m = Mesh::new(small_cfg(RoutingPolicy::Xy));
        m.inject_packet(15, &Packet::with_header(0, 0, vec![1]));
        let res = m.run().unwrap();
        assert_eq!(res.energy.injections, 2);
        assert_eq!(res.energy.ejections, 2);
        // 6 hops x 2 flits inter-router, plus 2 ejection traversals.
        assert_eq!(res.energy.link_hops, 12);
        assert_eq!(res.energy.router_traversals, 14);
    }

    #[test]
    fn congestion_heatmap_peaks_at_the_memory_corner() {
        // "there is an unavoidable bottleneck at the memory interface" —
        // the memif router must forward more flits than anyone else.
        let mut m = Mesh::new(small_cfg(RoutingPolicy::MinimalAdaptive));
        for n in 1..16u32 {
            for e in 0..8u64 {
                m.inject_packet(n, &Packet::with_header(0, n as u64 * 8 + e, vec![e]));
            }
        }
        let res = m.run().unwrap();
        let max_idx = res
            .router_forwards
            .iter()
            .enumerate()
            .max_by_key(|&(_, &c)| c)
            .unwrap()
            .0;
        assert_eq!(
            max_idx, 0,
            "hotspot must be the memif corner: {:?}",
            res.router_forwards
        );
        // And the far corner is far cooler than the hotspot.
        assert!(res.router_forwards[0] > res.router_forwards[15] * 3);
    }

    #[test]
    fn latency_histogram_counts_every_packet() {
        let mut m = Mesh::new(small_cfg(RoutingPolicy::Xy));
        m.track_latency(10, 100);
        for n in 1..16u32 {
            m.inject_packet(n, &Packet::with_header(0, n as u64, vec![n as u64]));
        }
        let res = m.run().unwrap();
        let h = res.latency.expect("tracking enabled");
        assert_eq!(h.count(), 15);
        // Far corners take longer than adjacent nodes: spread > 0.
        assert!(h.max().unwrap() > h.min().unwrap());
        // Congestion toward one corner: worst latency well above the
        // uncontended 2-flit minimum.
        assert!(h.max().unwrap() >= 6);
    }

    #[test]
    fn latency_tracking_accepts_any_packet_id() {
        // Latency bookkeeping is keyed by packet id, so huge ids (and the
        // largest one) neither allocate id-sized tables nor overflow.
        for id in [1u64 << 40, u64::MAX] {
            let mut m = Mesh::new(MeshConfig::table3(16, 1));
            m.track_latency(8, 64);
            m.inject_packet(5, &Packet::with_header(0, id, vec![1]));
            let res = m.run().unwrap();
            assert_eq!(res.latency.expect("tracking enabled").count(), 1, "id {id}");
            assert!(m.inject_cycle.is_empty(), "id {id} left in flight");
        }
    }

    #[test]
    fn mid_run_injection_wakes_at_current_cycle() {
        // Inject, drain, then inject again: the second wave must wake at
        // the mesh's current cycle (not cycle 0, which is in the past once
        // the mesh has advanced) and drain to the same sinks.
        let mut m = Mesh::new(small_cfg(RoutingPolicy::Xy));
        m.collect_sink_words(true);
        m.inject_packet(15, &Packet::with_header(12, 0, vec![0xAAAA]));
        let first = m.run().unwrap();
        assert_eq!(m.sink_words(12), &[0xAAAA]);

        m.inject_packet(15, &Packet::with_header(12, 1, vec![0xBBBB]));
        m.inject_packet(3, &Packet::with_header(12, 2, vec![0xCCCC]));
        let second = m.run().unwrap();
        assert_eq!(second.sink_delivered[12], 3);
        assert!(m.sink_words(12).contains(&0xBBBB));
        assert!(m.sink_words(12).contains(&0xCCCC));
        // Time moved forward, never backward.
        assert!(second.cycles > first.cycles);
    }

    #[test]
    fn injection_after_wave_completes_does_not_deadlock() {
        // Many repeated inject+run rounds on the same node: each round's
        // wake must land at the current cycle even though the node's
        // processed_at stamp equals `now` right after a run.
        let mut m = Mesh::new(small_cfg(RoutingPolicy::MinimalAdaptive));
        let mut last = 0;
        for round in 0..5u32 {
            m.inject_packet(
                15,
                &Packet::with_header(0, round as u64, vec![round as u64]),
            );
            let res = m.run().unwrap();
            assert!(res.cycles > last, "round {round} did not advance");
            last = res.cycles;
            assert_eq!(res.memif_stats[0].flits_accepted, 2 * (round as u64 + 1));
        }
    }

    #[test]
    fn link_table_matches_topology_geometry() {
        let geometries = [
            Topology::rect(4, 3, MemifPlacement::SingleCorner),
            Topology::rect(1, 4, MemifPlacement::SingleCorner),
            Topology::rect(5, 1, MemifPlacement::SingleCorner),
            Topology::torus(4, 3, MemifPlacement::SingleCorner),
            Topology::torus(1, 4, MemifPlacement::SingleCorner),
            Topology::torus(4, 1, MemifPlacement::SingleCorner),
            Topology::torus(2, 5, MemifPlacement::SingleCorner),
            Topology::torus(5, 2, MemifPlacement::SingleCorner),
            Topology::torus(1, 1, MemifPlacement::SingleCorner),
        ];
        for t in geometries {
            let m = Mesh::new(MeshConfig::paper_default().with_topology(t));
            let (w, h) = (t.width, t.height);
            for node in 0..t.nodes() as u32 {
                let c = t.coord(node);
                assert_eq!(m.coords[node as usize], c, "{} node {node}", t.label());
                // The neighbour across each port, by wrap arithmetic on a
                // torus and with the edges cut on a mesh.
                let expected = [
                    (Port::North, (c.x, (c.y + h - 1) % h), c.y > 0),
                    (Port::East, ((c.x + 1) % w, c.y), c.x + 1 < w),
                    (Port::South, (c.x, (c.y + 1) % h), c.y + 1 < h),
                    (Port::West, ((c.x + w - 1) % w, c.y), c.x > 0),
                ];
                let at = |port: Port| m.links[node as usize * NUM_PORTS + port as usize];
                assert_eq!(at(Port::Local), NO_LINK, "{} node {node}", t.label());
                for (port, (x, y), inside) in expected {
                    let want = if t.torus || inside {
                        t.id(NodeCoord { x, y })
                    } else {
                        NO_LINK
                    };
                    assert_eq!(at(port), want, "{} node {node} {port:?}", t.label());
                    if want != NO_LINK {
                        // Links come in opposite pairs.
                        let back = m.links[want as usize * NUM_PORTS + port.opposite() as usize];
                        assert_eq!(back, node, "{} node {node} {port:?}", t.label());
                    }
                }
            }
        }
    }

    #[test]
    fn out_of_range_destination_is_a_coded_error_on_a_mesh() {
        let mut m = Mesh::new(small_cfg(RoutingPolicy::Xy));
        let err = m
            .try_inject_packet(5, &Packet::with_header(99, 0, vec![1]))
            .unwrap_err();
        assert_eq!(
            err,
            MeshError::BadDestination {
                dest: 99,
                nodes: 16
            }
        );
        assert!(err.to_string().contains("node 99"), "{err}");
        // Nothing was queued: the mesh still drains valid traffic.
        m.inject_packet(5, &Packet::with_header(0, 1, vec![2]));
        assert_eq!(m.run().unwrap().energy.injections, 2);
    }

    #[test]
    fn out_of_range_destination_is_a_coded_error_on_a_torus() {
        let mut cfg = small_cfg(RoutingPolicy::MinimalAdaptive);
        cfg.topology = Topology::torus(4, 4, MemifPlacement::SingleCorner);
        let mut m = Mesh::new(cfg.with_max_cycles(1 << 16));
        let err = m
            .try_inject_packet(5, &Packet::with_header(16, 0, vec![1]))
            .unwrap_err();
        assert_eq!(
            err,
            MeshError::BadDestination {
                dest: 16,
                nodes: 16
            }
        );
        m.inject_packet(5, &Packet::with_header(0, 1, vec![2]));
        assert_eq!(m.run().unwrap().energy.injections, 2);
    }

    #[test]
    fn deterministic_repeat_runs() {
        let run = || {
            let mut m = Mesh::new(small_cfg(RoutingPolicy::MinimalAdaptive));
            for n in 0..16u32 {
                for e in 0..8u64 {
                    m.inject_packet(
                        n,
                        &Packet::with_header(0, n as u64 * 8 + e, vec![n as u64 * 8 + e]),
                    );
                }
            }
            m.run().unwrap().cycles
        };
        assert_eq!(run(), run());
    }
}
