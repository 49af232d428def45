//! The photonic bus executing SCA / SCA⁻¹.
//!
//! The simulator is built on the physical picture of paper Fig. 4. The clock
//! wavelength `λ_c` launches numbered wavefronts down the waveguide; the
//! data wavelength `λ_d` co-propagates. A node that modulates `λ_d` aligned
//! to its *locally detected* clock edge `k` imprints its bits onto global
//! wavefront `k`, because clock and data travel at the same speed. Hence:
//!
//! * Slot ownership is per *wavefront index*, not per absolute time — two
//!   nodes may modulate simultaneously in absolute time (the paper's `t_4`)
//!   as long as they own different wavefronts.
//! * A collision is two nodes imprinting the same wavefront.
//! * The terminus photodiode sees wavefront `k` at
//!   `origin + k·period + flight(bus end) + response`, so a CP set that
//!   covers a contiguous slot range synthesizes a gap-free burst "as if from
//!   a single source".
//!
//! Every observable therefore follows from slot indices, and the simulator
//! needs no event queue. Each operation is one pass over the CPs' runs, in
//! node order, and works per run rather than per word:
//!
//! * a gather makes one ownership pass. A node's timing error shifts each
//!   of its `Drive` runs by the same number of wavefronts; slots shifted
//!   before wavefront 0 are clipped (lost, words and all), and the rest of
//!   the run is copied onto its wavefronts when none of them is owned yet.
//!   Arrival times are the closed forms above for the lowest and highest
//!   owned wavefront. A run that lands on an owned wavefront is a
//!   collision, and only then are claims resolved one by one: each
//!   wavefront keeps its earliest claim — modulation instant, then
//!   scheduling order — and the earliest *losing* claim is reported, the
//!   one a replay of all modulations in time order would hit first;
//! * a scatter copies each `Listen` run straight out of the burst, and a
//!   node completes when its tap detects its last wavefront.
//!
//! `tests/bus_oracle.rs` checks both against exactly that time-ordered
//! replay, on random CP sets with random per-node timing errors.

use photonics::clock::PhotonicClock;
use photonics::waveguide::{flight_time_mm, ChipLayout};
use photonics::wdm::WavelengthPlan;
use sim_core::invariant;
use sim_core::time::Time;

use crate::cp::{CommProgram, CpAction, CpEntry};
use crate::NodeId;

/// A bus failure detected during simulation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BusError {
    /// Two nodes imprinted the same wavefront.
    Collision {
        /// The contested global slot.
        slot: u64,
        /// Node that owned the wavefront first.
        first: NodeId,
        /// Node whose modulation collided.
        second: NodeId,
    },
    /// A node's CP drives more slots than it has data words.
    DataUnderrun {
        /// The starved node.
        node: NodeId,
        /// Words available.
        have: usize,
        /// Slots its CP drives.
        need: u64,
    },
    /// A CP references a node outside the bus.
    BadNode {
        /// The offending id.
        node: NodeId,
    },
}

impl std::fmt::Display for BusError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BusError::Collision {
                slot,
                first,
                second,
            } => write!(
                f,
                "wavefront collision on slot {slot}: node {second} over node {first}"
            ),
            BusError::DataUnderrun { node, have, need } => {
                write!(f, "node {node} drives {need} slots but holds {have} words")
            }
            BusError::BadNode { node } => write!(f, "CP references nonexistent node {node}"),
        }
    }
}

impl std::error::Error for BusError {}

/// Result of a gather (SCA).
#[derive(Debug, Clone)]
pub struct GatherOutcome {
    /// Word observed on each wavefront at the terminus (`None` = unmodulated
    /// slot, i.e. a gap in the burst).
    pub received: Vec<Option<u64>>,
    /// Terminus arrival time of the first owned wavefront.
    pub first_arrival: Time,
    /// Terminus arrival time of the last owned wavefront — gather latency.
    pub last_arrival: Time,
    /// Fraction of wavefronts in `[first, last]` that carried data
    /// (1.0 = the gap-free burst of §III).
    pub utilization: f64,
    /// Total data bits modulated onto the bus.
    pub bits: u64,
    /// Per-node count of modulated slots (for energy accounting).
    pub slots_by_node: Vec<u64>,
}

/// Result of a scatter (SCA⁻¹).
#[derive(Debug, Clone)]
pub struct ScatterOutcome {
    /// Words captured by each node, in its CP slot order.
    pub delivered: Vec<Vec<u64>>,
    /// Time each node detected its last slot (`None` if it listened to
    /// nothing).
    pub completion: Vec<Option<Time>>,
    /// Time the final slot of the whole burst passed the last tap.
    pub end: Time,
    /// Total data bits carried.
    pub bits: u64,
}

/// One node's modulation of a wavefront. Claims on the same wavefront are
/// ordered by `(at, seq)`: modulation instant, then scheduling order.
#[derive(Debug, Clone, Copy)]
struct Claim {
    at: Time,
    seq: u64,
    node: NodeId,
}

impl Claim {
    fn key(&self) -> (Time, u64) {
        (self.at, self.seq)
    }
}

/// The bus simulator: layout + clock + WDM plan.
#[derive(Debug, Clone)]
pub struct BusSim {
    layout: ChipLayout,
    clock: PhotonicClock,
    plan: WavelengthPlan,
    /// Per-node timing error in picoseconds (signed): deviation of a node's
    /// actual modulation instant from its ideal skew-aligned time. Zero in
    /// a correctly calibrated PSCAN; §III-A's "exact temporal alignment"
    /// requirement is what breaks when these grow past ±half a slot.
    timing_error_ps: Vec<i64>,
}

impl BusSim {
    /// Build a bus over `layout` with one slot per clock period of `plan`.
    pub fn new(layout: ChipLayout, plan: WavelengthPlan) -> Self {
        let clock = PhotonicClock::new(&layout, plan.slot(), Time::ZERO);
        let nodes = layout.nodes;
        BusSim {
            layout,
            clock,
            plan,
            timing_error_ps: vec![0; nodes],
        }
    }

    /// Inject a per-node timing error (calibration drift, in ps). A node
    /// whose error exceeds ±half a slot imprints the *wrong wavefront*:
    /// its data lands shifted, colliding with neighbours or leaving gaps —
    /// the physical failure mode open-loop synchronization must avoid.
    pub fn set_timing_error(&mut self, node: NodeId, error_ps: i64) {
        self.timing_error_ps[node] = error_ps;
    }

    /// How many wavefronts node `node`'s timing error moves its modulation
    /// (nearest-wavefront capture).
    fn wavefront_shift(&self, node: NodeId) -> i64 {
        let period = self.clock.period.as_ps() as i64;
        let err = self.timing_error_ps[node];
        // Round to the nearest wavefront.
        (err + if err >= 0 { period / 2 } else { -(period / 2) }) / period
    }

    /// The instant node `node` actually modulates for CP slot `slot`: its
    /// ideal skew-aligned drive time plus its timing error.
    fn modulation_time(&self, node: NodeId, slot: u64) -> Time {
        let ideal = self.clock.drive_time(node, slot).as_ps();
        Time::from_ps(ideal.saturating_add_signed(self.timing_error_ps[node]))
    }

    /// The instant tap `node` has detected wavefront `slot`.
    fn captured_at(&self, node: NodeId, slot: u64) -> Time {
        self.clock.edge_at_tap(node, slot) + self.clock.response_delay
    }

    /// The underlying photonic clock (per-tap skews etc.).
    pub fn clock(&self) -> &PhotonicClock {
        &self.clock
    }

    /// The chip layout.
    pub fn layout(&self) -> &ChipLayout {
        &self.layout
    }

    /// The WDM plan.
    pub fn plan(&self) -> &WavelengthPlan {
        &self.plan
    }

    /// Number of node taps.
    pub fn nodes(&self) -> usize {
        self.layout.nodes
    }

    /// Terminus arrival time of wavefront `slot`: the end of the bus, past
    /// every tap.
    pub fn terminus_time(&self, slot: u64) -> Time {
        self.clock.origin
            + self.clock.period * slot
            + flight_time_mm(self.layout.bus_length_mm())
            + self.clock.response_delay
    }

    /// Execute an SCA gather.
    ///
    /// `programs[n]` is node `n`'s CP (only `Drive` entries participate);
    /// `data[n]` holds the words node `n` feeds its modulator, consumed in
    /// slot order.
    pub fn gather(
        &self,
        programs: &[CommProgram],
        data: &[Vec<u64>],
    ) -> Result<GatherOutcome, BusError> {
        assert_eq!(programs.len(), data.len(), "one data vector per program");
        if programs.len() > self.nodes() {
            return Err(BusError::BadNode { node: self.nodes() });
        }

        // Underruns are checked in node order before any wavefront is
        // claimed. The same pass sizes the burst: a node's last imprinted
        // wavefront is its last driven slot, shifted.
        let mut n_slots = 1usize;
        for (node, cp) in programs.iter().enumerate() {
            let need = cp.slots_driven();
            if (data[node].len() as u64) < need {
                return Err(BusError::DataUnderrun {
                    node,
                    have: data[node].len(),
                    need,
                });
            }
            let last = runs(cp, CpAction::Drive).last().map(|e| e.end() - 1);
            if let Some(w) = last.and_then(|s| s.checked_add_signed(self.wavefront_shift(node))) {
                n_slots = n_slots.max(w as usize + 1);
            }
        }

        // One ownership pass over each node's Drive runs. A timing error
        // shifts a whole run by the same number of wavefronts; slots shifted
        // before wavefront 0 are lost, words and all. A run landing on an
        // owned wavefront is a collision, resolved claim by claim.
        let mut received: Vec<Option<u64>> = vec![None; n_slots];
        let mut slots_by_node = vec![0u64; programs.len()];
        for (node, cp) in programs.iter().enumerate() {
            let shift = self.wavefront_shift(node);
            let mut words = data[node].as_slice();
            for e in runs(cp, CpAction::Drive) {
                let (run, rest) = words.split_at(e.len as usize);
                words = rest;
                let lost = if shift < 0 {
                    shift.unsigned_abs().saturating_sub(e.start).min(e.len)
                } else {
                    0
                };
                let Some(first) = (e.start + lost).checked_add_signed(shift) else {
                    continue; // the whole run fell before wavefront 0
                };
                let first = first as usize;
                let run = &run[lost as usize..];
                let dst = &mut received[first..first + run.len()];
                if dst.iter().any(Option::is_some) {
                    return Err(self.collision(programs, n_slots));
                }
                for (slot, &word) in dst.iter_mut().zip(run) {
                    *slot = Some(word);
                }
                slots_by_node[node] += run.len() as u64;
            }
        }

        // Bus-slot exclusivity accounting (DESIGN.md §12): per-node tallies
        // partition the owned wavefronts.
        let owned: u64 = slots_by_node.iter().sum();
        invariant!(
            owned == received.iter().filter(|w| w.is_some()).count() as u64,
            "bus-slot exclusivity: per-node slot tallies do not partition the owned set"
        );

        // Wavefronts reach the terminus in slot order, one period apart: the
        // burst starts with the lowest owned wavefront and ends with the
        // highest.
        let lo = received.iter().position(Option::is_some);
        let hi = received.iter().rposition(Option::is_some);
        let (first_arrival, last_arrival, utilization) = match (lo, hi) {
            (Some(lo), Some(hi)) => (
                self.terminus_time(lo as u64),
                self.terminus_time(hi as u64),
                owned as f64 / (hi - lo + 1) as f64,
            ),
            _ => (Time::ZERO, Time::ZERO, 0.0),
        };

        Ok(GatherOutcome {
            bits: owned * self.plan.bits_per_slot(),
            received,
            first_arrival,
            last_arrival,
            utilization,
            slots_by_node,
        })
    }

    /// The collision a gather that failed its ownership pass reports.
    ///
    /// Resolves every claim: each wavefront keeps its earliest claim
    /// (modulation instant, then scheduling order), and the earliest
    /// *losing* claim — the collision a time-ordered replay of the
    /// modulations would hit first — is reported against that wavefront's
    /// winner.
    fn collision(&self, programs: &[CommProgram], n_slots: usize) -> BusError {
        let mut claims: Vec<Option<Claim>> = vec![None; n_slots];
        let mut earliest_loss: Option<(u64, Claim)> = None;
        let mut seq = 0u64;
        for (node, cp) in programs.iter().enumerate() {
            let shift = self.wavefront_shift(node);
            let slots = runs(cp, CpAction::Drive).flat_map(|e| e.start..e.end());
            for slot in slots {
                let Some(w) = slot.checked_add_signed(shift) else {
                    continue; // light fell before wavefront 0: lost
                };
                let claim = Claim {
                    at: self.modulation_time(node, slot),
                    seq,
                    node,
                };
                seq += 1;
                let cell = &mut claims[w as usize];
                let lost = match *cell {
                    None => {
                        *cell = Some(claim);
                        continue;
                    }
                    Some(held) if claim.key() < held.key() => {
                        *cell = Some(claim);
                        held
                    }
                    Some(_) => claim,
                };
                if earliest_loss.is_none_or(|(_, l)| lost.key() < l.key()) {
                    earliest_loss = Some((w, lost));
                }
            }
        }
        let (slot, second) = earliest_loss.expect("the ownership pass found a contested wavefront");
        let first = claims[slot as usize].expect("a contested wavefront has a winner");
        BusError::Collision {
            slot,
            first: first.node,
            second: second.node,
        }
    }

    /// Execute an SCA⁻¹ scatter: the head node (at the bus origin, upstream
    /// of every tap) drives `burst[k]` on wavefront `k`; each node captures
    /// the slots its CP listens on.
    pub fn scatter(
        &self,
        programs: &[CommProgram],
        burst: &[u64],
    ) -> Result<ScatterOutcome, BusError> {
        if programs.len() > self.nodes() {
            return Err(BusError::BadNode { node: self.nodes() });
        }
        let n_slots = burst.len() as u64;
        let mut delivered: Vec<Vec<u64>> = vec![Vec::new(); programs.len()];
        let mut completion: Vec<Option<Time>> = vec![None; programs.len()];
        for (node, cp) in programs.iter().enumerate() {
            for e in runs(cp, CpAction::Listen) {
                if e.end() > n_slots {
                    return Err(BusError::DataUnderrun {
                        node,
                        have: burst.len(),
                        need: e.start.max(n_slots) + 1,
                    });
                }
                delivered[node].extend_from_slice(&burst[e.start as usize..e.end() as usize]);
                // Wavefront k passes tap `node` when the tap sees edge k.
                completion[node] = Some(self.captured_at(node, e.end() - 1));
            }
        }

        let end = if n_slots == 0 {
            Time::ZERO
        } else {
            self.terminus_time(n_slots - 1)
        };
        Ok(ScatterOutcome {
            delivered,
            completion,
            end,
            bits: n_slots * self.plan.bits_per_slot(),
        })
    }
}

/// The entries of `cp` with action `action`, in slot order.
fn runs(cp: &CommProgram, action: CpAction) -> impl Iterator<Item = &CpEntry> {
    cp.entries().iter().filter(move |e| e.action == action)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compiler::{CpCompiler, GatherSpec, ScatterSpec};
    use CpAction::{Drive, Listen};

    fn bus(nodes: usize) -> BusSim {
        BusSim::new(
            ChipLayout::square(20.0, nodes),
            WavelengthPlan::paper_320g(),
        )
    }

    /// A CP of one run of `len` slots from `start`.
    fn run(start: u64, len: u64, action: CpAction) -> CommProgram {
        CommProgram::new(vec![CpEntry { start, len, action }]).unwrap()
    }

    #[test]
    fn fig4_interleave_coalesces_gap_free() {
        // P0 drives slots {0,1},{4,5} with bits a,b,e,f; P1 drives {2,3}
        // with c,d. The terminus must see a,b,c,d,e,f as one burst.
        let b = bus(3);
        let spec = GatherSpec {
            slot_source: vec![0, 0, 1, 1, 0, 0],
        };
        let cps = CpCompiler.compile_gather(&spec, 3);
        let data = vec![vec![0xA, 0xB, 0xE, 0xF], vec![0xC, 0xD], vec![]];
        let out = b.gather(&cps, &data).unwrap();
        let words: Vec<u64> = out.received.iter().map(|w| w.unwrap()).collect();
        assert_eq!(words, vec![0xA, 0xB, 0xC, 0xD, 0xE, 0xF]);
        assert_eq!(out.utilization, 1.0);
        assert_eq!(out.slots_by_node, vec![4, 2, 0]);
    }

    #[test]
    fn burst_arrives_at_full_line_rate() {
        // 64 nodes x 16 slots each, interleaved: the coalesced burst spans
        // exactly n_slots periods at the terminus.
        let b = bus(64);
        let spec = GatherSpec::interleaved(64, 16, 1);
        let cps = CpCompiler.compile_gather(&spec, 64);
        let data: Vec<Vec<u64>> = (0..64).map(|n| vec![n as u64; 16]).collect();
        let out = b.gather(&cps, &data).unwrap();
        let slots = spec.total_slots();
        let expect = b.clock().period * (slots - 1);
        assert_eq!(out.last_arrival.since(out.first_arrival), expect);
        assert_eq!(out.utilization, 1.0);
    }

    #[test]
    fn collision_is_detected() {
        let b = bus(2);
        let cp0 = run(0, 2, Drive);
        let cp1 = run(1, 1, Drive);
        let err = b.gather(&[cp0, cp1], &[vec![1, 2], vec![3]]).unwrap_err();
        match err {
            BusError::Collision { slot: 1, .. } => {}
            other => panic!("expected collision on slot 1, got {other:?}"),
        }
    }

    #[test]
    fn underrun_is_detected() {
        let b = bus(1);
        let cp = run(0, 5, Drive);
        let err = b.gather(&[cp], &[vec![1, 2]]).unwrap_err();
        assert_eq!(
            err,
            BusError::DataUnderrun {
                node: 0,
                have: 2,
                need: 5
            }
        );
    }

    #[test]
    fn gaps_lower_utilization() {
        let b = bus(2);
        // Drive slots 0 and 2, leave 1 dark.
        let cp0 = run(0, 1, Drive);
        let cp1 = run(2, 1, Drive);
        let out = b.gather(&[cp0, cp1], &[vec![7], vec![9]]).unwrap();
        assert_eq!(out.received, vec![Some(7), None, Some(9)]);
        assert!((out.utilization - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn scatter_delivers_in_order() {
        let b = bus(4);
        let spec = ScatterSpec::interleaved(4, 2, 2);
        let cps = CpCompiler.compile_scatter(&spec, 4);
        let burst: Vec<u64> = (0..16).collect();
        let out = b.scatter(&cps, &burst).unwrap();
        // Node n gets slots {2n, 2n+1, 8+2n, 8+2n+1}.
        for n in 0..4u64 {
            assert_eq!(
                out.delivered[n as usize],
                vec![2 * n, 2 * n + 1, 8 + 2 * n, 8 + 2 * n + 1]
            );
        }
        assert_eq!(out.bits, 16 * 32);
    }

    #[test]
    fn downstream_nodes_complete_later_for_same_slots() {
        let b = bus(8);
        // Both nodes listen to slot 0: multicast is legal.
        let cps = vec![run(0, 1, Listen), run(0, 1, Listen)];
        let out = b.scatter(&cps, &[42]).unwrap();
        let t0 = out.completion[0].unwrap();
        let t1 = out.completion[1].unwrap();
        assert!(t1 > t0, "downstream tap must see the wavefront later");
        assert_eq!(out.delivered[0], vec![42]);
        assert_eq!(out.delivered[1], vec![42]);
    }

    #[test]
    fn scatter_slot_out_of_range_errors() {
        let b = bus(2);
        let cp = run(9, 1, Listen);
        assert!(matches!(
            b.scatter(&[cp], &[1, 2, 3]),
            Err(BusError::DataUnderrun { .. })
        ));
    }

    #[test]
    fn simultaneous_modulation_in_absolute_time_is_legal() {
        // The paper's t4 moment: with enough physical separation, an
        // upstream node modulates wavefront k+m while a downstream node is
        // still modulating wavefront k — in the same absolute instant. Our
        // wavefront-ownership model must accept this.
        let layout = ChipLayout::square(20.0, 64);
        let b = BusSim::new(layout, WavelengthPlan::paper_320g());
        // Node 0 and node 63 are ~half a bus apart; flight between them far
        // exceeds one 100 ps slot. Give node 63 early slots and node 0 late
        // slots so their absolute modulation windows overlap.
        let cp63 = run(0, 8, Drive);
        let cp0 = run(8, 8, Drive);
        let mut cps = vec![CommProgram::empty(); 64];
        cps[63] = cp63;
        cps[0] = cp0;
        let mut data = vec![Vec::new(); 64];
        data[63] = (0..8).collect();
        data[0] = (8..16).collect();
        // Absolute drive windows overlap:
        let d63_end = b.clock().drive_time(63, 7);
        let d0_start = b.clock().drive_time(0, 8);
        assert!(d0_start < d63_end, "windows must overlap for this test");
        // And yet the gather is clean and gap-free.
        let out = b.gather(&cps, &data).unwrap();
        let words: Vec<u64> = out.received.iter().map(|w| w.unwrap()).collect();
        assert_eq!(words, (0..16).collect::<Vec<u64>>());
        assert_eq!(out.utilization, 1.0);
    }

    #[test]
    fn sub_half_slot_timing_error_is_harmless() {
        // §III-A: constant skew within the capture window doesn't matter.
        let mut b = bus(3);
        b.set_timing_error(0, 40); // 40 ps on a 100 ps slot
        b.set_timing_error(1, -45);
        let spec = GatherSpec {
            slot_source: vec![0, 0, 1, 1, 0, 0],
        };
        let cps = CpCompiler.compile_gather(&spec, 3);
        let data = vec![vec![0xA, 0xB, 0xE, 0xF], vec![0xC, 0xD], vec![]];
        let out = b.gather(&cps, &data).unwrap();
        assert_eq!(out.utilization, 1.0);
        let words: Vec<u64> = out.received.iter().map(|w| w.unwrap()).collect();
        assert_eq!(words, vec![0xA, 0xB, 0xC, 0xD, 0xE, 0xF]);
    }

    #[test]
    fn super_half_slot_error_corrupts_the_splice() {
        // A node drifted a full slot late: its bits land on the next
        // wavefront — colliding with its neighbour's share.
        let mut b = bus(3);
        b.set_timing_error(0, 110); // > half of the 100 ps slot
        let spec = GatherSpec {
            slot_source: vec![0, 0, 1, 1],
        };
        let cps = CpCompiler.compile_gather(&spec, 3);
        let data = vec![vec![0xA, 0xB], vec![0xC, 0xD], vec![]];
        match b.gather(&cps, &data) {
            Err(BusError::Collision { slot: 2, .. }) => {} // expected: P0's 2nd bit hits P1's 1st
            other => panic!("expected a wavefront collision, got {other:?}"),
        }
    }

    #[test]
    fn drift_on_the_last_node_leaves_a_gap() {
        // The last contributor drifts late: no collision (nothing behind
        // it) but the burst is no longer gap-free.
        let mut b = bus(2);
        b.set_timing_error(1, 120); // rounds to a one-wavefront shift
        let spec = GatherSpec {
            slot_source: vec![0, 0, 1, 1],
        };
        let cps = CpCompiler.compile_gather(&spec, 2);
        let data = vec![vec![1, 2], vec![3, 4]];
        let out = b.gather(&cps, &data).unwrap();
        assert!(out.utilization < 1.0, "drift must open a gap");
        assert_eq!(out.received[2], None); // slot 2 went dark
        assert_eq!(out.received[3], Some(3)); // shifted by one wavefront
        assert_eq!(out.received[4], Some(4));
    }

    #[test]
    fn empty_gather_is_empty() {
        let b = bus(2);
        let out = b
            .gather(
                &[CommProgram::empty(), CommProgram::empty()],
                &[vec![], vec![]],
            )
            .unwrap();
        assert!(out.received.iter().all(|w| w.is_none()) || out.received.is_empty());
        assert_eq!(out.bits, 0);
    }
}
