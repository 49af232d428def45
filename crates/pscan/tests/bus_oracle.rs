//! Differential test of the bus sweep against an event-replay reference.
//!
//! [`BusSim`] resolves wavefront ownership in one linear pass over each CP's
//! runs. The reference model below does it the slow, obvious way: it lists
//! every modulation (and every scatter delivery) as an event, sorts the
//! events by `(time, scheduling order)` and replays them one at a time,
//! stopping at the first modulation that lands on an already-owned
//! wavefront. Random CP sets with random per-node timing errors — two- and
//! three-way collisions, collisions in the middle of a Drive run, drift
//! gaps, wavefronts lost before slot 0 (whole runs and parts of runs),
//! underruns, short scatter bursts — must give the same outcome or the same
//! error value from both.

use std::collections::BTreeMap;

use photonics::waveguide::ChipLayout;
use photonics::wdm::WavelengthPlan;
use proptest::prelude::*;
use proptest::{TestCaseError, TestRng};
use pscan::bus::{BusError, BusSim, GatherOutcome, ScatterOutcome};
use pscan::cp::{CommProgram, CpAction, CpEntry};
use pscan::NodeId;
use sim_core::time::Time;

/// A bus plus the per-node timing errors injected into it.
struct Rig {
    bus: BusSim,
    errors: Vec<i64>,
}

impl Rig {
    fn new(nodes: usize, errors: &[i64]) -> Self {
        let mut bus = BusSim::new(
            ChipLayout::square(20.0, nodes),
            WavelengthPlan::paper_320g(),
        );
        let mut all = vec![0; nodes];
        for (node, &e) in errors.iter().enumerate().take(nodes) {
            bus.set_timing_error(node, e);
            all[node] = e;
        }
        Rig { bus, errors: all }
    }

    /// Wavefront node `node` imprints for CP slot `slot` (nearest-wavefront
    /// capture of its drifted modulation instant), or `None` if it falls
    /// before wavefront 0.
    fn imprinted(&self, node: NodeId, slot: u64) -> Option<u64> {
        let period = self.bus.clock().period.as_ps() as f64;
        let shift = (self.errors[node] as f64 / period).round() as i64;
        u64::try_from(slot as i64 + shift).ok()
    }

    /// Absolute instant node `node` modulates for CP slot `slot`.
    fn modulated_at(&self, node: NodeId, slot: u64) -> Time {
        let ideal = self.bus.clock().drive_time(node, slot).as_ps();
        let err = self.errors[node];
        Time::from_ps(if err >= 0 {
            ideal + err as u64
        } else {
            ideal.saturating_sub(err.unsigned_abs())
        })
    }

    /// Instant node `node` has captured wavefront `slot`.
    fn captured_at(&self, node: NodeId, slot: u64) -> Time {
        self.bus.clock().edge_at_tap(node, slot) + self.bus.clock().response_delay
    }
}

/// The `(slot, action)` pairs of a CP that match `action`.
fn slots(cp: &CommProgram, action: CpAction) -> impl Iterator<Item = u64> + '_ {
    cp.iter_slots()
        .filter(move |&(_, a)| a == action)
        .map(|(s, _)| s)
}

/// Reference gather: replay modulations in `(time, scheduling order)`.
fn ref_gather(
    rig: &Rig,
    programs: &[CommProgram],
    data: &[Vec<u64>],
) -> Result<GatherOutcome, BusError> {
    if programs.len() > rig.bus.nodes() {
        return Err(BusError::BadNode {
            node: rig.bus.nodes(),
        });
    }
    for (node, cp) in programs.iter().enumerate() {
        let need = cp.slots_driven();
        if (data[node].len() as u64) < need {
            return Err(BusError::DataUnderrun {
                node,
                have: data[node].len(),
                need,
            });
        }
    }
    // (time, scheduling order) -> (node, wavefront, word)
    let mut events: BTreeMap<(Time, usize), (NodeId, u64, u64)> = BTreeMap::new();
    for (node, cp) in programs.iter().enumerate() {
        for (slot, &word) in slots(cp, CpAction::Drive).zip(&data[node]) {
            if let Some(wavefront) = rig.imprinted(node, slot) {
                let order = events.len();
                events.insert(
                    (rig.modulated_at(node, slot), order),
                    (node, wavefront, word),
                );
            }
        }
    }
    let n_slots = events.values().map(|&(_, w, _)| w + 1).max().unwrap_or(1) as usize;
    let mut owner: Vec<Option<NodeId>> = vec![None; n_slots];
    let mut received: Vec<Option<u64>> = vec![None; n_slots];
    let mut slots_by_node = vec![0u64; programs.len()];
    for &(node, wavefront, word) in events.values() {
        let w = wavefront as usize;
        if let Some(first) = owner[w] {
            return Err(BusError::Collision {
                slot: wavefront,
                first,
                second: node,
            });
        }
        owner[w] = Some(node);
        received[w] = Some(word);
        slots_by_node[node] += 1;
    }
    let arrivals: Vec<Time> = {
        let mut t: Vec<Time> = (0..n_slots as u64)
            .filter(|&s| owner[s as usize].is_some())
            .map(|s| rig.bus.terminus_time(s))
            .collect();
        t.sort();
        t
    };
    let owned = arrivals.len() as u64;
    let (first_arrival, last_arrival, utilization) = match (arrivals.first(), arrivals.last()) {
        (Some(&a), Some(&b)) => {
            let span = b.since(a).as_ps() / rig.bus.clock().period.as_ps() + 1;
            (a, b, owned as f64 / span as f64)
        }
        _ => (Time::ZERO, Time::ZERO, 0.0),
    };
    Ok(GatherOutcome {
        received,
        first_arrival,
        last_arrival,
        utilization,
        bits: owned * rig.bus.plan().bits_per_slot(),
        slots_by_node,
    })
}

/// Reference scatter: one delivery event per Listen slot, replayed in
/// `(time, scheduling order)` into per-node words and completion times.
fn ref_scatter(
    rig: &Rig,
    programs: &[CommProgram],
    burst: &[u64],
) -> Result<ScatterOutcome, BusError> {
    if programs.len() > rig.bus.nodes() {
        return Err(BusError::BadNode {
            node: rig.bus.nodes(),
        });
    }
    let mut events = BTreeMap::new();
    for (node, cp) in programs.iter().enumerate() {
        for slot in slots(cp, CpAction::Listen) {
            let Some(&word) = burst.get(slot as usize) else {
                return Err(BusError::DataUnderrun {
                    node,
                    have: burst.len(),
                    need: slot + 1,
                });
            };
            let order = events.len();
            events.insert((rig.captured_at(node, slot), order), (node, word));
        }
    }
    let mut delivered = vec![Vec::new(); programs.len()];
    let mut completion = vec![None; programs.len()];
    for ((at, _), (node, word)) in events {
        delivered[node].push(word);
        completion[node] = Some(at);
    }
    let n = burst.len() as u64;
    Ok(ScatterOutcome {
        delivered,
        completion,
        end: if n == 0 {
            Time::ZERO
        } else {
            rig.bus.terminus_time(n - 1)
        },
        bits: n * rig.bus.plan().bits_per_slot(),
    })
}

/// Every observable field of a gather, with the utilization as raw bits so
/// the comparison is exact.
fn gather_view(g: &GatherOutcome) -> impl PartialEq + std::fmt::Debug {
    (
        g.received.clone(),
        g.slots_by_node.clone(),
        g.first_arrival,
        g.last_arrival,
        g.utilization.to_bits(),
        g.bits,
    )
}

fn scatter_view(s: &ScatterOutcome) -> impl PartialEq + std::fmt::Debug {
    (s.delivered.clone(), s.completion.clone(), s.end, s.bits)
}

/// Run-length encode one node's per-slot actions into a CP.
fn program(actions: &[Option<CpAction>]) -> CommProgram {
    let mut entries: Vec<CpEntry> = Vec::new();
    for (slot, a) in actions.iter().enumerate() {
        let Some(action) = *a else { continue };
        match entries.last_mut() {
            Some(e) if e.action == action && e.end() == slot as u64 => e.len += 1,
            _ => entries.push(CpEntry {
                start: slot as u64,
                len: 1,
                action,
            }),
        }
    }
    CommProgram::new(entries).unwrap()
}

/// One random bus scenario.
struct Scenario {
    bus_nodes: usize,
    errors: Vec<i64>,
    programs: Vec<CommProgram>,
    data: Vec<Vec<u64>>,
    burst: Vec<u64>,
}

fn scenario(seed: u64) -> Scenario {
    let mut rng = TestRng::seed(seed);
    let nodes = 2 + rng.below(5) as usize;
    // Occasionally hand the bus more programs than it has taps. On a dense
    // 64-tap bus, neighbouring taps are less than a slot apart, so two
    // nodes can modulate one wavefront at the same instant.
    let bus_nodes = match rng.below(24) {
        0 => nodes - 1,
        1..=8 => 64,
        _ => nodes + rng.below(2) as usize,
    };
    let n_slots = 4 + rng.below(21) as usize;
    // In "contended" scenarios a slot may get up to three drivers. Drivers
    // are drawn once per block of up to four slots, so Drive runs span
    // several slots and can be partly lost or collide mid-run.
    let contended = rng.below(3) == 0;
    let block = 1 + rng.below(4) as usize;
    let mut actions = vec![vec![None; n_slots]; nodes];
    let mut drivers = Vec::new();
    for slot in 0..n_slots {
        if slot % block == 0 {
            let extra = if contended { rng.below(3) } else { 0 };
            drivers = (0..=extra)
                .map(|_| rng.below(nodes as u64 + 1) as usize)
                .collect();
        }
        for &driver in &drivers {
            if driver < nodes {
                actions[driver][slot] = Some(CpAction::Drive);
            }
        }
        for row in actions.iter_mut() {
            if row[slot].is_none() && rng.below(4) == 0 {
                row[slot] = Some(CpAction::Listen);
            }
        }
    }
    let programs: Vec<CommProgram> = actions.iter().map(|a| program(a)).collect();
    let period = 100i64; // ps: one 10 Gb/s slot of `paper_320g`
    let mut errors: Vec<i64> = (0..nodes)
        .map(|_| match rng.below(8) {
            0..=3 => 0,
            4 => {
                let mag = period / 2 + rng.below(2) as i64 - 1; // the ±half-slot edge
                if rng.below(2) == 0 {
                    mag
                } else {
                    -mag
                }
            }
            5 => -(rng.below(n_slots as u64 * period as u64) as i64), // lose early wavefronts
            _ => rng.below(7 * period as u64) as i64 - 7 * period / 2,
        })
        .collect();
    // Some nodes drift to modulate exactly when an upstream node does (up
    // to a whole number of slots), so scheduling order has to break ties.
    let skew = |n: usize| {
        let layout = ChipLayout::square(20.0, bus_nodes.max(nodes));
        layout.flight_to_tap(n).as_ps() as i64
    };
    for b in 1..nodes {
        if rng.below(3) == 0 {
            let a = rng.below(b as u64) as usize;
            let k = rng.below(3) as i64 - 1;
            errors[b] = errors[a] + skew(a) - skew(b) + k * period;
        }
    }
    let data = programs
        .iter()
        .enumerate()
        .map(|(node, cp)| {
            let short = u64::from(rng.below(20) == 0);
            let n = cp.slots_driven().saturating_sub(short);
            (0..n).map(|i| ((node as u64) << 32) | i).collect()
        })
        .collect();
    let listened = programs
        .iter()
        .filter_map(|cp| slots(cp, CpAction::Listen).last())
        .max()
        .map_or(0, |s| s + 1);
    let burst_len = (listened + rng.below(5)).saturating_sub(2);
    let burst = (0..burst_len).map(|i| 0xB000 + i).collect();
    Scenario {
        bus_nodes,
        errors,
        programs,
        data,
        burst,
    }
}

/// Number of claims on the most-contended wavefront of `s`.
fn max_claims(s: &Scenario, rig: &Rig) -> usize {
    let mut claims: BTreeMap<u64, usize> = BTreeMap::new();
    for (node, cp) in s.programs.iter().enumerate() {
        for slot in slots(cp, CpAction::Drive) {
            if let Some(w) = rig.imprinted(node, slot) {
                *claims.entry(w).or_default() += 1;
            }
        }
    }
    claims.values().copied().max().unwrap_or(0)
}

/// Whether two claims on one wavefront of `s` share a modulation instant.
fn ties_on_a_wavefront(s: &Scenario, rig: &Rig) -> bool {
    let mut claims: BTreeMap<(u64, Time), usize> = BTreeMap::new();
    for (node, cp) in s.programs.iter().enumerate() {
        for slot in slots(cp, CpAction::Drive) {
            if let Some(w) = rig.imprinted(node, slot) {
                *claims.entry((w, rig.modulated_at(node, slot))).or_default() += 1;
            }
        }
    }
    claims.values().any(|&n| n > 1)
}

/// Whether any wavefront of `s` is lost before slot 0.
fn loses_wavefronts(s: &Scenario, rig: &Rig) -> bool {
    s.programs.iter().enumerate().any(|(node, cp)| {
        slots(cp, CpAction::Drive).any(|slot| rig.imprinted(node, slot).is_none())
    })
}

/// The wavefronts each Drive run of node `node` imprints, one vector per
/// run, `None` for a slot lost before wavefront 0.
fn run_wavefronts(s: &Scenario, rig: &Rig, node: NodeId) -> Vec<Vec<Option<u64>>> {
    s.programs[node]
        .entries()
        .iter()
        .filter(|e| e.action == CpAction::Drive)
        .map(|e| {
            (e.start..e.end())
                .map(|slot| rig.imprinted(node, slot))
                .collect()
        })
        .collect()
}

/// Whether some multi-slot Drive run of `s` loses its first slots before
/// wavefront 0 but imprints the rest.
fn loses_part_of_a_run(s: &Scenario, rig: &Rig) -> bool {
    (0..s.programs.len()).any(|node| {
        run_wavefronts(s, rig, node)
            .iter()
            .any(|run| run[0].is_none() && run.last().is_some_and(Option::is_some))
    })
}

/// Whether some Drive run of `s` imprints its first surviving wavefront
/// clear of every lower-numbered node, but lands on a wavefront one of
/// them drives later in the run: a node-order pass meets that collision
/// in the middle of the run.
fn collides_mid_run(s: &Scenario, rig: &Rig) -> bool {
    let claimed_before = |node: NodeId, w: u64| {
        (0..node).any(|other| {
            run_wavefronts(s, rig, other)
                .iter()
                .flatten()
                .any(|&x| x == Some(w))
        })
    };
    (0..s.programs.len()).any(|node| {
        run_wavefronts(s, rig, node).iter().any(|run| {
            let mut ws = run.iter().flatten();
            ws.next().is_some_and(|&w| !claimed_before(node, w))
                && ws.any(|&w| claimed_before(node, w))
        })
    })
}

/// Compare the sweep with the reference on every entry point.
fn check(s: &Scenario) -> Result<(), TestCaseError> {
    let rig = Rig::new(s.bus_nodes, &s.errors);
    let (p, d) = (&s.programs, &s.data);

    let got = rig.bus.gather(p, d);
    let want = ref_gather(&rig, p, d);
    prop_assert_eq!(
        got.as_ref().map(gather_view),
        want.as_ref().map(gather_view),
        "gather"
    );

    let got = rig.bus.scatter(p, &s.burst);
    let want = ref_scatter(&rig, p, &s.burst);
    prop_assert_eq!(
        got.as_ref().map(scatter_view),
        want.as_ref().map(scatter_view),
        "scatter"
    );
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn sweep_matches_event_replay(seed in 0u64..u64::MAX) {
        check(&scenario(seed))?;
    }
}

#[test]
fn sweep_matches_event_replay_in_every_failure_mode() {
    // The generator must actually reach the cases the sweep has to get
    // right, or the differential test above proves little: check a fixed
    // set of scenarios and count the failure modes among them.
    let (mut ok, mut two_way, mut three_way, mut lost, mut underrun) = (0, 0, 0, 0, 0);
    let (mut bad_node, mut short_burst, mut tied) = (0, 0, 0);
    let (mut partly_lost, mut mid_run) = (0, 0);
    for seed in 0..512u64 {
        let s = scenario(seed);
        check(&s).unwrap_or_else(|e| panic!("scenario {seed}: {e}"));
        let rig = Rig::new(s.bus_nodes, &s.errors);
        match ref_gather(&rig, &s.programs, &s.data) {
            Ok(_) => ok += 1,
            Err(BusError::Collision { .. }) => {
                match max_claims(&s, &rig) {
                    2 => two_way += 1,
                    _ => three_way += 1,
                }
                mid_run += usize::from(collides_mid_run(&s, &rig));
            }
            Err(BusError::DataUnderrun { .. }) => underrun += 1,
            Err(BusError::BadNode { .. }) => bad_node += 1,
        }
        if s.bus_nodes >= s.programs.len() {
            lost += usize::from(loses_wavefronts(&s, &rig));
            partly_lost += usize::from(loses_part_of_a_run(&s, &rig));
            tied += usize::from(ties_on_a_wavefront(&s, &rig));
        }
        if let Err(BusError::DataUnderrun { .. }) = ref_scatter(&rig, &s.programs, &s.burst) {
            short_burst += 1;
        }
    }
    for (name, n) in [
        ("clean gathers", ok),
        ("two-way collisions", two_way),
        ("three-way collisions", three_way),
        ("wavefronts lost before slot 0", lost),
        ("Drive runs partly lost before slot 0", partly_lost),
        ("collisions in the middle of a Drive run", mid_run),
        ("same-instant claims on a wavefront", tied),
        ("gather underruns", underrun),
        ("oversized CP sets", bad_node),
        ("short scatter bursts", short_burst),
    ] {
        assert!(n >= 5, "only {n} scenarios with {name}");
    }
}

/// Two losing claims on one wavefront at the same instant: the replay hits
/// the earlier-scheduled one first, even though the sweep finds it second.
#[test]
fn tied_losers_are_ordered_by_scheduling_order() {
    // Taps 0–2 of a 64-tap bus sit less than a slot apart. All three nodes
    // drive slot 3; node 1 modulates exactly when node 0 does, and node 2
    // a picosecond earlier, so node 2 wins and both others lose at once.
    let skew = |n| {
        let b = BusSim::new(ChipLayout::square(20.0, 64), WavelengthPlan::paper_320g());
        b.clock().skew(n).as_ps() as i64
    };
    let errors = [45, skew(0) - skew(1) + 45, skew(0) - skew(2) + 44];
    let rig = Rig::new(64, &errors);
    let drive = CommProgram::new(vec![CpEntry {
        start: 3,
        len: 1,
        action: CpAction::Drive,
    }])
    .unwrap();
    let programs = vec![drive.clone(), drive.clone(), drive];
    let data = vec![vec![0], vec![1], vec![2]];
    assert_eq!(rig.modulated_at(0, 3), rig.modulated_at(1, 3));
    let want = BusError::Collision {
        slot: 3,
        first: 2,
        second: 0,
    };
    assert_eq!(ref_gather(&rig, &programs, &data).unwrap_err(), want);
    assert_eq!(rig.bus.gather(&programs, &data).unwrap_err(), want);
}
