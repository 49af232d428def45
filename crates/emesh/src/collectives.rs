//! Collective-operation traffic generators for the mesh fabric.
//!
//! Each builder turns one [`Collective`] into deterministic mesh packet
//! schedules between the *processing* nodes (memory-interface nodes host
//! memory, not compute, so they neither send nor receive collective
//! traffic):
//!
//! * **all-to-all** — a personalized exchange: every participant sends a
//!   distinct `words`-word packet to every other participant.
//! * **all-gather** — every participant broadcasts its own `words`-word
//!   block, the classic ring all-gather schedule.
//! * **all-reduce** — reduce-scatter of `⌈words/P⌉`-word shards followed by
//!   a ring all-gather of the reduced shards: two sequential mesh phases
//!   whose cycles sum.
//!
//! Execution is **bulk-synchronous by ring round**: a phase runs as `P − 1`
//! rounds, round `k` being the shift permutation "participant `i` sends to
//! participant `(i + k) mod P`", each round draining on an idle mesh before
//! the next starts (cycles sum). One [`Mesh`] serves the whole collective:
//! [`Mesh::reset`] returns it to its freshly built state before every round,
//! so only the first round pays for its allocations. The wormhole fabric has
//! no virtual channels, so on tori the wrap-link rings can still deadlock
//! even under a permutation (a directional ring holds 2·width flits; one
//! 5-flit packet per sender overfills it). The runner recovers
//! deterministically: a round that trips the structured deadlock detector is
//! bisected into sub-batches, each drained on the reset mesh, and retried,
//! down to single packets, which route deadlock-free. Splits are counted in
//! [`MeshCollectiveResult::deadlock_splits`] and the
//! `collective.deadlock_splits` telemetry counter; XY-routed meshes never
//! split (see DESIGN.md §16).
//!
//! With a telemetry registry attached the runner emits one
//! `collective.<op>.<phase>` span per phase (process `emesh`, track
//! `collectives`, one trace microsecond per mesh cycle) plus
//! `collective.*` counters, mirroring the `psync.phase.*` convention on
//! the photonic side (`psync::collectives`).

use sim_core::collective::Collective;
use sim_core::telemetry::Registry;

use crate::flit::Packet;
use crate::mesh::{Mesh, MeshConfig, MeshError};

/// One executed mesh phase of a collective.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MeshPhase {
    /// Telemetry phase name, `collective.<op>.<phase>`.
    pub name: String,
    /// Cycles summed over the phase's ring rounds.
    pub cycles: u64,
    /// Ring rounds the phase ran (`P − 1`).
    pub rounds: u64,
    /// Packets injected for the phase.
    pub packets: u64,
    /// Payload words delivered to processor sinks.
    pub delivered_words: u64,
}

/// Result of running one collective on the mesh fabric.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MeshCollectiveResult {
    /// Which collective ran.
    pub collective: Collective,
    /// Participating (non-memif) nodes.
    pub participants: u64,
    /// Total cycles across all phases (phases are sequential).
    pub cycles: u64,
    /// Total packets injected across phases.
    pub packets: u64,
    /// Total payload words delivered across phases.
    pub delivered_words: u64,
    /// Times a deadlocked round was bisected and retried (0 on meshes;
    /// tori without virtual channels may need splits).
    pub deadlock_splits: u64,
    /// Per-phase breakdown.
    pub phases: Vec<MeshPhase>,
}

impl MeshCollectiveResult {
    /// Order-sensitive FNV-1a fingerprint of every observable — the
    /// golden-determinism handle the collective identity tests pin.
    pub fn fingerprint(&self) -> u64 {
        fn eat(h: &mut u64, bytes: impl IntoIterator<Item = u8>) {
            for b in bytes {
                *h ^= u64::from(b);
                *h = h.wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        eat(&mut h, self.participants.to_le_bytes());
        eat(&mut h, self.cycles.to_le_bytes());
        eat(&mut h, self.packets.to_le_bytes());
        eat(&mut h, self.delivered_words.to_le_bytes());
        eat(&mut h, self.deadlock_splits.to_le_bytes());
        for p in &self.phases {
            eat(&mut h, p.name.bytes());
            eat(&mut h, p.cycles.to_le_bytes());
            eat(&mut h, p.rounds.to_le_bytes());
            eat(&mut h, p.packets.to_le_bytes());
            eat(&mut h, p.delivered_words.to_le_bytes());
        }
        h
    }
}

/// One bulk-synchronous ring round: the packets to inject this round as
/// `(source node, packet)` pairs.
type Round = Vec<(u32, Packet)>;

/// The collective's phase schedules: each entry is a phase name plus its
/// ring rounds. Split out from the runner so tests can inspect schedules
/// without simulating.
///
/// # Errors
/// [`MeshError::BadCollective`] when the topology leaves fewer than two
/// non-memif participants or `words` is zero.
fn phase_schedules(
    collective: Collective,
    cfg: &MeshConfig,
    words: usize,
) -> Result<Vec<(String, Vec<Round>)>, MeshError> {
    let memifs = cfg.topology.memif_nodes();
    let participants: Vec<u32> = (0..cfg.topology.nodes() as u32)
        .filter(|n| !memifs.contains(n))
        .collect();
    let p = participants.len();
    if p < 2 || words == 0 {
        return Err(MeshError::BadCollective {
            participants: p,
            words,
        });
    }
    let mut id = 0u64;
    let mut rounds = |tag: &dyn Fn(usize, usize) -> u64, payload_words: usize| -> Vec<Round> {
        // Round k is the shift permutation i → (i + k) mod P over
        // participant indices; `tag` maps (src index, round) to the
        // payload word. The packet-id counter spans rounds and phases.
        (1..p)
            .map(|k| {
                participants
                    .iter()
                    .enumerate()
                    .map(|(i, &src)| {
                        let dst = participants[(i + k) % p];
                        let pkt = Packet::with_header(dst, id, vec![tag(i, k); payload_words]);
                        id += 1;
                        (src, pkt)
                    })
                    .collect()
            })
            .collect()
    };
    Ok(match collective {
        Collective::AllToAll => {
            // Personalized: the block for (src i, round k) is unique.
            let tag = |i: usize, k: usize| (i * p + (i + k) % p) as u64;
            vec![(collective.phase_name("exchange"), rounds(&tag, words))]
        }
        Collective::AllGather => {
            // Broadcast: every round carries src's own block.
            let tag = |i: usize, _k: usize| i as u64;
            vec![(collective.phase_name("ring"), rounds(&tag, words))]
        }
        Collective::AllReduce => {
            let shard = words.div_ceil(p);
            let scatter_tag = |i: usize, k: usize| (i * p + (i + k) % p) as u64;
            let gather_tag = |i: usize, _k: usize| i as u64;
            vec![
                (
                    collective.phase_name("reduce_scatter"),
                    rounds(&scatter_tag, shard),
                ),
                (
                    collective.phase_name("all_gather"),
                    rounds(&gather_tag, shard),
                ),
            ]
        }
    })
}

/// Drain one batch of packets on `mesh`, reset first, bisecting
/// deterministically on ring deadlock (a single packet always routes
/// through). Returns `(cycles, delivered words, splits)`.
fn drain_batch(mesh: &mut Mesh, batch: &[(u32, Packet)]) -> Result<(u64, u64, u64), MeshError> {
    mesh.reset();
    for (src, packet) in batch {
        mesh.inject_packet(*src, packet);
    }
    match mesh.run() {
        Ok(res) => Ok((res.cycles, res.sink_delivered.iter().sum(), 0)),
        Err(MeshError::Deadlock { .. }) if batch.len() > 1 => {
            let (a, b) = batch.split_at(batch.len() / 2);
            let (ca, da, sa) = drain_batch(mesh, a)?;
            let (cb, db, sb) = drain_batch(mesh, b)?;
            Ok((ca + cb, da + db, sa + sb + 1))
        }
        Err(e) => Err(e),
    }
}

/// Run `collective` over the mesh described by `cfg`, `words` payload words
/// per block, bulk-synchronously: each ring round drains on a freshly reset
/// mesh before the next starts, phases are sequential, cycles sum. With
/// `telemetry` attached, emits one `collective.<op>.<phase>` span per phase
/// and `collective.*` counters.
///
/// # Errors
/// [`MeshError::BadCollective`] if the topology leaves fewer than two
/// non-memif participants or `words` is zero; mesh-level failures surface
/// as their own [`MeshError`] variants.
pub fn run_mesh_collective(
    collective: Collective,
    cfg: MeshConfig,
    words: usize,
    telemetry: Option<&Registry>,
) -> Result<MeshCollectiveResult, MeshError> {
    let memif_count = cfg.topology.memif_nodes().len() as u64;
    let participants = cfg.topology.nodes() as u64 - memif_count;
    let mut result = MeshCollectiveResult {
        collective,
        participants,
        cycles: 0,
        packets: 0,
        delivered_words: 0,
        deadlock_splits: 0,
        phases: Vec::new(),
    };
    let schedules = phase_schedules(collective, &cfg, words)?;
    let mut mesh = Mesh::new(cfg);
    for (name, rounds) in schedules {
        let mut phase = MeshPhase {
            name,
            cycles: 0,
            rounds: rounds.len() as u64,
            packets: 0,
            delivered_words: 0,
        };
        let mut phase_splits = 0u64;
        for round in rounds {
            phase.packets += round.len() as u64;
            let (cycles, delivered, splits) = drain_batch(&mut mesh, &round)?;
            phase.cycles += cycles;
            phase.delivered_words += delivered;
            phase_splits += splits;
        }
        result.deadlock_splits += phase_splits;
        if let Some(reg) = telemetry {
            reg.span(
                "emesh",
                "collectives",
                &phase.name,
                result.cycles as f64,
                phase.cycles as f64,
                &[
                    ("rounds", phase.rounds.to_string()),
                    ("packets", phase.packets.to_string()),
                    ("delivered_words", phase.delivered_words.to_string()),
                ],
            );
            reg.counter_add("collective.phase.count", 1);
            reg.counter_add("collective.rounds", phase.rounds);
            reg.counter_add("collective.packets", phase.packets);
            reg.counter_add("collective.cycles", phase.cycles);
            reg.counter_add("collective.delivered_words", phase.delivered_words);
            reg.counter_add("collective.deadlock_splits", phase_splits);
        }
        result.cycles += phase.cycles;
        result.packets += phase.packets;
        result.delivered_words += phase.delivered_words;
        result.phases.push(phase);
    }
    Ok(result)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mesh::RoutingPolicy;
    use crate::topology::{MemifPlacement, Topology};

    fn cfg(topology: Topology) -> MeshConfig {
        MeshConfig {
            topology,
            t_r: 1,
            policy: RoutingPolicy::Xy,
            memif: Default::default(),
            buffer_depth: 2,
            max_cycles: 1 << 24,
            threads: 1,
        }
    }

    #[test]
    fn all_to_all_counts_on_square_mesh() {
        let c = cfg(Topology::square(16, MemifPlacement::SingleCorner));
        let r = run_mesh_collective(Collective::AllToAll, c, 4, None).unwrap();
        // 15 participants, personalized exchange: 15·14 packets of 4 words.
        assert_eq!(r.participants, 15);
        assert_eq!(r.packets, 15 * 14);
        assert_eq!(r.delivered_words, 15 * 14 * 4);
        assert_eq!(r.phases.len(), 1);
        assert_eq!(r.phases[0].name, "collective.alltoall.exchange");
    }

    #[test]
    fn all_gather_volume_matches_all_to_all() {
        // Same per-pair block size ⇒ same wire volume, different payload
        // contents and schedule label.
        let c = cfg(Topology::rect(8, 2, MemifPlacement::SingleCorner));
        let a2a = run_mesh_collective(Collective::AllToAll, c, 3, None).unwrap();
        let ag = run_mesh_collective(Collective::AllGather, c, 3, None).unwrap();
        assert_eq!(a2a.packets, ag.packets);
        assert_eq!(a2a.delivered_words, ag.delivered_words);
        assert_eq!(ag.phases[0].name, "collective.allgather.ring");
    }

    #[test]
    fn all_reduce_runs_two_phases_of_shards() {
        let c = cfg(Topology::square(16, MemifPlacement::FourCorners));
        // 12 participants, 24 words ⇒ 2-word shards.
        let r = run_mesh_collective(Collective::AllReduce, c, 24, None).unwrap();
        assert_eq!(r.participants, 12);
        assert_eq!(r.phases.len(), 2);
        assert_eq!(r.phases[0].name, "collective.allreduce.reduce_scatter");
        assert_eq!(r.phases[1].name, "collective.allreduce.all_gather");
        assert_eq!(r.packets, 2 * 12 * 11);
        assert_eq!(r.delivered_words, 2 * 12 * 11 * 2);
        assert_eq!(r.cycles, r.phases[0].cycles + r.phases[1].cycles);
    }

    #[test]
    fn torus_completes_via_deterministic_deadlock_splits() {
        // The VC-less wrap rings deadlock under a full shift permutation;
        // the runner must recover by bisecting rounds — deterministically —
        // while the XY-routed mesh never needs to split.
        let mesh = cfg(Topology::square(16, MemifPlacement::SingleCorner));
        let torus = cfg(Topology::torus(4, 4, MemifPlacement::SingleCorner));
        let rm = run_mesh_collective(Collective::AllToAll, mesh, 4, None).unwrap();
        let rt = run_mesh_collective(Collective::AllToAll, torus, 4, None).unwrap();
        assert_eq!(rm.deadlock_splits, 0);
        assert!(rt.deadlock_splits > 0, "expected wrap-ring deadlock splits");
        assert_eq!(rt.packets, rm.packets);
        assert_eq!(rt.delivered_words, rm.delivered_words);
        let again = run_mesh_collective(Collective::AllToAll, torus, 4, None).unwrap();
        assert_eq!(again.fingerprint(), rt.fingerprint());
    }

    #[test]
    fn telemetry_spans_and_counters_cover_every_phase() {
        let reg = Registry::new();
        let c = cfg(Topology::square(9, MemifPlacement::SingleCorner));
        let r = run_mesh_collective(Collective::AllReduce, c, 8, Some(&reg)).unwrap();
        let metrics = reg.metrics_json();
        assert!(metrics.contains("\"collective.phase.count\""));
        assert!(metrics.contains("\"collective.cycles\""));
        let trace = reg.chrome_trace_json();
        assert!(trace.contains("collective.allreduce.reduce_scatter"));
        assert!(trace.contains("collective.allreduce.all_gather"));
        assert!(r.cycles > 0);
    }

    #[test]
    fn fingerprint_is_stable_and_discriminating() {
        let c = cfg(Topology::square(16, MemifPlacement::SingleCorner));
        let a = run_mesh_collective(Collective::AllGather, c, 4, None).unwrap();
        let b = run_mesh_collective(Collective::AllGather, c, 4, None).unwrap();
        assert_eq!(a.fingerprint(), b.fingerprint());
        let other = run_mesh_collective(Collective::AllGather, c, 5, None).unwrap();
        assert_ne!(a.fingerprint(), other.fingerprint());
    }

    #[test]
    fn top_edge_on_one_row_leaves_no_participants() {
        // Every node of a 4×1 TopEdge grid is a memif: nothing to collect.
        let c = cfg(Topology::rect(4, 1, MemifPlacement::TopEdge));
        let err = run_mesh_collective(Collective::AllGather, c, 4, None).unwrap_err();
        assert_eq!(
            err,
            MeshError::BadCollective {
                participants: 0,
                words: 4
            }
        );
        assert!(
            err.to_string().contains("at least two participating"),
            "{err}"
        );
    }

    #[test]
    fn empty_payload_is_a_coded_error() {
        let c = cfg(Topology::square(16, MemifPlacement::SingleCorner));
        for collective in [
            Collective::AllToAll,
            Collective::AllGather,
            Collective::AllReduce,
        ] {
            let err = run_mesh_collective(collective, c, 0, None).unwrap_err();
            assert_eq!(
                err,
                MeshError::BadCollective {
                    participants: 15,
                    words: 0
                },
                "{collective:?}"
            );
        }
    }
}
