//! Collective-operation phase schedules on the P-sync SCA machine.
//!
//! The photonic fabric has no node-to-node links: every collective routes
//! through the head node's DRAM as SCA gather passes (nodes → memory) and
//! SCA⁻¹ scatter passes (memory → nodes), the machine billing bus slots,
//! DRAM cycles and compute nanoseconds per phase exactly as for the FFT
//! applications. Real data moves: the runner seeds deterministic per-node
//! send buffers, drives them through the simulated bus, and returns what
//! each node captured, so tests can check collective *semantics* (e.g. the
//! all-reduce really sums) and goldens can fingerprint payload bytes.
//!
//! Phase decompositions (P processors, `words` words per node):
//!
//! * **all-to-all** — `gather` the P·`words`-word send buffers src-major
//!   into DRAM, then `scatter` with a transposed address walk: node `d`'s
//!   slots read `src·P·words + d·words + j`, the SCA corner turn.
//! * **all-gather** — `gather` each node's block, then `broadcast` the
//!   whole P·`words` buffer to every node (address walk repeats).
//! * **all-reduce** — `gather` the operands; `shard_scatter` shard `d`
//!   (`⌈words/P⌉` words, last shard ragged) of *every* source to node `d`;
//!   `reduce` on-node (elementwise sum, billed at `mult_ns` per element
//!   like the FFT butterflies); `gather_reduced` the shards back —
//!   concatenated they are exactly the reduced vector; `broadcast` it.
//!
//! Phase names follow [`Collective::phase_name`]
//! (`collective.<op>.<phase>`), so with machine telemetry attached the
//! spans land on the same `("psync", "phases")` track as the FFT phases,
//! alongside the mesh side's identically-named spans
//! (`emesh::collectives`).

use pscan::compiler::{GatherSpec, ScatterSpec};
use sim_core::collective::Collective;

use crate::machine::{Machine, MachineError};

/// Result of one collective run on the SCA machine.
#[derive(Debug, Clone, PartialEq)]
pub struct ScaCollectiveResult {
    /// Which collective ran.
    pub collective: Collective,
    /// Participating processors.
    pub participants: usize,
    /// Payload words each node contributed.
    pub words: usize,
    /// Executed phase names, in order.
    pub phase_names: Vec<String>,
    /// Bus slots billed across the collective's phases.
    pub bus_slots: u64,
    /// DRAM cycles billed across the collective's phases.
    pub dram_cycles: u64,
    /// Compute nanoseconds billed (all-reduce's `reduce` phase; 0 else).
    pub compute_ns: f64,
    /// Wall-clock seconds across the collective's phases.
    pub seconds: f64,
    /// What each node holds after the collective (per-node receive
    /// buffers, slot order).
    pub received: Vec<Vec<u64>>,
}

impl ScaCollectiveResult {
    /// Order-sensitive FNV-1a fingerprint over the integer observables and
    /// every received payload word — the golden-determinism handle.
    /// (Float seconds are derived from `bus_slots`/`dram_cycles`/compute
    /// and deliberately excluded.)
    pub fn fingerprint(&self) -> u64 {
        fn eat(h: &mut u64, bytes: impl IntoIterator<Item = u8>) {
            for b in bytes {
                *h ^= u64::from(b);
                *h = h.wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        eat(&mut h, (self.participants as u64).to_le_bytes());
        eat(&mut h, (self.words as u64).to_le_bytes());
        eat(&mut h, self.bus_slots.to_le_bytes());
        eat(&mut h, self.dram_cycles.to_le_bytes());
        for name in &self.phase_names {
            eat(&mut h, name.bytes());
        }
        for node in &self.received {
            for &w in node {
                eat(&mut h, w.to_le_bytes());
            }
        }
        h
    }
}

/// The deterministic send buffer the runner seeds on node `i`: for
/// all-to-all, word `d·words + j` is destined to node `d`; the other
/// collectives treat it as one `words`-word block (its first `words`
/// words). Encodes `(i, position)` injectively so delivery errors are
/// visible in payload bytes.
pub(crate) fn seed_words(i: usize, p: usize, words: usize, collective: Collective) -> Vec<u64> {
    let len = match collective {
        Collective::AllToAll => p * words,
        Collective::AllGather | Collective::AllReduce => words,
    };
    (0..len).map(|k| (i * p * words + k + 1) as u64).collect()
}

/// Run `collective` on `machine` with `words` payload words per node,
/// seeding send buffers via `seed_words`. DRAM must hold `P²·words`
/// words for all-to-all / all-gather and `P·words` for all-reduce.
///
/// # Panics
/// Panics if the machine has fewer than two processors, `words` is zero,
/// or DRAM is too small; bus/DRAM protocol failures surface as
/// [`MachineError`].
pub fn run_sca_collective(
    machine: &mut Machine,
    collective: Collective,
    words: usize,
) -> Result<ScaCollectiveResult, MachineError> {
    let p = machine.nodes.len();
    assert!(p >= 2, "collective needs at least two processors, got {p}");
    assert!(words >= 1, "collective payload must be at least one word");
    let dram_needed = match collective {
        Collective::AllToAll | Collective::AllGather => p * p * words,
        Collective::AllReduce => p * words,
    };
    assert!(
        machine.config().dram_words >= dram_needed,
        "collective {} over {p} procs x {words} words needs {dram_needed} \
         DRAM words, machine has {}",
        collective.label(),
        machine.config().dram_words
    );
    let send: Vec<Vec<u64>> = (0..p)
        .map(|i| seed_words(i, p, words, collective))
        .collect();
    let phases_before = machine.phases.len();

    let received = match collective {
        Collective::AllToAll => {
            // SCA in: src-major [src][dst][word] image of all send buffers.
            let gather = GatherSpec::blocked(p, p * words);
            let addrs: Vec<u64> = (0..(p * p * words) as u64).collect();
            machine.try_gather_to_memory(
                &collective.phase_name("gather"),
                &gather,
                &send,
                &addrs,
            )?;
            // SCA⁻¹ out: transposed walk delivers dst-major blocks.
            let scatter = ScatterSpec::blocked(p, p * words);
            let mut out_addrs = Vec::with_capacity(p * p * words);
            for d in 0..p {
                for s in 0..p {
                    for j in 0..words {
                        out_addrs.push((s * p * words + d * words + j) as u64);
                    }
                }
            }
            machine.try_scatter_from_memory(
                &collective.phase_name("scatter"),
                &out_addrs,
                &scatter,
            )?
        }
        Collective::AllGather => {
            let gather = GatherSpec::blocked(p, words);
            let addrs: Vec<u64> = (0..(p * words) as u64).collect();
            machine.try_gather_to_memory(
                &collective.phase_name("gather"),
                &gather,
                &send,
                &addrs,
            )?;
            // Every node detects a full copy of the gathered buffer.
            let scatter = ScatterSpec::blocked(p, p * words);
            let out_addrs: Vec<u64> = (0..p).flat_map(|_| 0..(p * words) as u64).collect();
            machine.try_scatter_from_memory(
                &collective.phase_name("broadcast"),
                &out_addrs,
                &scatter,
            )?
        }
        Collective::AllReduce => {
            let shard = words.div_ceil(p);
            // (1) SCA in: [src][word] operand image.
            let gather = GatherSpec::blocked(p, words);
            let addrs: Vec<u64> = (0..(p * words) as u64).collect();
            machine.try_gather_to_memory(
                &collective.phase_name("gather"),
                &gather,
                &send,
                &addrs,
            )?;
            // (2) SCA⁻¹: shard d of every source to node d (ragged last
            // shard when P ∤ words).
            let shard_scatter = ScatterSpec {
                slot_dest: (0..p * words).map(|k| (k % words) / shard).collect(),
            };
            let shards = machine.try_scatter_from_memory(
                &collective.phase_name("shard_scatter"),
                &addrs,
                &shard_scatter,
            )?;
            // (3) On-node elementwise reduction across the P copies,
            // billed like the FFT's multiplies.
            let shard_len = |d: usize| words.min((d + 1) * shard).saturating_sub(d * shard);
            let reduced: Vec<Vec<u64>> = shards
                .iter()
                .enumerate()
                .map(|(d, copies)| {
                    let len = shard_len(d);
                    (0..len)
                        .map(|j| (0..p).map(|s| copies[s * len + j]).sum())
                        .collect()
                })
                .collect();
            machine.compute_phase(&collective.phase_name("reduce"), |n| {
                let ops = ((p - 1) * shard_len(n.id)) as u64;
                n.multiplies += ops;
                let ns = ops as f64 * n.exec.mult_ns;
                n.compute_ns += ns;
                ns
            });
            // (4) SCA in: shards concatenate to exactly the reduced vector.
            let gather_red = GatherSpec {
                slot_source: (0..p)
                    .flat_map(|d| std::iter::repeat_n(d, shard_len(d)))
                    .collect(),
            };
            let red_addrs: Vec<u64> = (0..words as u64).collect();
            machine.try_gather_to_memory(
                &collective.phase_name("gather_reduced"),
                &gather_red,
                &reduced,
                &red_addrs,
            )?;
            // (5) SCA⁻¹: broadcast the reduced vector to every node.
            let bcast = ScatterSpec::blocked(p, words);
            let out_addrs: Vec<u64> = (0..p).flat_map(|_| 0..words as u64).collect();
            machine.try_scatter_from_memory(
                &collective.phase_name("broadcast"),
                &out_addrs,
                &bcast,
            )?
        }
    };

    let run = &machine.phases[phases_before..];
    Ok(ScaCollectiveResult {
        collective,
        participants: p,
        words,
        phase_names: run.iter().map(|t| t.name.clone()).collect(),
        bus_slots: run.iter().map(|t| t.bus_slots).sum(),
        dram_cycles: run.iter().map(|t| t.dram_cycles).sum(),
        compute_ns: run.iter().map(|t| t.compute_ns).sum(),
        seconds: run.iter().map(|t| t.seconds).sum(),
        received,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machine::MachineConfig;

    fn machine(procs: usize, words: usize) -> Machine {
        Machine::new(MachineConfig::paper_default(procs, procs * procs * words))
    }

    #[test]
    fn all_to_all_delivers_transposed_blocks() {
        let (p, words) = (4, 3);
        let mut m = machine(p, words);
        let r = run_sca_collective(&mut m, Collective::AllToAll, words).unwrap();
        assert_eq!(
            r.phase_names,
            ["collective.alltoall.gather", "collective.alltoall.scatter"]
        );
        let send: Vec<Vec<u64>> = (0..p)
            .map(|i| seed_words(i, p, words, Collective::AllToAll))
            .collect();
        for d in 0..p {
            // Node d's buffer is src-major: src s's block for d.
            for (s, sent) in send.iter().enumerate() {
                for j in 0..words {
                    assert_eq!(
                        r.received[d][s * words + j],
                        sent[d * words + j],
                        "dst {d} src {s} word {j}"
                    );
                }
            }
        }
    }

    #[test]
    fn all_gather_gives_every_node_the_full_buffer() {
        let (p, words) = (4, 5);
        let mut m = machine(p, words);
        let r = run_sca_collective(&mut m, Collective::AllGather, words).unwrap();
        let full: Vec<u64> = (0..p)
            .flat_map(|i| seed_words(i, p, words, Collective::AllGather))
            .collect();
        for d in 0..p {
            assert_eq!(r.received[d], full, "node {d}");
        }
    }

    #[test]
    fn all_reduce_sums_even_with_ragged_shards() {
        // words = 10, p = 4 ⇒ shards of 3/3/3/1.
        let (p, words) = (4, 10);
        let mut m = machine(p, words);
        let r = run_sca_collective(&mut m, Collective::AllReduce, words).unwrap();
        let expect: Vec<u64> = (0..words)
            .map(|j| {
                (0..p)
                    .map(|i| seed_words(i, p, words, Collective::AllReduce)[j])
                    .sum()
            })
            .collect();
        for d in 0..p {
            assert_eq!(r.received[d], expect, "node {d}");
        }
        assert_eq!(r.phase_names.len(), 5);
        assert!(r.compute_ns > 0.0, "reduce phase must bill compute time");
        let mults: u64 = m.nodes.iter().map(|n| n.multiplies).sum();
        // (P−1) ops per reduced element, summed over the ragged shards.
        assert_eq!(mults, ((p - 1) * words) as u64);
    }

    #[test]
    fn phases_land_on_machine_timeline_and_telemetry() {
        let (p, words) = (4, 4);
        let mut m = machine(p, words);
        m.enable_telemetry();
        let r = run_sca_collective(&mut m, Collective::AllReduce, words).unwrap();
        assert!(r.seconds > 0.0);
        assert!((m.total_seconds() - r.seconds).abs() < 1e-12);
        let reg = m.take_telemetry().unwrap();
        let trace = reg.chrome_trace_json();
        for phase in [
            "gather",
            "shard_scatter",
            "reduce",
            "gather_reduced",
            "broadcast",
        ] {
            assert!(
                trace.contains(&format!("collective.allreduce.{phase}")),
                "missing span for {phase}"
            );
        }
    }

    #[test]
    fn fingerprint_is_stable_and_discriminating() {
        let run = |c, words| {
            let mut m = machine(4, words);
            run_sca_collective(&mut m, c, words).unwrap().fingerprint()
        };
        // Repeat-run identity for every builder, mirroring the mesh side's
        // collective_identity suite.
        for c in Collective::ALL {
            assert_eq!(run(c, 3), run(c, 3), "{}", c.label());
            assert_ne!(run(c, 3), run(c, 4), "{}", c.label());
        }
        // And the builders are mutually distinct at equal sizing.
        assert_ne!(run(Collective::AllToAll, 3), run(Collective::AllGather, 3));
        assert_ne!(run(Collective::AllGather, 3), run(Collective::AllReduce, 3));
    }

    #[test]
    #[should_panic(expected = "DRAM words")]
    fn undersized_dram_is_rejected_up_front() {
        let mut m = Machine::new(MachineConfig::paper_default(4, 8));
        let _ = run_sca_collective(&mut m, Collective::AllToAll, 4);
    }
}
