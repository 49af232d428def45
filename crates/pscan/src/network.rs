//! The [`Pscan`] facade: configure once, then run SCA / SCA⁻¹ transactions.
//!
//! ```
//! use pscan::compiler::GatherSpec;
//! use pscan::network::{Pscan, PscanConfig};
//!
//! // Four processors interleave one word each into a coalesced burst.
//! let pscan = Pscan::new(PscanConfig { nodes: 4, ..Default::default() });
//! let spec = GatherSpec { slot_source: vec![0, 1, 2, 3] };
//! let data: Vec<Vec<u64>> = (0..4).map(|n| vec![n * 10]).collect();
//! let out = pscan.gather(&spec, &data).unwrap();
//! assert_eq!(out.utilization, 1.0); // gap-free, full line rate
//! let burst: Vec<u64> = out.received.iter().map(|w| w.unwrap()).collect();
//! assert_eq!(burst, vec![0, 10, 20, 30]);
//! ```

use photonics::energy::{EnergyBreakdown, PhotonicEnergyModel};
use photonics::waveguide::ChipLayout;
use photonics::wdm::WavelengthPlan;
use std::cell::Cell;

use serde::Serialize;
use sim_core::cancel::Interrupt;
use sim_core::invariant;
use sim_core::telemetry::Registry;
use sim_core::time::Duration;

use crate::bus::{BusError, BusSim, GatherOutcome, ScatterOutcome};
use crate::compiler::{CpCompiler, GatherSpec, ScatterSpec};
use crate::crc::crc32_words_update;
use crate::faults::{PscanError, PscanFaultConfig, PscanFaultState, ReliableGatherOutcome};

/// Configuration of a PSCAN instance.
#[derive(Debug, Clone, Serialize)]
pub struct PscanConfig {
    /// Number of processor taps.
    pub nodes: usize,
    /// Die edge in millimetres (paper: 20 mm).
    pub die_mm: f64,
    /// WDM plan (paper: 32 λ × 10 Gb/s).
    pub plan: WavelengthPlan,
}

impl Default for PscanConfig {
    fn default() -> Self {
        PscanConfig {
            nodes: 256,
            die_mm: 20.0,
            plan: WavelengthPlan::paper_320g(),
        }
    }
}

impl PscanConfig {
    /// The paper's baseline configuration (synonym of `Default`): 256
    /// processors on a 20 mm die with the 32 λ × 10 Gb/s plan. Refine with
    /// the `with_*` builders:
    ///
    /// ```
    /// use pscan::network::PscanConfig;
    /// let cfg = PscanConfig::paper_default().with_nodes(64);
    /// assert_eq!(cfg.nodes, 64);
    /// ```
    pub fn paper_default() -> Self {
        PscanConfig::default()
    }

    /// The paper's Table III configuration: 1024 processors.
    pub fn paper_1024() -> Self {
        PscanConfig::paper_default().with_nodes(1024)
    }

    /// Set the processor-tap count.
    #[must_use]
    pub fn with_nodes(mut self, nodes: usize) -> Self {
        self.nodes = nodes;
        self
    }

    /// Set the die edge in millimetres.
    #[must_use]
    pub fn with_die_mm(mut self, die_mm: f64) -> Self {
        self.die_mm = die_mm;
        self
    }

    /// Replace the WDM plan.
    #[must_use]
    pub fn with_plan(mut self, plan: WavelengthPlan) -> Self {
        self.plan = plan;
        self
    }
}

/// A configured PSCAN: compiler + bus simulator + energy model, plus an
/// optional fault layer (off by default; zero-cost when absent).
#[derive(Debug, Clone)]
pub struct Pscan {
    cfg: PscanConfig,
    bus: BusSim,
    energy: PhotonicEnergyModel,
    faults: Option<PscanFaultState>,
    /// Telemetry registry; `None` (the default) leaves the transaction
    /// paths untouched. Transactions are placed back-to-back on a
    /// bus-slot timeline (`tel_cursor`, one slot = one trace microsecond).
    telemetry: Option<Registry>,
    tel_cursor: Cell<u64>,
    /// Cooperative interrupt, polled once per retry attempt inside
    /// [`Pscan::gather_reliable`]. `None` (the default) leaves the
    /// transaction paths untouched. The single-pass [`Pscan::gather`] and
    /// [`Pscan::scatter`] are one bounded burst each and are not polled.
    interrupt: Option<Interrupt>,
}

/// Cap on per-CP drive/listen spans recorded for one transaction: a
/// finely interleaved spec over a 2^20-slot burst is a million runs, which
/// no trace viewer (or RAM budget) wants. Excess runs are counted in
/// `pscan.cp.spans_dropped` instead.
const MAX_CP_SPANS: usize = 4096;

/// Contiguous runs of the same node in a slot→node map: `(node, start,
/// len)`. This is exactly the per-CP drive (gather) or listen (scatter)
/// schedule, since a CP owns its slots in contiguous turns.
fn node_runs(slots: &[usize]) -> Vec<(usize, usize, usize)> {
    let mut runs = Vec::new();
    let mut i = 0;
    while i < slots.len() {
        let node = slots[i];
        let start = i;
        while i < slots.len() && slots[i] == node {
            i += 1;
        }
        runs.push((node, start, i - start));
    }
    runs
}

impl Pscan {
    /// Build a PSCAN over a square serpentine layout.
    pub fn new(cfg: PscanConfig) -> Self {
        let layout = ChipLayout::square(cfg.die_mm, cfg.nodes);
        let bus = BusSim::new(layout, cfg.plan.clone());
        let energy = PhotonicEnergyModel {
            plan: cfg.plan.clone(),
            ..Default::default()
        };
        Pscan {
            cfg,
            bus,
            energy,
            faults: None,
            telemetry: None,
            tel_cursor: Cell::new(0),
            interrupt: None,
        }
    }

    /// Install a cooperative [`Interrupt`]: [`Pscan::gather_reliable`]
    /// polls it before each CRC attempt and aborts with
    /// [`PscanError::Cancelled`] when a source fires. Replaces any earlier
    /// interrupt; with none installed the retry loop is untouched.
    pub fn set_interrupt(&mut self, interrupt: Interrupt) {
        self.interrupt = Some(interrupt);
    }

    /// Remove the installed interrupt.
    pub fn clear_interrupt(&mut self) {
        self.interrupt = None;
    }

    /// Attach (or replace) a telemetry registry. Each subsequent
    /// transaction records bus-occupancy counters and per-CP drive/listen
    /// spans (process `pscan`, track `cp N`), placed back-to-back on a
    /// bus-slot timeline where one slot renders as one trace microsecond.
    pub fn enable_telemetry(&mut self) {
        self.telemetry = Some(Registry::new());
        self.tel_cursor.set(0);
    }

    /// The telemetry registry, if attached.
    pub fn telemetry(&self) -> Option<&Registry> {
        self.telemetry.as_ref()
    }

    /// Detach and return the telemetry registry.
    pub fn take_telemetry(&mut self) -> Option<Registry> {
        self.telemetry.take()
    }

    /// Record one transaction: advance the slot timeline, bump bus
    /// counters, and emit one span per contiguous per-CP slot run plus a
    /// whole-burst span on the terminus track.
    fn tel_transaction(&self, kind: &str, cp_phase: &str, slots: &[usize], burst_slots: u64) {
        let Some(reg) = &self.telemetry else { return };
        let at = self.tel_cursor.get();
        self.tel_cursor.set(at + burst_slots.max(1));
        reg.counter_add("pscan.bus.slots_total", burst_slots);
        reg.counter_add(&format!("pscan.bus.{kind}s"), 1);
        reg.span(
            "pscan",
            "terminus",
            kind,
            at as f64,
            burst_slots as f64,
            &[("slots", burst_slots.to_string())],
        );
        let runs = node_runs(slots);
        for &(node, start, len) in runs.iter().take(MAX_CP_SPANS) {
            reg.span(
                "pscan",
                &format!("cp {node}"),
                cp_phase,
                (at + start as u64) as f64,
                len as f64,
                &[("slots", len.to_string())],
            );
        }
        if runs.len() > MAX_CP_SPANS {
            reg.counter_add("pscan.cp.spans_dropped", (runs.len() - MAX_CP_SPANS) as u64);
        }
    }

    /// Attach (or replace) the fault layer. The ideal [`Pscan::gather`] path
    /// is untouched; only [`Pscan::gather_reliable`] consults it.
    pub fn set_faults(&mut self, cfg: PscanFaultConfig) {
        self.faults = Some(PscanFaultState::new(cfg));
    }

    /// The fault layer, if attached.
    pub fn faults(&self) -> Option<&PscanFaultState> {
        self.faults.as_ref()
    }

    /// The configuration.
    pub fn config(&self) -> &PscanConfig {
        &self.cfg
    }

    /// The underlying bus simulator.
    pub fn bus(&self) -> &BusSim {
        &self.bus
    }

    /// One bus-slot period.
    pub fn slot(&self) -> Duration {
        self.cfg.plan.slot()
    }

    /// Compile and execute a gather in one call.
    pub fn gather(&self, spec: &GatherSpec, data: &[Vec<u64>]) -> Result<GatherOutcome, BusError> {
        let cps = CpCompiler.compile_gather(spec, self.cfg.nodes);
        let out = self.bus.gather(&cps, data)?;
        if self.telemetry.is_some() {
            self.tel_transaction(
                "gather",
                "drive",
                &spec.slot_source,
                out.received.len() as u64,
            );
        }
        Ok(out)
    }

    /// A CRC-checked gather with bounded retry — the fault-aware sibling of
    /// [`Pscan::gather`].
    ///
    /// Each attempt replays the SCA burst; the terminus corrupts received
    /// words according to the attached fault layer, checksums the burst
    /// ([`crate::crc`]) against the CRC the communication programs committed
    /// to, and on mismatch backs off exponentially (in bus slots, bounded by
    /// the config cap) before retrying. Corrupted words are attributed to the
    /// node whose CP drove the slot, giving per-CP error counters. With no
    /// fault layer (or at word error rate 0) this is exactly one clean pass
    /// and consumes no randomness.
    pub fn gather_reliable(
        &mut self,
        spec: &GatherSpec,
        data: &[Vec<u64>],
    ) -> Result<ReliableGatherOutcome, PscanError> {
        let cps = CpCompiler.compile_gather(spec, self.cfg.nodes);
        let clean = self.bus.gather(&cps, data)?;
        // The CRC the senders commit to: over the words they spliced, in
        // wavefront order (gap slots carry no word and are skipped).
        let committed_crc = clean
            .received
            .iter()
            .flatten()
            .fold(0u32, |c, &w| crc32_words_update(c, &[w]));
        let burst_slots = clean.received.len() as u64;

        let fcfg = self.faults.as_ref().map(|f| f.cfg);
        let max_attempts = fcfg.map_or(1, |c| c.max_retries + 1);
        let mut errors_by_node = vec![0u64; self.cfg.nodes];
        let mut corrupted_total = 0u64;
        let mut backoff_total = 0u64;
        let mut slots_on_bus = 0u64;

        for attempt in 1..=max_attempts {
            if let Some(intr) = self.interrupt.as_mut() {
                if let Some(cause) = intr.check(u64::from(attempt - 1)) {
                    return Err(PscanError::Cancelled { attempt, cause });
                }
            }
            slots_on_bus += burst_slots;
            let mut received = clean.received.clone();
            let mut corrupted_this_pass = 0u64;
            if let Some(state) = self.faults.as_mut() {
                for (slot, word) in received.iter_mut().enumerate() {
                    if let Some(w) = word.as_mut() {
                        if state.corrupt(w) {
                            corrupted_this_pass += 1;
                            if let Some(&node) = spec.slot_source.get(slot) {
                                if node < errors_by_node.len() {
                                    errors_by_node[node] += 1;
                                }
                            }
                        }
                    }
                }
            }
            corrupted_total += corrupted_this_pass;
            let observed_crc = received
                .iter()
                .flatten()
                .fold(0u32, |c, &w| crc32_words_update(c, &[w]));
            if observed_crc == committed_crc {
                if let Some(reg) = &self.telemetry {
                    self.tel_transaction("gather", "drive", &spec.slot_source, slots_on_bus);
                    reg.counter_add("pscan.crc.retries", u64::from(attempt - 1));
                    reg.counter_add("pscan.crc.corrupted_words", corrupted_total);
                    reg.counter_add("pscan.crc.backoff_slots", backoff_total);
                }
                // CRC/retry bookkeeping (DESIGN.md §12): every corrupted
                // word is attributed to a driving CP, and bus occupancy
                // decomposes exactly into burst passes plus backoff waits.
                invariant!(
                    errors_by_node.iter().sum::<u64>() == corrupted_total,
                    "crc accounting: per-node errors {} != corrupted words {corrupted_total}",
                    errors_by_node.iter().sum::<u64>()
                );
                invariant!(
                    slots_on_bus == u64::from(attempt) * burst_slots + backoff_total,
                    "crc accounting: {slots_on_bus} slots on bus != {attempt} bursts of \
                     {burst_slots} + {backoff_total} backoff"
                );
                let mut outcome = clean;
                outcome.received = received;
                return Ok(ReliableGatherOutcome {
                    outcome,
                    attempts: attempt,
                    retries: attempt - 1,
                    corrupted_words: corrupted_total,
                    backoff_slots: backoff_total,
                    slots_on_bus,
                    errors_by_node,
                    crc: observed_crc,
                });
            }
            if let Some(state) = self.faults.as_mut() {
                state.stats.detected += corrupted_this_pass;
                if attempt < max_attempts {
                    state.stats.retries += 1;
                    let wait = state.cfg.backoff_slots(attempt);
                    backoff_total += wait;
                    slots_on_bus += wait;
                } else {
                    state.stats.giveups += 1;
                }
            }
        }
        if let Some(reg) = &self.telemetry {
            self.tel_transaction("gather", "drive", &spec.slot_source, slots_on_bus);
            reg.counter_add("pscan.crc.retries", u64::from(max_attempts - 1));
            reg.counter_add("pscan.crc.corrupted_words", corrupted_total);
            reg.counter_add("pscan.crc.backoff_slots", backoff_total);
            reg.counter_add("pscan.crc.giveups", 1);
        }
        Err(PscanError::RetriesExhausted {
            attempts: max_attempts,
            corrupted_words: corrupted_total,
        })
    }

    /// Compile and execute a scatter in one call.
    pub fn scatter(&self, spec: &ScatterSpec, burst: &[u64]) -> Result<ScatterOutcome, BusError> {
        let cps = CpCompiler.compile_scatter(spec, self.cfg.nodes);
        let out = self.bus.scatter(&cps, burst)?;
        if self.telemetry.is_some() {
            self.tel_transaction("scatter", "listen", &spec.slot_dest, burst.len() as u64);
        }
        Ok(out)
    }

    /// Number of bus cycles to move `bits` at full utilization — the PSCAN
    /// side of Table III's arithmetic.
    pub fn cycles_for_bits(&self, bits: u64) -> u64 {
        self.cfg.plan.slots_for_bits(bits)
    }

    /// Energy breakdown per bit for SCA traffic on this configuration.
    pub fn energy_per_bit(&self) -> EnergyBreakdown {
        self.energy.sca_energy(self.bus.layout())
    }

    /// Total energy in joules for a transaction carrying `bits`.
    pub fn transaction_energy_j(&self, bits: u64) -> f64 {
        self.energy_per_bit().total_pj_per_bit() * 1e-12 * bits as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn end_to_end_gather_through_facade() {
        let p = Pscan::new(PscanConfig {
            nodes: 8,
            ..Default::default()
        });
        let spec = GatherSpec::interleaved(8, 4, 2);
        let data: Vec<Vec<u64>> = (0..8).map(|n| vec![n as u64; 8]).collect();
        let out = p.gather(&spec, &data).unwrap();
        assert_eq!(out.utilization, 1.0);
        assert_eq!(out.received.len(), 64);
        // Order: 4 slots from each node, twice around.
        assert_eq!(out.received[0], Some(0));
        assert_eq!(out.received[4], Some(1));
        assert_eq!(out.received[32], Some(0));
    }

    #[test]
    fn end_to_end_scatter_through_facade() {
        let p = Pscan::new(PscanConfig {
            nodes: 4,
            ..Default::default()
        });
        let spec = ScatterSpec::blocked(4, 4);
        let burst: Vec<u64> = (0..16).collect();
        let out = p.scatter(&spec, &burst).unwrap();
        assert_eq!(out.delivered[2], vec![8, 9, 10, 11]);
    }

    #[test]
    fn cycles_for_bits_matches_plan() {
        let p = Pscan::new(PscanConfig::default());
        // 2048-bit row + 64-bit header over a 32-bit bus word = 66 slots.
        assert_eq!(p.cycles_for_bits(2048 + 64), 66);
    }

    #[test]
    fn gather_reliable_without_faults_is_one_clean_pass() {
        let mut p = Pscan::new(PscanConfig {
            nodes: 4,
            ..Default::default()
        });
        let spec = GatherSpec {
            slot_source: vec![0, 1, 2, 3],
        };
        let data: Vec<Vec<u64>> = (0..4).map(|n| vec![n * 10]).collect();
        let clean = p.gather(&spec, &data).unwrap();
        let out = p.gather_reliable(&spec, &data).unwrap();
        assert_eq!(out.attempts, 1);
        assert_eq!(out.retries, 0);
        assert_eq!(out.corrupted_words, 0);
        assert_eq!(out.backoff_slots, 0);
        assert_eq!(out.outcome.received, clean.received);
        assert_eq!(out.slots_on_bus, clean.received.len() as u64);
        assert!(out.errors_by_node.iter().all(|&e| e == 0));
    }

    #[test]
    fn gather_reliable_zero_rate_matches_clean_and_draws_nothing() {
        let mut p = Pscan::new(PscanConfig {
            nodes: 4,
            ..Default::default()
        });
        p.set_faults(PscanFaultConfig {
            seed: 5,
            word_error_rate: 0.0,
            ..Default::default()
        });
        let spec = GatherSpec {
            slot_source: vec![0, 1, 2, 3],
        };
        let data: Vec<Vec<u64>> = (0..4).map(|n| vec![n + 7]).collect();
        let clean = p.gather(&spec, &data).unwrap();
        let out = p.gather_reliable(&spec, &data).unwrap();
        assert_eq!(out.outcome.received, clean.received);
        assert_eq!(out.retries, 0);
        assert_eq!(p.faults().unwrap().stats.injected, 0);
    }

    #[test]
    fn gather_reliable_retries_and_recovers_under_noise() {
        let mut p = Pscan::new(PscanConfig {
            nodes: 8,
            ..Default::default()
        });
        p.set_faults(PscanFaultConfig {
            seed: 2,
            word_error_rate: 0.05,
            max_retries: 64,
            ..Default::default()
        });
        let spec = GatherSpec::interleaved(8, 2, 2);
        let data: Vec<Vec<u64>> = (0..8).map(|n| vec![n as u64; 4]).collect();
        let clean = p.gather(&spec, &data).unwrap();
        let out = p.gather_reliable(&spec, &data).unwrap();
        // At 5% per word over a 32-word burst, a pass fails with p ≈ 0.8, so
        // the 64-retry budget recovers with near certainty (and this seed is
        // deterministic); the accepted burst is clean.
        assert!(out.retries > 0, "expected at least one retry");
        assert_eq!(out.outcome.received, clean.received);
        assert!(out.corrupted_words > 0);
        assert!(out.backoff_slots > 0);
        assert!(out.slots_on_bus > clean.received.len() as u64);
        assert_eq!(
            out.errors_by_node.iter().sum::<u64>(),
            out.corrupted_words,
            "every corrupted word is attributed to a driving CP"
        );
        let stats = p.faults().unwrap().stats;
        assert_eq!(stats.retries, u64::from(out.retries));
        assert_eq!(stats.giveups, 0);
    }

    #[test]
    fn gather_reliable_exhausts_retries_at_rate_one() {
        let mut p = Pscan::new(PscanConfig {
            nodes: 4,
            ..Default::default()
        });
        p.set_faults(PscanFaultConfig {
            seed: 3,
            word_error_rate: 1.0,
            max_retries: 3,
            ..Default::default()
        });
        let spec = GatherSpec {
            slot_source: vec![0, 1, 2, 3],
        };
        let data: Vec<Vec<u64>> = (0..4).map(|n| vec![n]).collect();
        match p.gather_reliable(&spec, &data) {
            Err(PscanError::RetriesExhausted {
                attempts,
                corrupted_words,
            }) => {
                assert_eq!(attempts, 4);
                assert!(corrupted_words >= 4);
            }
            other => panic!("expected RetriesExhausted, got {other:?}"),
        }
        assert_eq!(p.faults().unwrap().stats.giveups, 1);
    }

    #[test]
    fn gather_reliable_is_deterministic() {
        let run = || {
            let mut p = Pscan::new(PscanConfig {
                nodes: 8,
                ..Default::default()
            });
            p.set_faults(PscanFaultConfig {
                seed: 77,
                word_error_rate: 0.02,
                max_retries: 64,
                ..Default::default()
            });
            let spec = GatherSpec::interleaved(8, 4, 4);
            let data: Vec<Vec<u64>> = (0..8).map(|n| vec![n as u64; 16]).collect();
            let out = p.gather_reliable(&spec, &data).unwrap();
            (out.attempts, out.corrupted_words, out.slots_on_bus, out.crc)
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn energy_is_positive_and_finite() {
        let p = Pscan::new(PscanConfig::paper_1024());
        let e = p.energy_per_bit().total_pj_per_bit();
        assert!(e.is_finite() && e > 0.0);
        let j = p.transaction_energy_j(1 << 20);
        assert!(j > 0.0);
    }
}
