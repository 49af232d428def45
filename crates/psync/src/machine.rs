//! The assembled P-sync machine — paper Fig. 6.
//!
//! Processors share the PSCAN waveguide; the head node owns DRAM at the
//! waveguide end; the photonic clock generator defines the slot timebase.
//! The machine executes *phases*: SCA⁻¹ deliveries from memory, local
//! compute, and SCA writebacks to memory — with real data flowing through
//! the simulated bus and real cycles accounted on both the bus and DRAM.
//!
//! Bandwidth convention: the machine uses a WDM plan whose bus word is
//! 64 bits per slot (one `S_s = 64`-bit sample per bus cycle), matching the
//! Table III arithmetic (`S_b = 64`), with the aggregate fixed at the
//! paper's 320 Gb/s. DRAM's 64-bit bus runs at the same rate, so bus slots
//! and DRAM beats are the same currency.

use memory::DramConfig;
use photonics::wdm::WavelengthPlan;
use pscan::compiler::{GatherSpec, ScatterSpec};
use pscan::faults::{PscanError, PscanFaultConfig};
use pscan::network::{Pscan, PscanConfig};
use sim_core::telemetry::Registry;

use crate::head::HeadNode;
use crate::node::{ExecParams, Node};

/// Structured errors from the machine's protocol paths (replacing the
/// panics that used to sit on the hot scatter/gather code).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MachineError {
    /// The PSCAN rejected or could not recover a transaction.
    Pscan(PscanError),
    /// A gather burst arrived with an empty wavefront slot — a CP/schedule
    /// bug, since SCA writebacks must be gap-free.
    GatherUnderrun {
        /// First empty slot index.
        slot: usize,
        /// Observed utilization.
        utilization_ppm: u64,
    },
    /// The link layer exhausted its retries and every protocol-level
    /// re-issue of the SCA pass failed too.
    ScaReissueExhausted {
        /// SCA passes attempted (1 + re-issues).
        passes: u32,
        /// Corrupted words observed on the final pass.
        last_corrupted: u64,
    },
    /// The machine was interrupted by the installed
    /// [`sim_core::cancel::Interrupt`] at a phase boundary. (Cancellations
    /// that fire *inside* a gather's retry loop surface as
    /// [`MachineError::Pscan`] wrapping [`PscanError::Cancelled`].)
    Cancelled {
        /// Phases completed before the interrupt fired.
        phases_done: usize,
        /// Which interrupt source fired.
        cause: sim_core::cancel::CancelCause,
    },
}

impl std::fmt::Display for MachineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MachineError::Pscan(e) => write!(f, "pscan: {e}"),
            MachineError::GatherUnderrun {
                slot,
                utilization_ppm,
            } => write!(
                f,
                "SCA gather underrun at slot {slot} (utilization {} ppm); \
                 writebacks must be gap-free",
                utilization_ppm
            ),
            MachineError::ScaReissueExhausted {
                passes,
                last_corrupted,
            } => write!(
                f,
                "SCA pass failed {passes} times (link-layer retries exhausted each \
                 time; {last_corrupted} corrupted words on the final pass)"
            ),
            MachineError::Cancelled { phases_done, cause } => write!(
                f,
                "machine Cancelled after {phases_done} completed phases ({cause})"
            ),
        }
    }
}

impl std::error::Error for MachineError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            MachineError::Pscan(e) => Some(e),
            _ => None,
        }
    }
}

impl From<PscanError> for MachineError {
    fn from(e: PscanError) -> Self {
        MachineError::Pscan(e)
    }
}

/// Machine configuration.
#[derive(Debug, Clone)]
pub struct MachineConfig {
    /// Processor count (taps on the bus).
    pub procs: usize,
    /// Die edge in mm.
    pub die_mm: f64,
    /// WDM plan; default 64 λ × 5 Gb/s → a 64-bit bus word per slot at
    /// 320 Gb/s aggregate.
    pub plan: WavelengthPlan,
    /// DRAM configuration.
    pub dram: DramConfig,
    /// DRAM capacity in 64-bit words.
    pub dram_words: usize,
    /// Execution-unit timing.
    pub exec: ExecParams,
}

impl MachineConfig {
    /// The paper's baseline machine for `procs` processors and
    /// `dram_words` of storage: 20 mm die, 64 λ × 5 Gb/s plan (64-bit bus
    /// word at 320 Gb/s), ideal DRAM. Refine with the `with_*` builders:
    ///
    /// ```
    /// use memory::DramConfig;
    /// use psync::machine::MachineConfig;
    /// let cfg = MachineConfig::paper_default(4, 256).with_dram(DramConfig::default());
    /// assert_eq!(cfg.procs, 4);
    /// ```
    pub fn paper_default(procs: usize, dram_words: usize) -> Self {
        MachineConfig {
            procs,
            die_mm: 20.0,
            plan: WavelengthPlan::new(64, 5.0),
            dram: DramConfig::ideal_paper(),
            dram_words,
            exec: ExecParams::default(),
        }
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

    /// Replace the DRAM configuration.
    #[must_use]
    pub fn with_dram(mut self, dram: DramConfig) -> Self {
        self.dram = dram;
        self
    }
}

/// Timing record of one executed phase.
#[derive(Debug, Clone)]
pub struct PhaseTiming {
    /// Phase label.
    pub name: String,
    /// Bus slots occupied (including transaction header slots).
    pub bus_slots: u64,
    /// DRAM cycles consumed.
    pub dram_cycles: u64,
    /// Compute nanoseconds (compute phases only).
    pub compute_ns: f64,
    /// Wall-clock seconds: bus and DRAM pipeline against each other, so the
    /// slower of the two (plus compute, which does not overlap within a
    /// phase under Model I) sets the pace.
    pub seconds: f64,
    /// Recovery retries absorbed by this phase (link-layer CRC retries plus
    /// whole-pass SCA re-issues); 0 on clean runs.
    pub retries: u64,
}

/// The machine.
#[derive(Debug)]
pub struct Machine {
    cfg: MachineConfig,
    pscan: Pscan,
    /// The head node (public for result inspection).
    pub head: HeadNode,
    /// The processing elements.
    pub nodes: Vec<Node>,
    /// Executed phase log.
    pub phases: Vec<PhaseTiming>,
    /// Whole-pass SCA re-issues allowed per gather when the link layer's own
    /// retry budget is spent.
    pub sca_reissue_limit: u32,
    /// Telemetry registry; `None` (the default) leaves the phase paths
    /// untouched. Phase spans live on the machine's wall-clock timeline,
    /// rendered at one microsecond of trace time per simulated microsecond.
    telemetry: Option<Registry>,
    /// Cooperative interrupt, polled at every phase boundary (scatter /
    /// gather entry). `None` (the default) leaves the phase paths
    /// untouched.
    interrupt: Option<sim_core::cancel::Interrupt>,
}

impl Machine {
    /// Assemble a machine.
    pub fn new(cfg: MachineConfig) -> Self {
        let pscan = Pscan::new(PscanConfig {
            nodes: cfg.procs,
            die_mm: cfg.die_mm,
            plan: cfg.plan.clone(),
        });
        let head = HeadNode::new(cfg.dram, cfg.dram_words);
        let nodes = (0..cfg.procs).map(|i| Node::new(i, cfg.exec)).collect();
        Machine {
            cfg,
            pscan,
            head,
            nodes,
            phases: Vec::new(),
            sca_reissue_limit: 3,
            telemetry: None,
            interrupt: None,
        }
    }

    /// Install a cooperative [`sim_core::cancel::Interrupt`] on the machine
    /// *and* (a clone of it) on its PSCAN: phase boundaries abort with
    /// [`MachineError::Cancelled`], and a gather's link-layer retry loop
    /// aborts with [`PscanError::Cancelled`] between attempts. Replaces
    /// any earlier interrupt; with none installed every protocol path is
    /// untouched.
    pub fn set_interrupt(&mut self, interrupt: sim_core::cancel::Interrupt) {
        self.pscan.set_interrupt(interrupt.clone());
        self.interrupt = Some(interrupt);
    }

    /// Remove the installed interrupt from the machine and its PSCAN.
    pub fn clear_interrupt(&mut self) {
        self.pscan.clear_interrupt();
        self.interrupt = None;
    }

    /// Poll the interrupt at a phase boundary.
    fn check_interrupt(&mut self) -> Result<(), MachineError> {
        if let Some(intr) = self.interrupt.as_mut() {
            if let Some(cause) = intr.check(self.phases.len() as u64) {
                return Err(MachineError::Cancelled {
                    phases_done: self.phases.len(),
                    cause,
                });
            }
        }
        Ok(())
    }

    /// Attach (or replace) a telemetry registry on the machine *and* its
    /// PSCAN. Every executed phase records a `psync.phase` span (process
    /// `psync`, track `phases`) annotated with its bus/DRAM/retry bill;
    /// the PSCAN contributes per-CP drive/listen spans and CRC counters.
    pub fn enable_telemetry(&mut self) {
        self.telemetry = Some(Registry::new());
        self.pscan.enable_telemetry();
    }

    /// The machine-level telemetry registry, if attached (PSCAN series
    /// live in the PSCAN's own registry until [`Machine::take_telemetry`]).
    pub fn telemetry(&self) -> Option<&Registry> {
        self.telemetry.as_ref()
    }

    /// Detach and return the merged telemetry of the machine and its
    /// PSCAN.
    pub fn take_telemetry(&mut self) -> Option<Registry> {
        let reg = self.telemetry.take()?;
        if let Some(bus) = self.pscan.take_telemetry() {
            reg.merge(bus);
        }
        Some(reg)
    }

    /// Attach the photonic fault layer (per-word corruption at the
    /// configured rate, with CRC/retry recovery) to the machine's PSCAN. Zero-rate configs leave
    /// every timing bit-identical to an un-faulted machine.
    pub fn enable_faults(&mut self, cfg: PscanFaultConfig) {
        self.pscan.set_faults(cfg);
    }

    /// Aggregate fault statistics from the PSCAN, if the layer is attached.
    pub fn fault_stats(&self) -> Option<sim_core::faults::FaultStats> {
        self.pscan.faults().map(|f| f.stats)
    }

    /// The configured slot period in seconds.
    pub fn slot_secs(&self) -> f64 {
        self.cfg.plan.slot().as_secs_f64()
    }

    /// Header slots charged for moving `payload_slots` 64-bit words in
    /// DRAM-row transactions: one `S_h` header per `S_r` of payload
    /// (Table III's 33-cycles-per-32-beat-row).
    pub fn header_slots(&self, payload_slots: u64) -> u64 {
        let row_words = self.cfg.dram.row_bits / 64;
        payload_slots.div_ceil(row_words)
    }

    /// The machine's configuration.
    pub fn config(&self) -> &MachineConfig {
        &self.cfg
    }

    /// SCA⁻¹: stream DRAM words at `addrs` (slot order) onto the bus and
    /// deliver per `spec`; each node's captured words are returned.
    /// Records a phase.
    ///
    /// Asserting wrapper over `Machine::try_scatter_from_memory`.
    ///
    /// # Panics
    /// Panics on protocol failure; use the fallible path for a structured
    /// error.
    pub fn scatter_from_memory(
        &mut self,
        name: &str,
        addrs: &[u64],
        spec: &ScatterSpec,
    ) -> Vec<Vec<u64>> {
        self.try_scatter_from_memory(name, addrs, spec)
            .expect("scatter_from_memory: bus rejected the SCA pass")
    }

    /// Fallible [`Machine::scatter_from_memory`]: bus rejections surface as
    /// [`MachineError::Pscan`] instead of a panic.
    pub(crate) fn try_scatter_from_memory(
        &mut self,
        name: &str,
        addrs: &[u64],
        spec: &ScatterSpec,
    ) -> Result<Vec<Vec<u64>>, MachineError> {
        assert_eq!(addrs.len() as u64, spec.total_slots());
        self.check_interrupt()?;
        let (burst, dram_cycles) = self.head.stream_out(addrs.iter().copied());
        let out = self.pscan.scatter(spec, &burst).map_err(PscanError::from)?;
        let payload = spec.total_slots();
        let headers = self.header_slots(payload);
        let bus_slots = payload + headers;
        self.log_phase(name, bus_slots, dram_cycles, 0.0, 0);
        Ok(out.delivered)
    }

    /// SCA: gather per-node words (in each node's CP slot order) into a
    /// monolithic burst and write it to DRAM at `addrs[k]` for slot `k`.
    /// Records a phase and returns the coalesced words.
    ///
    /// Asserting wrapper over [`Machine::try_gather_to_memory`].
    ///
    /// # Panics
    /// Panics on protocol failure; use the fallible path for a structured
    /// error.
    pub fn gather_to_memory(
        &mut self,
        name: &str,
        spec: &GatherSpec,
        node_words: &[Vec<u64>],
        addrs: &[u64],
    ) -> Vec<u64> {
        self.try_gather_to_memory(name, spec, node_words, addrs)
            .expect("gather_to_memory: SCA pass failed")
    }

    /// Fallible [`Machine::gather_to_memory`]. With a fault layer attached
    /// ([`Machine::enable_faults`]) the gather runs CRC-checked: link-layer
    /// retries are absorbed into the phase's bus-slot bill, and if the link
    /// layer exhausts its budget the whole SCA pass is re-issued up to
    /// [`Machine::sca_reissue_limit`] times before surfacing
    /// [`MachineError::ScaReissueExhausted`]. Gap-containing bursts surface
    /// as [`MachineError::GatherUnderrun`] instead of an assert.
    pub fn try_gather_to_memory(
        &mut self,
        name: &str,
        spec: &GatherSpec,
        node_words: &[Vec<u64>],
        addrs: &[u64],
    ) -> Result<Vec<u64>, MachineError> {
        assert_eq!(addrs.len() as u64, spec.total_slots());
        self.check_interrupt()?;
        let burst = spec.total_slots();
        let mut passes = 0u32;
        let mut retries_total = 0u64;
        let mut extra_slots = 0u64;
        let out = loop {
            passes += 1;
            if self.pscan.faults().is_none() {
                break self
                    .pscan
                    .gather(spec, node_words)
                    .map_err(PscanError::from)
                    .map_err(MachineError::from)?;
            }
            match self.pscan.gather_reliable(spec, node_words) {
                Ok(rel) => {
                    retries_total += u64::from(rel.retries);
                    extra_slots += rel.slots_on_bus - burst;
                    break rel.outcome;
                }
                Err(PscanError::RetriesExhausted {
                    attempts,
                    corrupted_words,
                }) => {
                    // The failed pass still burned the bus: every attempt's
                    // burst plus the backoffs between them. Bill it, then
                    // re-issue the pass or give up.
                    let fcfg = self.pscan.faults().expect("checked above").cfg;
                    let backoffs: u64 = (1..attempts).map(|a| fcfg.backoff_slots(a)).sum();
                    extra_slots += u64::from(attempts) * burst + backoffs;
                    // attempts − 1 link retries, plus this pass's re-issue.
                    retries_total += u64::from(attempts);
                    if passes > self.sca_reissue_limit {
                        return Err(MachineError::ScaReissueExhausted {
                            passes,
                            last_corrupted: corrupted_words,
                        });
                    }
                }
                // Bus rejections and mid-retry cancellations are not
                // recoverable by re-issuing the pass.
                Err(e @ (PscanError::Bus(_) | PscanError::Cancelled { .. })) => {
                    return Err(e.into())
                }
            }
        };
        let mut words = Vec::with_capacity(out.received.len());
        for (slot, &w) in out.received.iter().enumerate() {
            let Some(w) = w else {
                return Err(MachineError::GatherUnderrun {
                    slot,
                    utilization_ppm: (out.utilization * 1e6).round() as u64,
                });
            };
            words.push(w);
        }
        let dram_cycles = self
            .head
            .stream_in(addrs.iter().copied().zip(words.iter().copied()));
        let payload = spec.total_slots();
        let headers = self.header_slots(payload);
        self.log_phase(
            name,
            payload + headers + extra_slots,
            dram_cycles,
            0.0,
            retries_total,
        );
        Ok(words)
    }

    /// Run a compute step on every node: `f(node) -> ns`. The phase time is
    /// the max across nodes (they run in parallel).
    pub fn compute_phase(&mut self, name: &str, mut f: impl FnMut(&mut Node) -> f64) {
        let mut max_ns: f64 = 0.0;
        for n in &mut self.nodes {
            max_ns = max_ns.max(f(n));
        }
        self.log_phase(name, 0, 0, max_ns, 0);
    }

    fn log_phase(
        &mut self,
        name: &str,
        bus_slots: u64,
        dram_cycles: u64,
        compute_ns: f64,
        retries: u64,
    ) {
        let slot = self.slot_secs();
        let comm = (bus_slots.max(dram_cycles)) as f64 * slot;
        let seconds = comm + compute_ns * 1e-9;
        if let Some(reg) = &self.telemetry {
            // The machine's phases are strictly sequential, so the span
            // starts where the previous phases' seconds left off.
            let start_s = self.total_seconds();
            reg.span(
                "psync",
                "phases",
                name,
                start_s * 1e6,
                seconds * 1e6,
                &[
                    ("bus_slots", bus_slots.to_string()),
                    ("dram_cycles", dram_cycles.to_string()),
                    ("compute_ns", format!("{compute_ns:.1}")),
                    ("retries", retries.to_string()),
                ],
            );
            reg.counter_add("psync.phase.count", 1);
            reg.counter_add("psync.phase.retries", retries);
            reg.counter_add("psync.phase.bus_slots", bus_slots);
            reg.counter_add("psync.phase.dram_cycles", dram_cycles);
        }
        self.phases.push(PhaseTiming {
            name: name.to_string(),
            bus_slots,
            dram_cycles,
            compute_ns,
            seconds,
            retries,
        });
    }

    /// Total wall-clock seconds across all executed phases.
    pub fn total_seconds(&self) -> f64 {
        self.phases.iter().map(|p| p.seconds).sum()
    }

    /// Find a phase by name.
    pub fn phase(&self, name: &str) -> Option<&PhaseTiming> {
        self.phases.iter().find(|p| p.name == name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scatter_then_gather_roundtrip() {
        let mut m = Machine::new(MachineConfig::paper_default(4, 256));
        m.head
            .fill(0, &(0..64u64).map(|i| i * 3).collect::<Vec<_>>());
        // Deliver words 0..64 blocked: node i gets 16.
        let spec = ScatterSpec::blocked(4, 16);
        let addrs: Vec<u64> = (0..64).collect();
        let delivered = m.scatter_from_memory("deliver", &addrs, &spec);
        assert_eq!(delivered[1][0], 48); // word 16 -> 16*3
                                         // Gather them back, interleaved, to 64..128.
        let gspec = GatherSpec::interleaved(4, 4, 4);
        let back_addrs: Vec<u64> = (64..128).collect();
        let words = m.gather_to_memory("writeback", &gspec, &delivered, &back_addrs);
        assert_eq!(words.len(), 64);
        // Slot 0..4 come from node 0's first 4 words.
        assert_eq!(words[0], 0);
        assert_eq!(words[4], 48);
        assert_eq!(m.head.read_region(64, 1), &[0]);
        assert_eq!(m.phases.len(), 2);
    }

    #[test]
    fn header_accounting_matches_table3() {
        // 2^20 payload slots with 2048-bit rows -> 32768 headers ->
        // 1,081,344 total bus slots.
        let m = Machine::new(MachineConfig::paper_default(4, 16));
        let payload = 1u64 << 20;
        assert_eq!(m.header_slots(payload), 32_768);
        assert_eq!(payload + m.header_slots(payload), 1_081_344);
    }

    #[test]
    fn phase_seconds_take_the_slower_pipe() {
        let mut m = Machine::new(MachineConfig::paper_default(2, 128));
        m.head.fill(0, &[1; 64]);
        let spec = ScatterSpec::blocked(2, 32);
        let addrs: Vec<u64> = (0..64).collect();
        m.scatter_from_memory("d", &addrs, &spec);
        let p = &m.phases[0];
        // Ideal DRAM streams 64 words in 64 cycles; bus moves 64 + headers.
        assert_eq!(p.dram_cycles, 64);
        assert_eq!(p.bus_slots, 64 + m.header_slots(64));
        assert!((p.seconds - p.bus_slots as f64 * m.slot_secs()).abs() < 1e-15);
    }

    #[test]
    fn compute_phase_takes_parallel_max() {
        let mut m = Machine::new(MachineConfig::paper_default(3, 16));
        let mut i = 0.0;
        m.compute_phase("c", |_| {
            i += 100.0;
            i
        });
        let p = m.phase("c").unwrap();
        assert!((p.compute_ns - 300.0).abs() < 1e-12);
        assert!((p.seconds - 300e-9).abs() < 1e-18);
    }

    #[test]
    fn faulty_gather_recovers_and_bills_retries() {
        let run = |rate: f64, seed: u64| {
            let mut m = Machine::new(MachineConfig::paper_default(4, 256));
            m.enable_faults(PscanFaultConfig {
                seed,
                word_error_rate: rate,
                max_retries: 64,
                ..Default::default()
            });
            let words: Vec<Vec<u64>> = (0..4).map(|n| vec![n as u64; 8]).collect();
            let spec = GatherSpec::interleaved(4, 4, 2);
            let addrs: Vec<u64> = (0..32).collect();
            let got = m
                .try_gather_to_memory("wb", &spec, &words, &addrs)
                .expect("recovers");
            (got, m.phases[0].clone())
        };
        // Clean run: no retries, baseline slot bill.
        let (clean_words, clean) = run(0.0, 1);
        assert_eq!(clean.retries, 0);
        // Faulty run: same data lands, retries recorded, bus bill grows.
        let (noisy_words, noisy) = run(0.05, 2);
        assert_eq!(noisy_words, clean_words, "retransmits carry clean data");
        assert!(noisy.retries > 0, "5% over 32 words must trip the CRC");
        assert!(noisy.bus_slots > clean.bus_slots);
        assert!(noisy.seconds > clean.seconds);
    }

    #[test]
    fn hopeless_channel_exhausts_sca_reissues() {
        let mut m = Machine::new(MachineConfig::paper_default(2, 64));
        m.sca_reissue_limit = 2;
        m.enable_faults(PscanFaultConfig {
            seed: 5,
            word_error_rate: 1.0,
            max_retries: 2,
            ..Default::default()
        });
        let words: Vec<Vec<u64>> = (0..2).map(|n| vec![n as u64; 4]).collect();
        let spec = GatherSpec::interleaved(2, 2, 2);
        let addrs: Vec<u64> = (0..8).collect();
        match m.try_gather_to_memory("wb", &spec, &words, &addrs) {
            Err(MachineError::ScaReissueExhausted {
                passes,
                last_corrupted,
            }) => {
                assert_eq!(passes, 3, "initial pass + 2 re-issues");
                assert!(last_corrupted > 0);
            }
            other => panic!("expected ScaReissueExhausted, got {other:?}"),
        }
        // The failed gather logged no phase and wrote nothing to DRAM.
        assert!(m.phases.is_empty());
    }

    #[test]
    fn faulty_machine_runs_are_deterministic() {
        let run = || {
            let mut m = Machine::new(MachineConfig::paper_default(4, 256));
            m.enable_faults(PscanFaultConfig {
                seed: 9,
                word_error_rate: 0.03,
                max_retries: 64,
                ..Default::default()
            });
            let words: Vec<Vec<u64>> = (0..4).map(|n| vec![n as u64 * 7; 8]).collect();
            let spec = GatherSpec::interleaved(4, 4, 2);
            let addrs: Vec<u64> = (0..32).collect();
            m.try_gather_to_memory("wb", &spec, &words, &addrs)
                .expect("recovers");
            let p = &m.phases[0];
            (p.bus_slots, p.retries, m.fault_stats().unwrap().injected)
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn slot_rate_is_320_gbps_with_64_bit_words() {
        let m = Machine::new(MachineConfig::paper_default(2, 16));
        assert_eq!(m.config().plan.bits_per_slot(), 64);
        assert!((m.config().plan.aggregate_gbps() - 320.0).abs() < 1e-9);
        assert!((m.slot_secs() - 200e-12).abs() < 1e-15);
    }
}
