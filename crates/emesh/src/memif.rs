//! The memory-interface node: ejection, reorder staging, DRAM writeback.
//!
//! §V-C-2: arriving transpose elements are spatially scrambled by the
//! network, but DRAM wants full linear rows. The interface therefore
//! *reassembles rows in staging buffers* ("reassembled at the output node
//! using buffers (preferred)") and spends `t_p` cycles per element on
//! "address decode, transport to staging buffers and time for storage".
//! Completed rows are written to the DRAM model behind the port.

use std::collections::HashMap;

use memory::{AccessKind, DramConfig, DramController, DramStats};
use sim_core::invariant;
use sim_core::telemetry::SeriesHistogram;

use crate::flit::Flit;

/// Cap on retained row-write spans per interface: trace mode targets small
/// runs, and an unbounded log would dominate memory on the 2^20 sweeps.
const MAX_ROW_SPANS: usize = 4096;

/// Memory-interface configuration.
#[derive(Debug, Clone, Copy)]
pub struct MemifConfig {
    /// Reorder cycles per element (the paper's `t_p`).
    pub t_p: u64,
    /// DRAM behind the port.
    pub dram: DramConfig,
    /// Bits per element (`S_s`; 64 for FFT samples).
    pub element_bits: u64,
    /// Extra header beats charged per row transaction (`S_h / S_b`).
    pub header_beats: u64,
}

impl Default for MemifConfig {
    fn default() -> Self {
        MemifConfig {
            t_p: 1,
            dram: DramConfig::ideal_paper(),
            element_bits: 64,
            header_beats: 1,
        }
    }
}

/// Statistics from one memory interface.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MemifStats {
    /// Flits ejected into this interface.
    pub flits_accepted: u64,
    /// Elements (payload flits of completed packets) staged.
    pub elements: u64,
    /// Row transactions written to DRAM.
    pub rows_written: u64,
    /// Cycle the last DRAM write completed.
    pub dram_done: u64,
    /// Cycle the last flit was accepted.
    pub last_accept: u64,
    /// Poisoned flits detected and refused staging (NACKed upstream).
    pub nacked: u64,
}

/// One memory interface instance.
#[derive(Debug)]
pub struct MemIf {
    cfg: MemifConfig,
    /// Next cycle the ejection port can accept a flit.
    free_at: u64,
    /// Staging: DRAM row index -> elements collected so far.
    staging: HashMap<u64, u32>,
    words_per_row: u64,
    dram: DramController,
    /// DRAM bus timeline (cycle the bus frees).
    dram_free_at: u64,
    /// Partial rows forced out by [`MemIf::flush`], and the elements they
    /// held — the two terms that close the staging conservation identity
    /// checked by [`MemIf::check_conservation`].
    flushed_rows: u64,
    flushed_elements: u64,
    stats: MemifStats,
    /// Telemetry (None = no per-event work): staging-buffer depth sampled
    /// at each staged element, and `(start, done, row)` spans of row
    /// writebacks (capped at [`MAX_ROW_SPANS`]).
    telemetry: Option<MemifTelemetry>,
}

/// Raw telemetry accumulated by one interface; flushed into a
/// [`sim_core::telemetry::Registry`] by the owning mesh after a run.
#[derive(Debug, Clone, Default)]
pub struct MemifTelemetry {
    /// Staging-buffer depth (distinct partial rows) at each staged element.
    pub staging_depth: SeriesHistogram,
    /// Row writeback spans `(start_cycle, done_cycle, row)`.
    pub row_spans: Vec<(u64, u64, u64)>,
    /// Row spans dropped once the per-memif span cap was reached.
    pub row_spans_dropped: u64,
}

impl MemIf {
    /// A fresh interface.
    pub fn new(cfg: MemifConfig) -> Self {
        let words_per_row = cfg.dram.row_bits / cfg.element_bits;
        MemIf {
            cfg,
            free_at: 0,
            staging: HashMap::new(),
            words_per_row,
            dram: DramController::new(cfg.dram, cfg.element_bits),
            dram_free_at: 0,
            flushed_rows: 0,
            flushed_elements: 0,
            stats: MemifStats::default(),
            telemetry: None,
        }
    }

    /// Start accumulating staging-depth samples and row-write spans.
    pub fn enable_telemetry(&mut self) {
        self.telemetry = Some(MemifTelemetry::default());
    }

    /// The accumulated telemetry, if enabled.
    pub fn telemetry(&self) -> Option<&MemifTelemetry> {
        self.telemetry.as_ref()
    }

    /// Whether the ejection port can take a flit at `cycle`.
    pub(crate) fn can_accept(&self, cycle: u64) -> bool {
        cycle >= self.free_at
    }

    /// First cycle the ejection port can take a flit.
    pub(crate) fn free_at(&self) -> u64 {
        self.free_at
    }

    /// Accept one flit at `cycle`. Payload flits carry the element's linear
    /// word address. Tail flits additionally occupy the reorder unit for
    /// `t_p` cycles, during which the port cannot eject.
    pub fn accept(&mut self, cycle: u64, flit: &Flit) {
        debug_assert!(self.can_accept(cycle));
        self.stats.flits_accepted += 1;
        self.stats.last_accept = cycle;
        self.free_at = cycle + 1;

        let is_payload = !flit.kind.is_head() || !self.has_explicit_headers(flit);
        if is_payload {
            self.stage_element(cycle, flit.payload);
        }
        if flit.kind.is_tail() {
            // Reorder/staging occupancy blocks the next ejection.
            self.free_at = cycle + 1 + self.cfg.t_p;
        }
    }

    /// Accept a *poisoned* flit at `cycle`: it occupies the ejection port
    /// and reorder unit exactly like a clean flit (the corruption is only
    /// detected once the element reaches the interface) but is refused
    /// staging — the caller NACKs the source instead.
    pub(crate) fn accept_nack(&mut self, cycle: u64, flit: &Flit) {
        debug_assert!(self.can_accept(cycle));
        self.stats.flits_accepted += 1;
        self.stats.last_accept = cycle;
        self.stats.nacked += 1;
        self.free_at = cycle + 1;
        if flit.kind.is_tail() {
            self.free_at = cycle + 1 + self.cfg.t_p;
        }
    }

    /// Whether `flit`'s packet used an explicit header flit: heads of
    /// multi-flit packets are headers; a HeadTail flit carries payload.
    fn has_explicit_headers(&self, flit: &Flit) -> bool {
        flit.kind == crate::flit::FlitKind::Head
    }

    fn stage_element(&mut self, cycle: u64, addr: u64) {
        self.stats.elements += 1;
        let row = addr / self.words_per_row;
        let count = self.staging.entry(row).or_insert(0);
        *count += 1;
        // Staged rows are strictly partial: the words_per_row-th element
        // completes the row below, so a larger count means an element was
        // double-staged or a completed row was never written back.
        invariant!(
            u64::from(*count) <= self.words_per_row,
            "memif staging: row {row} holds {count} > words_per_row {} elements",
            self.words_per_row
        );
        let full = u64::from(*count) == self.words_per_row;
        if let Some(tel) = self.telemetry.as_mut() {
            tel.staging_depth.record(self.staging.len() as u64);
        }
        if full {
            self.staging.remove(&row);
            self.write_row(cycle, row);
        }
    }

    fn write_row(&mut self, cycle: u64, row: u64) {
        let start = cycle.max(self.dram_free_at);
        let first_word = row * self.words_per_row;
        let mut done =
            self.dram
                .access_burst(start, first_word, self.words_per_row, AccessKind::Write);
        done += self.cfg.header_beats;
        self.dram_free_at = done;
        self.stats.rows_written += 1;
        self.stats.dram_done = self.stats.dram_done.max(done);
        if let Some(tel) = self.telemetry.as_mut() {
            if tel.row_spans.len() < MAX_ROW_SPANS {
                tel.row_spans.push((start, done, row));
            } else {
                tel.row_spans_dropped += 1;
            }
        }
    }

    /// Force out any incomplete rows (end of workload). Returns the number
    /// of partial rows flushed.
    pub fn flush(&mut self, cycle: u64) -> usize {
        let rows: Vec<(u64, u32)> = self.staging.drain().collect();
        let n = rows.len();
        for (row, count) in rows {
            self.flushed_rows += 1;
            self.flushed_elements += u64::from(count);
            self.write_row(cycle, row);
        }
        n
    }

    /// Staging conservation (DESIGN.md §12): every element this interface
    /// ever staged is in exactly one of three places — a full row written
    /// back, a partial row forced out by [`MemIf::flush`], or a partial row
    /// still staged. Compiled out unless [`sim_core::invariants::ENABLED`].
    pub(crate) fn check_conservation(&self) {
        if !sim_core::invariants::ENABLED {
            return;
        }
        let staged: u64 = self.staging.values().map(|&c| u64::from(c)).sum();
        let full_rows = self.stats.rows_written - self.flushed_rows;
        invariant!(
            self.stats.elements == full_rows * self.words_per_row + self.flushed_elements + staged,
            "memif staging accounting: {} elements != {} full-row + {} flushed + {} staged",
            self.stats.elements,
            full_rows * self.words_per_row,
            self.flushed_elements,
            staged
        );
    }

    /// Interface statistics.
    pub fn stats(&self) -> MemifStats {
        self.stats
    }

    /// DRAM controller statistics (hit/conflict mix of the writeback).
    pub fn dram_stats(&self) -> DramStats {
        self.dram.stats()
    }

    /// The configuration.
    pub fn config(&self) -> &MemifConfig {
        &self.cfg
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flit::{FlitKind, Packet};

    fn element_flits(addr: u64) -> Vec<Flit> {
        Packet::with_header(0, 0, vec![addr]).flits()
    }

    #[test]
    fn accepts_one_flit_per_cycle_plus_tp() {
        let mut m = MemIf::new(MemifConfig {
            t_p: 4,
            ..Default::default()
        });
        let fs = element_flits(0);
        assert!(m.can_accept(0));
        m.accept(0, &fs[0]); // header
        assert!(m.can_accept(1));
        m.accept(1, &fs[1]); // payload tail -> +t_p
        assert!(!m.can_accept(2));
        assert!(!m.can_accept(5));
        assert!(m.can_accept(6)); // 1 + 1 + 4
    }

    #[test]
    fn per_element_period_is_2_plus_tp() {
        // Saturated ejection: each 2-flit element occupies the port for
        // exactly 2 + t_p cycles.
        for t_p in [1u64, 4] {
            let mut m = MemIf::new(MemifConfig {
                t_p,
                ..Default::default()
            });
            let mut cycle = 0;
            for addr in 0..64u64 {
                let fs = element_flits(addr);
                while !m.can_accept(cycle) {
                    cycle += 1;
                }
                m.accept(cycle, &fs[0]);
                cycle += 1;
                m.accept(cycle, &fs[1]);
                cycle += 1;
            }
            // Element i's header lands at i·(2 + t_p); its payload one later.
            assert_eq!(m.stats().last_accept, 63 * (2 + t_p) + 1);
            assert_eq!(m.stats().elements, 64);
        }
    }

    #[test]
    fn rows_complete_after_words_per_row_elements() {
        let mut m = MemIf::new(MemifConfig::default());
        // 32 elements of row 0 (addresses 0..32) in scrambled order.
        let order: Vec<u64> = (0..32).rev().collect();
        let mut cycle = 0;
        for addr in order {
            let fs = element_flits(addr);
            while !m.can_accept(cycle) {
                cycle += 1;
            }
            m.accept(cycle, &fs[0]);
            cycle += 1;
            m.accept(cycle, &fs[1]);
            cycle += 1;
        }
        assert_eq!(m.stats().rows_written, 1);
        assert!(m.staging.is_empty() && m.stats().dram_done >= m.dram_free_at);
    }

    #[test]
    fn row_write_cost_matches_paper_tt() {
        // t_t = (S_r + S_h)/S_b = (2048 + 64)/64 = 33 cycles per row on the
        // ideal DRAM (32 beats + 1 header beat).
        let mut m = MemIf::new(MemifConfig::default());
        let start_cycle = 1000;
        let mut cycle = start_cycle;
        for addr in 0..32u64 {
            let fs = element_flits(addr);
            while !m.can_accept(cycle) {
                cycle += 1;
            }
            m.accept(cycle, &fs[0]);
            cycle += 1;
            m.accept(cycle, &fs[1]);
            cycle += 1;
        }
        let s = m.stats();
        assert_eq!(s.rows_written, 1);
        // The write started when the row completed (last accept) and took 33.
        assert_eq!(s.dram_done, s.last_accept + 33);
    }

    #[test]
    fn flush_handles_partial_rows() {
        let mut m = MemIf::new(MemifConfig::default());
        let fs = element_flits(5);
        m.accept(0, &fs[0]);
        m.accept(1, &fs[1]);
        assert_eq!(m.stats().rows_written, 0);
        assert_eq!(m.flush(10), 1);
        assert_eq!(m.stats().rows_written, 1);
    }

    #[test]
    fn headerless_single_flit_carries_payload() {
        let mut m = MemIf::new(MemifConfig::default());
        let p = Packet::headerless(0, 0, vec![7]);
        let f = p.flits()[0];
        assert_eq!(f.kind, FlitKind::HeadTail);
        m.accept(0, &f);
        assert_eq!(m.stats().elements, 1);
    }
}
