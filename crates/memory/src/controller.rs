//! In-order open-page memory controller.
//!
//! Costs a stream of word-granular accesses in DRAM cycles. The controller
//! is deliberately simple (in-order, open-page, no write buffering): the
//! paper's point is about the *order* in which traffic arrives at the memory
//! port, and this model makes ordering effects visible — a linear stream is
//! nearly all row hits, a transposed stream without reordering is nearly all
//! row conflicts.

use serde::Serialize;

use crate::addr::AddrMap;
use crate::bank::{Bank, RowOutcome};
use crate::config::DramConfig;

/// How often (in accesses) [`DramController::run_trace_supervised`] polls its
/// interrupt. Coarse enough to keep the poll off the critical path, fine
/// enough that cancellation latency is bounded by ~1k bank accesses.
pub const TRACE_POLL_PERIOD: u64 = 1024;

/// A supervised trace run was interrupted before the stream was exhausted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceCancelled {
    /// Accesses fully costed before the interrupt fired.
    pub accesses_done: u64,
    /// DRAM cycle the completed prefix reached.
    pub cycle: u64,
    /// Which interrupt source fired.
    pub cause: sim_core::cancel::CancelCause,
}

impl std::fmt::Display for TraceCancelled {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "trace Cancelled after {} accesses at cycle {} ({})",
            self.accesses_done, self.cycle, self.cause
        )
    }
}

impl std::error::Error for TraceCancelled {}

/// Read or write. The timing model is symmetric; the distinction feeds
/// statistics and (in `psync`) data movement.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum AccessKind {
    /// Read a word.
    Read,
    /// Write a word.
    Write,
}

/// Aggregate statistics over a controller's lifetime.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize)]
pub struct DramStats {
    /// Total accesses.
    pub accesses: u64,
    /// Row hits.
    pub hits: u64,
    /// Row misses (bank idle).
    pub misses: u64,
    /// Row conflicts (wrong row open).
    pub conflicts: u64,
    /// Total beats transferred.
    pub beats: u64,
    /// Cycle the last access completed.
    pub last_done: u64,
}

impl DramStats {
    /// Row hit rate in [0, 1]; 0 when no accesses.
    pub fn hit_rate(&self) -> f64 {
        if self.accesses == 0 {
            0.0
        } else {
            self.hits as f64 / self.accesses as f64
        }
    }
}

/// The controller: banks + address map + statistics.
#[derive(Debug, Clone)]
pub struct DramController {
    cfg: DramConfig,
    map: AddrMap,
    banks: Vec<Bank>,
    stats: DramStats,
    /// Data bus becomes free at this cycle (shared across banks).
    bus_free_at: u64,
}

impl DramController {
    /// Controller for `cfg`, addressing words of `word_bits`.
    pub fn new(cfg: DramConfig, word_bits: u64) -> Self {
        cfg.validate().expect("invalid DRAM config");
        DramController {
            cfg,
            map: AddrMap::new(cfg, word_bits),
            banks: vec![Bank::default(); cfg.banks],
            stats: DramStats::default(),
            bus_free_at: 0,
        }
    }

    /// Access one word at linear address `word_addr`, arriving at cycle
    /// `now`. Returns the completion cycle.
    pub fn access(&mut self, now: u64, word_addr: u64, _kind: AccessKind) -> u64 {
        let beats = (self.map.word_bits).div_ceil(self.cfg.bus_bits);
        let d = self.map.decode(word_addr);
        // Serialize on the shared data bus.
        let start = now.max(self.bus_free_at);
        let (done, outcome) = self.banks[d.bank].access(&self.cfg, start, d.row, beats);
        self.bus_free_at = done;
        self.stats.accesses += 1;
        self.stats.beats += beats;
        match outcome {
            RowOutcome::Hit => self.stats.hits += 1,
            RowOutcome::Miss => self.stats.misses += 1,
            RowOutcome::Conflict => self.stats.conflicts += 1,
        }
        self.stats.last_done = self.stats.last_done.max(done);
        done
    }

    /// Access a contiguous run of `n` words starting at `word_addr`,
    /// arriving at `now`. Returns the completion cycle of the last word.
    pub fn access_burst(&mut self, now: u64, word_addr: u64, n: u64, kind: AccessKind) -> u64 {
        let mut t = now;
        for i in 0..n {
            t = self.access(t, word_addr + i, kind);
        }
        t
    }

    /// Cost an entire address trace starting at cycle 0; returns total cycles.
    pub fn run_trace(&mut self, addrs: impl IntoIterator<Item = u64>, kind: AccessKind) -> u64 {
        let mut t = 0;
        for a in addrs {
            t = self.access(t, a, kind);
        }
        t
    }

    /// [`Self::run_trace`] under an [`Interrupt`](sim_core::cancel::Interrupt):
    /// the interrupt is polled every [`TRACE_POLL_PERIOD`] accesses (with
    /// accesses-completed as the deterministic progress counter), so a deadline
    /// or token can stop a long trace mid-stream. On cancellation the error
    /// carries how far the trace got; the controller's statistics remain valid
    /// for the completed prefix.
    pub fn run_trace_supervised(
        &mut self,
        addrs: impl IntoIterator<Item = u64>,
        kind: AccessKind,
        interrupt: &mut sim_core::cancel::Interrupt,
    ) -> Result<u64, TraceCancelled> {
        let mut t = 0;
        for (done, a) in (0u64..).zip(addrs) {
            if done.is_multiple_of(TRACE_POLL_PERIOD) {
                if let Some(cause) = interrupt.check(done) {
                    return Err(TraceCancelled {
                        accesses_done: done,
                        cycle: t,
                        cause,
                    });
                }
            }
            t = self.access(t, a, kind);
        }
        Ok(t)
    }

    /// Statistics so far.
    pub fn stats(&self) -> DramStats {
        self.stats
    }

    /// The address map in use.
    pub fn map(&self) -> &AddrMap {
        &self.map
    }

    /// The configuration in use.
    pub fn config(&self) -> &DramConfig {
        &self.cfg
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn linear_stream_is_mostly_hits() {
        let mut c = DramController::new(DramConfig::default(), 64);
        let total = c.run_trace(0..1024u64, AccessKind::Read);
        let s = c.stats();
        assert_eq!(s.accesses, 1024);
        // 1024 words / 32 per row = 32 row openings; the rest are hits.
        assert_eq!(s.hits, 1024 - 32);
        assert!(s.hit_rate() > 0.95);
        assert!(total > 0);
    }

    #[test]
    fn supervised_trace_matches_unsupervised_when_uninterrupted() {
        let mut plain = DramController::new(DramConfig::default(), 64);
        let mut sup = DramController::new(DramConfig::default(), 64);
        let t0 = plain.run_trace(0..4096u64, AccessKind::Read);
        let mut intr = sim_core::cancel::Interrupt::new();
        let t1 = sup
            .run_trace_supervised(0..4096u64, AccessKind::Read, &mut intr)
            .expect("no interrupt source armed");
        assert_eq!(t0, t1);
        assert_eq!(plain.stats(), sup.stats());
    }

    #[test]
    fn supervised_trace_cancels_with_valid_prefix_stats() {
        let mut c = DramController::new(DramConfig::default(), 64);
        let mut intr = sim_core::cancel::Interrupt::new().with_cycle_bound(TRACE_POLL_PERIOD);
        let err = c
            .run_trace_supervised(0..1_000_000u64, AccessKind::Read, &mut intr)
            .expect_err("bound well inside the trace");
        assert_eq!(err.accesses_done, TRACE_POLL_PERIOD);
        assert_eq!(c.stats().accesses, TRACE_POLL_PERIOD);
        assert_eq!(err.cycle, c.stats().last_done);
        assert!(matches!(
            err.cause,
            sim_core::cancel::CancelCause::CycleReached { .. }
        ));
        assert!(err.to_string().contains("Cancelled"));
    }

    #[test]
    fn supervised_trace_cancel_at_zero_costs_nothing() {
        let mut c = DramController::new(DramConfig::default(), 64);
        let mut intr = sim_core::cancel::Interrupt::new().with_cycle_bound(0);
        let err = c
            .run_trace_supervised(0..128u64, AccessKind::Read, &mut intr)
            .expect_err("bound 0 fires before the first access");
        assert_eq!(err.accesses_done, 0);
        assert_eq!(c.stats().accesses, 0);
    }

    #[test]
    fn transposed_stream_thrashes() {
        // Column-order walk of a 1024x1024 word matrix: stride 1024.
        let mut c = DramController::new(DramConfig::default(), 64);
        let addrs = (0..1024u64).map(|r| r * 1024);
        c.run_trace(addrs, AccessKind::Write);
        let s = c.stats();
        assert_eq!(s.hits, 0, "strided walk should never hit an open row");
    }

    #[test]
    fn ordered_beats_unordered() {
        // The quantitative heart of §V-C: the same word set costs less in
        // linear order than in transposed order.
        let linear = {
            let mut c = DramController::new(DramConfig::default(), 64);
            c.run_trace(0..4096u64, AccessKind::Write)
        };
        let strided = {
            let mut c = DramController::new(DramConfig::default(), 64);
            // 64x64 tile-transposed order covering the same 4096 words.
            let addrs = (0..64u64).flat_map(|col| (0..64u64).map(move |row| row * 64 + col));
            c.run_trace(addrs, AccessKind::Write)
        };
        assert!(
            strided > linear * 2,
            "strided ({strided}) should cost >2x linear ({linear})"
        );
    }

    #[test]
    fn ideal_config_matches_paper_arithmetic() {
        // Table III: with S_r = 2048 and S_b = 64, a row of payload is 32
        // beats; an ideal controller streams 2^20 64-bit words in exactly
        // 2^20 beats.
        let mut c = DramController::new(DramConfig::ideal_paper(), 64);
        let total = c.run_trace(0..(1u64 << 20), AccessKind::Write);
        assert_eq!(total, 1 << 20);
    }

    #[test]
    fn stats_partition_accesses() {
        let mut c = DramController::new(DramConfig::default(), 64);
        c.run_trace([0, 1, 32, 0, 33], AccessKind::Read);
        let s = c.stats();
        assert_eq!(s.accesses, s.hits + s.misses + s.conflicts);
    }

    #[test]
    fn burst_equals_individual_accesses() {
        let mut a = DramController::new(DramConfig::default(), 64);
        let ta = a.access_burst(0, 100, 64, AccessKind::Read);
        let mut b = DramController::new(DramConfig::default(), 64);
        let mut tb = 0;
        for w in 100..164 {
            tb = b.access(tb, w, AccessKind::Read);
        }
        assert_eq!(ta, tb);
        assert_eq!(a.stats(), b.stats());
    }

    #[test]
    fn wide_words_take_multiple_beats() {
        // 128-bit words over a 64-bit bus: 2 beats each.
        let mut c = DramController::new(DramConfig::ideal_paper(), 128);
        let total = c.run_trace(0..16u64, AccessKind::Read);
        assert_eq!(total, 32);
    }
}
