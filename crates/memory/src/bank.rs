//! Per-bank open-row state machine.

use serde::Serialize;

use crate::config::DramConfig;

/// One DRAM bank with an open-page policy.
#[derive(Debug, Clone, Copy, Default, Serialize)]
pub struct Bank {
    /// Currently open row, if any.
    open_row: Option<u64>,
    /// Cycle at which the bank becomes ready for a new command.
    ready_at: u64,
}

/// Outcome classification of one access, for statistics.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum RowOutcome {
    /// Row already open: only CAS + burst.
    Hit,
    /// Bank was idle (no open row): activate + CAS + burst.
    Miss,
    /// A different row was open: precharge + activate + CAS + burst.
    Conflict,
}

impl Bank {
    /// Access `row` starting no earlier than `now`; returns
    /// `(completion_cycle, outcome)` for a burst of `beats` bus words.
    pub fn access(
        &mut self,
        cfg: &DramConfig,
        now: u64,
        row: u64,
        beats: u64,
    ) -> (u64, RowOutcome) {
        let start = now.max(self.ready_at);
        let (latency, outcome) = match self.open_row {
            Some(r) if r == row => (cfg.t_cas, RowOutcome::Hit),
            Some(_) => (
                cfg.t_precharge + cfg.t_activate + cfg.t_cas,
                RowOutcome::Conflict,
            ),
            None => (cfg.t_activate + cfg.t_cas, RowOutcome::Miss),
        };
        let done = start + latency + beats * cfg.t_beat;
        self.open_row = Some(row);
        self.ready_at = done;
        (done, outcome)
    }

    /// Explicitly close the open row (e.g. refresh), paying precharge.
    pub fn precharge(&mut self, cfg: &DramConfig, now: u64) -> u64 {
        let start = now.max(self.ready_at);
        self.open_row = None;
        self.ready_at = start + cfg.t_precharge;
        self.ready_at
    }

    /// Currently open row.
    pub fn open_row(&self) -> Option<u64> {
        self.open_row
    }

    /// Earliest cycle the bank can accept a new command.
    pub fn ready_at(&self) -> u64 {
        self.ready_at
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_access_is_a_miss() {
        let cfg = DramConfig::default();
        let mut b = Bank::default();
        let (done, out) = b.access(&cfg, 0, 5, 4);
        assert_eq!(out, RowOutcome::Miss);
        // activate(10) + cas(10) + 4 beats = 24
        assert_eq!(done, 24);
        assert_eq!(b.open_row(), Some(5));
    }

    #[test]
    fn same_row_hits() {
        let cfg = DramConfig::default();
        let mut b = Bank::default();
        let (t1, _) = b.access(&cfg, 0, 5, 4);
        let (t2, out) = b.access(&cfg, t1, 5, 4);
        assert_eq!(out, RowOutcome::Hit);
        assert_eq!(t2 - t1, cfg.t_cas + 4); // no activate
    }

    #[test]
    fn different_row_conflicts() {
        let cfg = DramConfig::default();
        let mut b = Bank::default();
        let (t1, _) = b.access(&cfg, 0, 5, 4);
        let (t2, out) = b.access(&cfg, t1, 6, 4);
        assert_eq!(out, RowOutcome::Conflict);
        assert_eq!(t2 - t1, cfg.row_switch_cost() + 4);
    }

    #[test]
    fn busy_bank_delays_start() {
        let cfg = DramConfig::default();
        let mut b = Bank::default();
        let (t1, _) = b.access(&cfg, 0, 5, 32);
        // Request issued "in the past" relative to bank readiness.
        let (t2, out) = b.access(&cfg, 0, 5, 1);
        assert_eq!(out, RowOutcome::Hit);
        assert_eq!(t2, t1 + cfg.t_cas + 1);
    }

    #[test]
    fn precharge_closes_row() {
        let cfg = DramConfig::default();
        let mut b = Bank::default();
        b.access(&cfg, 0, 5, 1);
        b.precharge(&cfg, 100);
        assert_eq!(b.open_row(), None);
        let (_, out) = b.access(&cfg, 200, 5, 1);
        assert_eq!(out, RowOutcome::Miss);
    }

    #[test]
    fn ideal_config_streams_at_bus_rate() {
        let cfg = DramConfig::ideal_paper();
        let mut b = Bank::default();
        let mut t = 0;
        for row in 0..100 {
            let (done, _) = b.access(&cfg, t, row, 32);
            assert_eq!(done - t, 32, "row {row} should cost exactly 32 beats");
            t = done;
        }
    }
}
