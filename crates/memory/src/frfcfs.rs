//! An out-of-order (FR-FCFS) memory controller.
//!
//! The §V-C mesh pays dearly because transpose elements arrive at the port
//! scrambled and the in-order controller eats a row conflict per element.
//! A First-Ready, First-Come-First-Served scheduler can peek a window of
//! queued requests and issue row *hits* first — the strongest conventional
//! defence against scrambled streams. This module implements it so the
//! ablation can ask: does a smart controller close the gap to the SCA's
//! perfectly ordered stream? (It narrows it; it cannot close it, because
//! hits only exist when the window happens to hold same-row requests.)

use std::collections::VecDeque;

use crate::addr::AddrMap;
use crate::bank::{Bank, RowOutcome};
use crate::config::DramConfig;
use crate::controller::DramStats;

/// FR-FCFS controller configuration.
#[derive(Debug, Clone, Copy)]
pub struct FrFcfsConfig {
    /// DRAM timing/geometry.
    pub dram: DramConfig,
    /// Scheduling window: how many queued requests the scheduler may
    /// reorder over. 1 = in-order.
    pub window: usize,
}

impl Default for FrFcfsConfig {
    fn default() -> Self {
        FrFcfsConfig {
            dram: DramConfig::default(),
            window: 16,
        }
    }
}

/// The controller.
#[derive(Debug, Clone)]
pub struct FrFcfsController {
    cfg: FrFcfsConfig,
    map: AddrMap,
    banks: Vec<Bank>,
    stats: DramStats,
    bus_free_at: u64,
}

impl FrFcfsController {
    /// New controller addressing words of `word_bits`.
    pub fn new(cfg: FrFcfsConfig, word_bits: u64) -> Self {
        cfg.dram.validate().expect("invalid DRAM config");
        assert!(cfg.window >= 1, "window must be at least 1");
        FrFcfsController {
            cfg,
            map: AddrMap::new(cfg.dram, word_bits),
            banks: vec![Bank::default(); cfg.dram.banks],
            stats: DramStats::default(),
            bus_free_at: 0,
        }
    }

    /// Process a stream of `(arrival_cycle, word_addr)` requests (sorted by
    /// arrival). Returns the completion cycle of the last request.
    pub fn run(&mut self, requests: impl IntoIterator<Item = (u64, u64)>) -> u64 {
        let mut incoming: VecDeque<(u64, u64)> = requests.into_iter().collect();
        debug_assert!(incoming
            .iter()
            .zip(incoming.iter().skip(1))
            .all(|(a, b)| a.0 <= b.0));
        let mut window: VecDeque<(u64, u64)> = VecDeque::new();
        let mut now = 0u64;
        let mut last_done = 0u64;

        while !incoming.is_empty() || !window.is_empty() {
            // Fill the window with requests that have arrived by `now`;
            // if idle, jump to the next arrival.
            while window.len() < self.cfg.window {
                match incoming.front() {
                    Some(&(t, _)) if t <= now => {
                        window.push_back(incoming.pop_front().expect("front"));
                    }
                    Some(&(t, _)) if window.is_empty() => {
                        now = t;
                        window.push_back(incoming.pop_front().expect("front"));
                    }
                    _ => break,
                }
            }
            // First-ready: the oldest request whose row is open; else the
            // oldest request outright.
            let pick = window
                .iter()
                .position(|&(_, a)| {
                    let d = self.map.decode(a);
                    self.banks[d.bank].open_row() == Some(d.row)
                })
                .unwrap_or(0);
            let (arrive, addr) = window.remove(pick).expect("window nonempty");
            let beats = self.map.word_bits.div_ceil(self.cfg.dram.bus_bits);
            let d = self.map.decode(addr);
            let start = now.max(arrive).max(self.bus_free_at);
            let (done, outcome) = self.banks[d.bank].access(&self.cfg.dram, start, d.row, beats);
            self.bus_free_at = done;
            now = now.max(start);
            last_done = last_done.max(done);
            self.stats.accesses += 1;
            self.stats.beats += beats;
            match outcome {
                RowOutcome::Hit => self.stats.hits += 1,
                RowOutcome::Miss => self.stats.misses += 1,
                RowOutcome::Conflict => self.stats.conflicts += 1,
            }
        }
        self.stats.last_done = last_done;
        last_done
    }

    /// Statistics.
    pub fn stats(&self) -> DramStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sim_core::rng::permutation;

    fn scrambled(n: usize) -> Vec<(u64, u64)> {
        permutation(n, 7)
            .into_iter()
            .enumerate()
            .map(|(i, a)| (i as u64, a as u64))
            .collect()
    }

    #[test]
    fn window_1_matches_in_order_controller() {
        let reqs = scrambled(2048);
        let mut oo = FrFcfsController::new(
            FrFcfsConfig {
                window: 1,
                ..Default::default()
            },
            64,
        );
        let oo_done = oo.run(reqs.clone());
        let mut io = crate::controller::DramController::new(DramConfig::default(), 64);
        let mut t = 0;
        for (arrive, a) in &reqs {
            t = io.access(t.max(*arrive), *a, crate::controller::AccessKind::Write);
        }
        assert_eq!(oo_done, t);
        assert_eq!(oo.stats().hits, io.stats().hits);
    }

    #[test]
    fn wider_windows_recover_hits_on_scrambled_streams() {
        let reqs = scrambled(4096);
        let mut results = Vec::new();
        for window in [1usize, 4, 16, 64] {
            let mut c = FrFcfsController::new(
                FrFcfsConfig {
                    window,
                    ..Default::default()
                },
                64,
            );
            let done = c.run(reqs.clone());
            results.push((window, done, c.stats().hit_rate()));
        }
        // Completion time falls and hit rate rises monotonically-ish.
        assert!(results[3].1 < results[0].1, "{results:?}");
        assert!(results[3].2 > results[0].2 + 0.1, "{results:?}");
    }

    #[test]
    fn linear_stream_needs_no_reordering() {
        let reqs: Vec<(u64, u64)> = (0..2048u64).map(|i| (i, i)).collect();
        let mut narrow = FrFcfsController::new(
            FrFcfsConfig {
                window: 1,
                ..Default::default()
            },
            64,
        );
        let mut wide = FrFcfsController::new(
            FrFcfsConfig {
                window: 64,
                ..Default::default()
            },
            64,
        );
        let a = narrow.run(reqs.clone());
        let b = wide.run(reqs);
        assert_eq!(a, b, "reordering can't improve an already-linear stream");
    }

    #[test]
    fn cannot_beat_the_ordered_stream() {
        // Even a wide window on scrambled input stays behind the same
        // requests in linear order — the SCA's whole point.
        let n = 4096;
        let mut wide = FrFcfsController::new(
            FrFcfsConfig {
                window: 64,
                ..Default::default()
            },
            64,
        );
        let scrambled_done = wide.run(scrambled(n));
        let mut lin = FrFcfsController::new(
            FrFcfsConfig {
                window: 1,
                ..Default::default()
            },
            64,
        );
        let linear_done = lin.run((0..n as u64).map(|i| (i, i)));
        assert!(
            scrambled_done > linear_done + (linear_done / 5),
            "scrambled {scrambled_done} vs linear {linear_done}"
        );
    }
}
