//! `DramController::access_burst` against the per-word `access` loop.
//!
//! `access_burst` costs each DRAM row's first word with `access` and the
//! rest of the row in closed form. On random configurations (ideal and
//! timed, 1–16 banks, several row and word sizes), from random prior bank
//! state and a random arrival cycle, and for runs that start mid-row and
//! cross rows, it must leave exactly what the per-word loop leaves: the
//! same completion cycle, the same statistics, and the same bank and bus
//! state, observed through the time and row outcome of one following
//! access.

use memory::{AccessKind, DramConfig, DramController, DramStats};
use proptest::prelude::*;
use proptest::{TestCaseError, TestRng};

/// A random valid configuration and the word size it addresses.
fn config(rng: &mut TestRng) -> (DramConfig, u64) {
    let bus_bits = [32, 64, 128][rng.below(3) as usize];
    let word_bits = [32, 64, 128, 256][rng.below(4) as usize];
    let row_bits = bus_bits.max(word_bits) << rng.below(6);
    let timed = |rng: &mut TestRng| rng.below(16);
    let cfg = if rng.below(3) == 0 {
        DramConfig {
            banks: 1 + rng.below(16) as usize,
            row_bits,
            bus_bits,
            t_beat: 1 + rng.below(3),
            ..DramConfig::ideal_paper()
        }
    } else {
        DramConfig {
            banks: 1 + rng.below(16) as usize,
            row_bits,
            bus_bits,
            t_activate: timed(rng),
            t_precharge: timed(rng),
            t_cas: timed(rng),
            t_beat: 1 + rng.below(3),
        }
    };
    (cfg, word_bits)
}

/// One random case: a configuration, prior traffic, the run, and the
/// access that follows it.
struct Case {
    cfg: DramConfig,
    word_bits: u64,
    /// `(arrival, address, kind)` of each prior access, leaving rows open
    /// and banks busy.
    warm_up: Vec<(u64, u64, AccessKind)>,
    /// The run: `n` words from `start`, arriving at `now`.
    start: u64,
    n: u64,
    now: u64,
    /// The following access: its address, and its arrival in percent of
    /// the run's completion cycle (0 = waits for the bus).
    next: u64,
    next_at_frac: u64,
}

impl Case {
    fn words_per_row(&self) -> u64 {
        self.cfg.row_bits / self.word_bits
    }
}

fn case(seed: u64) -> Case {
    let mut rng = TestRng::seed(seed);
    let (cfg, word_bits) = config(&mut rng);
    let wpr = cfg.row_bits / word_bits;
    let span = wpr * cfg.banks as u64 * 4;
    let warm_up = (0..rng.below(24))
        .map(|_| {
            let kind = if rng.below(2) == 0 {
                AccessKind::Read
            } else {
                AccessKind::Write
            };
            (rng.below(4 * span), rng.below(span), kind)
        })
        .collect();
    // A run starting anywhere in a row, up to three rows past its end.
    let start = rng.below(span);
    let n = rng.below(3 * wpr + 2);
    let now = rng.below(4 * span);
    // Continue the run, reopen its last row, or touch another word.
    let next = match rng.below(3) {
        0 => start + n,
        1 => (start + n).saturating_sub(1),
        _ => rng.below(span),
    };
    let next_at_frac = rng.below(3) * 50;
    Case {
        cfg,
        word_bits,
        warm_up,
        start,
        n,
        now,
        next,
        next_at_frac,
    }
}

/// Row hits, misses and conflicts added between two statistics snapshots.
fn outcome(after: DramStats, before: DramStats) -> (u64, u64, u64) {
    (
        after.hits - before.hits,
        after.misses - before.misses,
        after.conflicts - before.conflicts,
    )
}

fn check(c: &Case) -> Result<(), TestCaseError> {
    let mut burst = DramController::new(c.cfg, c.word_bits);
    for &(now, addr, kind) in &c.warm_up {
        burst.access(now, addr, kind);
    }
    let mut words = burst.clone();

    let t_burst = burst.access_burst(c.now, c.start, c.n, AccessKind::Write);
    let mut t_words = c.now;
    for a in c.start..c.start + c.n {
        t_words = words.access(t_words, a, AccessKind::Write);
    }
    prop_assert_eq!(t_burst, t_words, "{} words from {}", c.n, c.start);
    prop_assert_eq!(burst.stats(), words.stats());

    // The following access sees the same bank and bus state.
    let at = t_burst * c.next_at_frac / 100;
    let before = burst.stats();
    let done_b = burst.access(at, c.next, AccessKind::Read);
    let done_w = words.access(at, c.next, AccessKind::Read);
    prop_assert_eq!(done_b, done_w, "following access to {} at {}", c.next, at);
    prop_assert_eq!(
        outcome(burst.stats(), before),
        outcome(words.stats(), before)
    );
    prop_assert_eq!(burst.stats(), words.stats());
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2048))]

    #[test]
    fn burst_matches_per_word_accesses(seed in 0u64..u64::MAX) {
        check(&case(seed))?;
    }
}

/// The generator reaches what the closed form has to get right.
#[test]
fn burst_cases_cover_mid_row_starts_and_row_crossings() {
    let (mut mid_row, mut crossing, mut ideal, mut many_banks, mut busy) = (0, 0, 0, 0, 0);
    for seed in 0..2048u64 {
        let c = case(seed);
        check(&c).unwrap_or_else(|e| panic!("seed {seed}: {e}"));
        let wpr = c.words_per_row();
        mid_row += usize::from(!c.start.is_multiple_of(wpr) && c.n > 1);
        crossing += usize::from(c.n > 0 && c.start / wpr != (c.start + c.n - 1) / wpr);
        ideal += usize::from(c.cfg.row_switch_cost() == 0);
        many_banks += usize::from(c.cfg.banks > 8);
        // The run arrives before the prior traffic has drained.
        let mut probe = DramController::new(c.cfg, c.word_bits);
        for &(now, addr, kind) in &c.warm_up {
            probe.access(now, addr, kind);
        }
        busy += usize::from(probe.stats().last_done > c.now);
    }
    for (name, count) in [
        ("runs starting mid-row", mid_row),
        ("runs crossing a row boundary", crossing),
        ("ideal configurations", ideal),
        ("configurations with more than 8 banks", many_banks),
        ("runs arriving at a busy controller", busy),
    ] {
        assert!(count >= 100, "only {count} {name}");
    }
}
