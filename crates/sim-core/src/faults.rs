//! Deterministic fault injection.
//!
//! Every fabric in the workspace (photonic bus, electronic mesh, P-sync
//! protocol) models an ideal physical layer by default. This module is the
//! shared substrate for *breaking* that layer on purpose: seeded Bernoulli
//! fault processes ([`FaultSite`]) and pre-generated fault schedules
//! ([`FaultSchedule`]), both reproducible from one experiment-level seed via
//! [`crate::rng::child_seed`].
//!
//! Two invariants make the layer safe-by-default:
//!
//! * **Zero rate draws nothing.** A site or schedule with `rate == 0` never
//!   touches its RNG and never perturbs the simulation — zero-fault runs are
//!   bit-identical to runs built without the fault layer at all (enforced by
//!   the emesh golden tests and the proptests in `tests/fault_injection.rs`).
//! * **Determinism.** Each site owns an independent child-seeded stream, so
//!   the fault sequence at one site is unaffected by how often other sites
//!   are consulted, and identical seeds reproduce identical fault orders.

use rand::rngs::StdRng;
use rand::Rng;
use serde::Serialize;

use crate::rng::{child_seed, seeded};

/// What goes wrong when a fault fires.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum FaultKind {
    /// Flip one bit of a data word in flight.
    BitFlip {
        /// Which bit (0 = LSB).
        bit: u8,
    },
    /// Take a link out of service for a bounded time.
    LinkDown {
        /// Outage length in cycles / slots.
        cycles: u64,
    },
    /// Permanently kill a component (no recovery).
    Kill,
}

/// One scheduled fault: at tick `at`, site `site` suffers `kind`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub struct FaultEvent {
    /// Simulation tick (cycle or bus slot) the fault fires at.
    pub at: u64,
    /// Component fault-site index (fabric-defined numbering).
    pub site: u32,
    /// The fault.
    pub kind: FaultKind,
}

/// A pre-generated, deterministic schedule of fault events, sorted by
/// `(at, site)` and consumed in order via [`FaultSchedule::pop_due`].
#[derive(Debug, Clone, Default)]
pub struct FaultSchedule {
    events: Vec<FaultEvent>,
    cursor: usize,
}

impl FaultSchedule {
    /// A schedule with no events.
    pub fn empty() -> Self {
        FaultSchedule::default()
    }

    /// Build a schedule from explicit events (sorted internally).
    pub fn from_events(mut events: Vec<FaultEvent>) -> Self {
        events.sort_by_key(|e| (e.at, e.site));
        FaultSchedule { events, cursor: 0 }
    }

    /// Generate a Bernoulli schedule: each of `sites` sites is tested once
    /// per tick over `[0, horizon)` with probability `rate`; hits get a
    /// random [`FaultKind::BitFlip`]. `rate == 0` produces an empty schedule
    /// without consuming any randomness.
    ///
    /// Generation is per-site (site `s` uses child stream `s` of `seed`), so
    /// adding or removing sites never changes another site's fault sequence.
    pub fn generate(seed: u64, rate: f64, horizon: u64, sites: u32) -> Self {
        if rate <= 0.0 {
            return FaultSchedule::empty();
        }
        let mut events = Vec::new();
        for site in 0..sites {
            let mut rng = seeded(child_seed(seed, u64::from(site)));
            for at in 0..horizon {
                if rng.gen::<f64>() < rate {
                    let bit = rng.gen_range(0u8..64);
                    events.push(FaultEvent {
                        at,
                        site,
                        kind: FaultKind::BitFlip { bit },
                    });
                }
            }
        }
        FaultSchedule::from_events(events)
    }

    /// All events (in `(at, site)` order), including already-consumed ones.
    pub fn events(&self) -> &[FaultEvent] {
        &self.events
    }

    /// Remaining (unconsumed) event count.
    pub fn remaining(&self) -> usize {
        self.events.len() - self.cursor
    }

    /// Pop the next event with `at <= now`, if any.
    pub fn pop_due(&mut self, now: u64) -> Option<FaultEvent> {
        let e = *self.events.get(self.cursor)?;
        if e.at <= now {
            self.cursor += 1;
            Some(e)
        } else {
            None
        }
    }

    /// Tick of the next unconsumed event, if any.
    pub fn next_at(&self) -> Option<u64> {
        self.events.get(self.cursor).map(|e| e.at)
    }
}

/// SplitMix64 finalizer: a full-avalanche 64-bit mixing function.
#[inline]
fn mix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Counter-based Bernoulli trial: does trial number `trial` of fault site
/// `site` under `seed` fire, with probability `rate`?
///
/// Unlike [`FaultSite`] (a stateful RNG stream whose draw *order* defines
/// the outcome sequence), this is a pure function of `(seed, site, trial)`
/// — the outcome of one trial is independent of when, where, or in what
/// order any other trial is evaluated. Each site keeps only a trial
/// counter, and the fault pattern is a deterministic function of the seed
/// and of the traffic each site sees, whatever order sites are visited in.
///
/// `rate == 0` fires nothing (the safe-by-default invariant shared with
/// [`FaultSite`]); `rate >= 1` always fires.
#[inline]
pub fn hash_bernoulli(seed: u64, site: u64, trial: u64, rate: f64) -> bool {
    if rate <= 0.0 {
        return false;
    }
    if rate >= 1.0 {
        return true;
    }
    let h = mix64(seed ^ mix64(site ^ mix64(trial)));
    // Top 53 bits as a uniform f64 in [0, 1).
    ((h >> 11) as f64) * (1.0 / (1u64 << 53) as f64) < rate
}

/// A per-component Bernoulli fault process: an independent child-seeded
/// stream that fires with a fixed probability per trial.
#[derive(Debug, Clone)]
pub struct FaultSite {
    rate: f64,
    rng: StdRng,
    /// Trials performed (consulted even at rate 0 for accounting).
    pub trials: u64,
    /// Faults fired.
    pub fired: u64,
}

impl FaultSite {
    /// A disabled site: never fires, never draws.
    pub fn off() -> Self {
        FaultSite {
            rate: 0.0,
            rng: seeded(0),
            trials: 0,
            fired: 0,
        }
    }

    /// A site firing with probability `rate` per trial, on child stream
    /// `stream` of `parent_seed`.
    pub fn new(parent_seed: u64, stream: u64, rate: f64) -> Self {
        assert!((0.0..=1.0).contains(&rate), "fault rate in [0, 1]");
        FaultSite {
            rate,
            rng: seeded(child_seed(parent_seed, stream)),
            trials: 0,
            fired: 0,
        }
    }

    /// The configured rate.
    pub fn rate(&self) -> f64 {
        self.rate
    }

    /// Whether this site can ever fire.
    pub fn is_active(&self) -> bool {
        self.rate > 0.0
    }

    /// One Bernoulli trial. At rate 0 this returns `false` without touching
    /// the RNG — the zero-fault bit-identity guarantee.
    pub fn fire(&mut self) -> bool {
        self.trials += 1;
        if self.rate <= 0.0 {
            return false;
        }
        let hit = self.rng.gen::<f64>() < self.rate;
        if hit {
            self.fired += 1;
        }
        hit
    }

    /// Draw a bit index in `[0, width)` for a [`FaultKind::BitFlip`].
    pub fn draw_bit(&mut self, width: u8) -> u8 {
        debug_assert!(width > 0);
        self.rng.gen_range(0..width)
    }
}

/// Counters every fault-aware component reports.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq, Serialize)]
pub struct FaultStats {
    /// Faults injected into the component.
    pub injected: u64,
    /// Faults detected by the component's checks (CRC, NACK, watchdog).
    pub detected: u64,
    /// Recovery attempts (retries / retransmissions / re-issues).
    pub retries: u64,
    /// Recoveries abandoned (data lost or error surfaced).
    pub giveups: u64,
}

impl FaultStats {
    /// Merge another component's counters into this one.
    pub fn absorb(&mut self, other: &FaultStats) {
        self.injected += other.injected;
        self.detected += other.detected;
        self.retries += other.retries;
        self.giveups += other.giveups;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_rate_schedule_is_empty() {
        let s = FaultSchedule::generate(42, 0.0, 10_000, 16);
        assert_eq!(s.events().len(), 0);
        assert_eq!(s.remaining(), 0);
    }

    #[test]
    fn schedule_is_deterministic_and_sorted() {
        let a = FaultSchedule::generate(7, 0.01, 2_000, 8);
        let b = FaultSchedule::generate(7, 0.01, 2_000, 8);
        assert_eq!(a.events(), b.events());
        assert!(!a.events().is_empty(), "1% over 16k trials must hit");
        assert!(a
            .events()
            .windows(2)
            .all(|w| (w[0].at, w[0].site) <= (w[1].at, w[1].site)));
        let c = FaultSchedule::generate(8, 0.01, 2_000, 8);
        assert_ne!(a.events(), c.events(), "different seeds differ");
    }

    #[test]
    fn pop_due_consumes_in_order() {
        let mut s = FaultSchedule::from_events(vec![
            FaultEvent {
                at: 5,
                site: 1,
                kind: FaultKind::Kill,
            },
            FaultEvent {
                at: 2,
                site: 0,
                kind: FaultKind::LinkDown { cycles: 3 },
            },
        ]);
        assert_eq!(s.next_at(), Some(2));
        assert!(s.pop_due(1).is_none());
        assert_eq!(s.pop_due(2).unwrap().at, 2);
        assert!(s.pop_due(4).is_none());
        assert_eq!(s.pop_due(9).unwrap().site, 1);
        assert!(s.pop_due(u64::MAX).is_none());
    }

    #[test]
    fn site_rate_zero_never_fires_and_never_draws() {
        let mut a = FaultSite::new(1, 0, 0.0);
        let mut b = FaultSite::off();
        for _ in 0..1000 {
            assert!(!a.fire());
            assert!(!b.fire());
        }
        assert_eq!(a.fired, 0);
        assert_eq!(a.trials, 1000);
    }

    #[test]
    fn site_streams_are_independent() {
        // Consulting site 0 more often must not change site 1's sequence.
        let seq = |extra_draws: usize| {
            let mut other = FaultSite::new(9, 0, 0.5);
            let mut site = FaultSite::new(9, 1, 0.5);
            for _ in 0..extra_draws {
                other.fire();
            }
            (0..64).map(|_| site.fire()).collect::<Vec<_>>()
        };
        assert_eq!(seq(0), seq(57));
    }

    #[test]
    fn site_fires_near_its_rate() {
        let mut s = FaultSite::new(3, 0, 0.25);
        let n = 20_000;
        let hits = (0..n).filter(|_| s.fire()).count();
        let p = hits as f64 / n as f64;
        assert!((0.22..0.28).contains(&p), "empirical rate {p}");
        assert_eq!(s.fired as usize, hits);
    }

    #[test]
    fn hash_bernoulli_is_a_pure_function_of_its_coordinates() {
        // Same coordinates, same outcome — and the outcome of one trial
        // does not depend on any other trial being evaluated (there is no
        // hidden stream state to perturb).
        for trial in 0..64u64 {
            let a = hash_bernoulli(7, 3, trial, 0.5);
            let b = hash_bernoulli(7, 3, trial, 0.5);
            assert_eq!(a, b);
        }
        // Different seeds / sites decorrelate: the outcome vectors differ.
        let v = |seed: u64, site: u64| -> Vec<bool> {
            (0..256)
                .map(|t| hash_bernoulli(seed, site, t, 0.5))
                .collect()
        };
        assert_ne!(v(1, 0), v(2, 0), "seed must matter");
        assert_ne!(v(1, 0), v(1, 1), "site must matter");
    }

    #[test]
    fn hash_bernoulli_zero_and_one_rates() {
        for t in 0..1000 {
            assert!(!hash_bernoulli(9, 4, t, 0.0));
            assert!(hash_bernoulli(9, 4, t, 1.0));
        }
    }

    #[test]
    fn hash_bernoulli_fires_near_its_rate() {
        let n = 20_000u64;
        let hits = (0..n).filter(|&t| hash_bernoulli(3, 11, t, 0.25)).count();
        let p = hits as f64 / n as f64;
        assert!((0.22..0.28).contains(&p), "empirical rate {p}");
    }

    #[test]
    fn stats_absorb_sums() {
        let mut a = FaultStats {
            injected: 1,
            detected: 2,
            retries: 3,
            giveups: 4,
        };
        a.absorb(&FaultStats {
            injected: 10,
            detected: 20,
            retries: 30,
            giveups: 40,
        });
        assert_eq!(a.injected, 11);
        assert_eq!(a.giveups, 44);
    }
}
