//! Cooperative cancellation for long-running simulations.
//!
//! Every fabric in this workspace runs to completion once started; this
//! module provides the machinery to interrupt one mid-flight without
//! perturbing its determinism:
//!
//! * [`CancelToken`] — a shared atomic *generation counter*. Cancelling
//!   bumps the generation; it never resets, so a token can be reused
//!   across many runs (each run arms a fresh [`CancelWatch`] against the
//!   current generation).
//! * [`CancelWatch`] — a token snapshot held by one run. It reports
//!   cancelled exactly when the token's generation has advanced past the
//!   generation it was armed at, so cancellations that happened *before*
//!   arming are invisible (no stale-cancel races).
//! * [`Deadline`] — a wall-clock bound ([`std::time::Instant`] based).
//! * [`Interrupt`] — the bundle a simulator polls: any number of watches,
//!   an optional deadline, and an optional deterministic *cycle bound*
//!   ([`Interrupt::with_cycle_bound`]) used by tests to cancel at an exact,
//!   reproducible point in simulated time.
//!
//! # Cost model
//!
//! Simulators store an `Option<Interrupt>` and poll only when it is
//! `Some`: an uninstalled interrupt costs one branch per poll site and
//! nothing per flit/word — the zero-cost-when-unset contract the
//! byte-identical goldens and the perf gate enforce. When installed,
//! watch and cycle-bound checks are a handful of relaxed atomic loads and
//! integer compares per poll; the `Instant::now()` syscall behind the
//! deadline check is throttled to once every
//! `Interrupt::DEADLINE_POLL_PERIOD` polls (with one check on the very
//! first poll, so an already-expired deadline — e.g. `--timeout-s 0` —
//! fires deterministically at the first poll site).
//!
//! Poll granularity is the host loop's natural chunk: one serviced cycle
//! for the mesh master loop, one gather attempt for the PSCAN link layer,
//! one phase for the P-sync machine, 1024 accesses for a DRAM trace.
//! Cancellation is therefore prompt (micro- to milliseconds) but never
//! mid-chunk: a cancelled run's partial statistics are always consistent
//! at a chunk boundary.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A shared cancellation source: an atomic generation counter.
///
/// Clones share the counter. [`CancelToken::cancel`] bumps the
/// generation, tripping every [`CancelWatch`] armed at an earlier
/// generation — across threads, immediately and permanently (for those
/// watches). Arming a new watch afterwards starts clean.
#[derive(Debug, Clone, Default)]
pub struct CancelToken {
    gen: Arc<AtomicU64>,
}

impl CancelToken {
    /// A fresh, untripped token at generation 0.
    pub fn new() -> Self {
        CancelToken::default()
    }

    /// Trip the token: every watch armed at an earlier generation reports
    /// cancelled from now on. Safe to call from any thread, any number of
    /// times — and from a signal handler (a single atomic add).
    pub fn cancel(&self) {
        self.gen.fetch_add(1, Ordering::Release);
    }

    /// The current generation (bumps once per [`CancelToken::cancel`]).
    pub fn generation(&self) -> u64 {
        self.gen.load(Ordering::Acquire)
    }

    /// Arm a watch against the current generation: it reports cancelled
    /// exactly when the token is cancelled *after* this call.
    pub fn watch(&self) -> CancelWatch {
        CancelWatch {
            token: self.clone(),
            armed: self.generation(),
        }
    }
}

/// One run's view of a [`CancelToken`]: armed at a generation, tripped by
/// any later cancellation. Sticky once tripped (generations never rewind).
#[derive(Debug, Clone)]
pub struct CancelWatch {
    token: CancelToken,
    armed: u64,
}

impl CancelWatch {
    /// Whether the token was cancelled after this watch was armed.
    #[inline]
    pub fn is_cancelled(&self) -> bool {
        self.token.generation() > self.armed
    }
}

/// A shared partial-progress probe: the latest progress counter a running
/// simulation reported through its [`Interrupt`] polls.
///
/// Attach one with [`Interrupt::with_progress`]; every `check(cycle)` then
/// publishes `cycle` with a single relaxed store, and any thread holding a
/// clone can read the run's most recent position without touching the
/// fabric. This is the plumbing the experiment daemon's `progress` events
/// stream from: the poll sites the cancellation layer already owns double
/// as progress reports, so no fabric needs a second instrumentation path.
///
/// The counter unit is whatever the polling loop counts (serviced cycles
/// for the mesh, gather attempts for PSCAN, phases for the machine) and is
/// monotone within one run. `u64::MAX` means "no poll observed yet".
#[derive(Debug, Clone, Default)]
pub struct Progress {
    cycle: Arc<AtomicU64>,
    polls: Arc<AtomicU64>,
}

impl Progress {
    /// A fresh probe with no observations.
    pub fn new() -> Self {
        Progress {
            cycle: Arc::new(AtomicU64::new(u64::MAX)),
            polls: Arc::new(AtomicU64::new(0)),
        }
    }

    /// The most recently polled progress counter, or `None` before the
    /// first poll.
    pub fn cycle(&self) -> Option<u64> {
        match self.cycle.load(Ordering::Relaxed) {
            u64::MAX => None,
            c => Some(c),
        }
    }

    /// Total interrupt polls observed (over all fabrics sharing the probe).
    pub fn polls(&self) -> u64 {
        self.polls.load(Ordering::Relaxed)
    }

    #[inline]
    fn record(&self, cycle: u64) {
        // Saturate just below the "unobserved" sentinel.
        self.cycle.store(cycle.min(u64::MAX - 1), Ordering::Relaxed);
        self.polls.fetch_add(1, Ordering::Relaxed);
    }
}

/// A wall-clock deadline.
#[derive(Debug, Clone, Copy)]
pub struct Deadline {
    at: Instant,
}

impl Deadline {
    /// A deadline `d` from now.
    pub fn after(d: Duration) -> Self {
        Deadline {
            at: Instant::now() + d,
        }
    }

    /// A deadline `secs` seconds from now. Negative, NaN or absurdly large
    /// values are clamped to `[0, ~1 year]`, so `0.0` means "already
    /// expired" and garbage cannot panic `Duration::from_secs_f64`.
    pub fn after_secs_f64(secs: f64) -> Self {
        const YEAR: f64 = 365.0 * 24.0 * 3600.0;
        let secs = if secs.is_finite() {
            secs.clamp(0.0, YEAR)
        } else {
            YEAR
        };
        Deadline::after(Duration::from_secs_f64(secs))
    }

    /// Whether the deadline has passed. Costs an `Instant::now()` read —
    /// poll through [`Interrupt`] to amortize it.
    pub fn expired(&self) -> bool {
        Instant::now() >= self.at
    }
}

/// Why a run was interrupted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CancelCause {
    /// A [`CancelToken`] this run was watching was cancelled.
    Cancelled,
    /// The run's [`Deadline`] passed.
    DeadlineExceeded,
    /// The deterministic cycle bound was reached.
    CycleReached {
        /// The configured bound.
        bound: u64,
    },
}

impl std::fmt::Display for CancelCause {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CancelCause::Cancelled => write!(f, "cancel token tripped"),
            CancelCause::DeadlineExceeded => write!(f, "deadline exceeded"),
            CancelCause::CycleReached { bound } => {
                write!(f, "cycle bound {bound} reached")
            }
        }
    }
}

/// The poll bundle a simulator carries: cancellation watches, an optional
/// wall-clock deadline, and an optional deterministic cycle bound.
///
/// Build with the `with_*` combinators and install via the fabric's
/// `set_interrupt`. An empty `Interrupt` never fires — but prefer leaving
/// the fabric's `Option<Interrupt>` as `None` to skip the poll entirely.
#[derive(Debug, Clone, Default)]
#[must_use = "an Interrupt does nothing until installed on a simulator"]
pub struct Interrupt {
    watches: Vec<CancelWatch>,
    deadline: Option<Deadline>,
    at_cycle: Option<u64>,
    progress: Option<Progress>,
    /// Polls remaining until the next deadline check; 0 = check now.
    countdown: u32,
}

impl Interrupt {
    /// Polls between `Instant::now()` reads for the deadline check. The
    /// first poll always checks (countdown starts at zero), so an
    /// already-expired deadline fires deterministically at the first poll
    /// site regardless of host speed.
    pub(crate) const DEADLINE_POLL_PERIOD: u32 = 1024;

    /// An empty interrupt: fires on nothing until combinators add sources.
    pub fn new() -> Self {
        Interrupt::default()
    }

    /// Also fire when `watch` trips. Multiple watches compose (e.g. a
    /// batch-wide token plus a per-job token).
    pub fn with_watch(mut self, watch: CancelWatch) -> Self {
        self.watches.push(watch);
        self
    }

    /// Convenience: arm a fresh watch on `token` and add it.
    pub fn with_token(self, token: &CancelToken) -> Self {
        self.with_watch(token.watch())
    }

    /// Also fire when `deadline` passes (replaces any earlier deadline).
    pub fn with_deadline(mut self, deadline: Deadline) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// Also fire — deterministically — when the polled progress counter
    /// reaches `cycle`. The mesh polls with its serviced cycle, so
    /// `with_cycle_bound(0)` cancels before any cycle is serviced and
    /// `with_cycle_bound(u64::MAX)` never fires; both are exercised by the
    /// cancellation-determinism proptests.
    pub fn with_cycle_bound(mut self, cycle: u64) -> Self {
        self.at_cycle = Some(cycle);
        self
    }

    /// Also publish every polled progress counter to `probe` (clones share
    /// the underlying atomics). Progress reporting alone does not arm the
    /// interrupt: an interrupt carrying only a probe never fires, but each
    /// poll still publishes its position.
    pub fn with_progress(mut self, probe: Progress) -> Self {
        self.progress = Some(probe);
        self
    }

    /// Whether any source is armed; an empty interrupt can be skipped.
    /// A progress probe by itself does not arm the interrupt for
    /// cancellation, but it still wants polls, so it counts here.
    pub fn is_armed(&self) -> bool {
        !self.watches.is_empty()
            || self.deadline.is_some()
            || self.at_cycle.is_some()
            || self.progress.is_some()
    }

    /// Poll all sources with the host loop's progress counter (`cycle` in
    /// whatever unit the loop counts: serviced cycles, attempts, phases,
    /// accesses). Returns the cause on the first firing source, checked in
    /// deterministic-first order: cycle bound, then watches, then the
    /// (throttled) deadline.
    #[inline]
    pub fn check(&mut self, cycle: u64) -> Option<CancelCause> {
        if let Some(p) = &self.progress {
            p.record(cycle);
        }
        if let Some(bound) = self.at_cycle {
            if cycle >= bound {
                return Some(CancelCause::CycleReached { bound });
            }
        }
        if self.watches.iter().any(CancelWatch::is_cancelled) {
            return Some(CancelCause::Cancelled);
        }
        if let Some(d) = &self.deadline {
            if self.countdown == 0 {
                self.countdown = Self::DEADLINE_POLL_PERIOD;
                if d.expired() {
                    return Some(CancelCause::DeadlineExceeded);
                }
            }
            self.countdown -= 1;
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn token_trips_watches_armed_before_cancel() {
        let t = CancelToken::new();
        let w = t.watch();
        assert!(!w.is_cancelled());
        t.cancel();
        assert!(w.is_cancelled());
        assert!(w.is_cancelled(), "sticky");
    }

    #[test]
    fn watch_armed_after_cancel_is_clean() {
        let t = CancelToken::new();
        t.cancel();
        let w = t.watch();
        assert!(!w.is_cancelled(), "pre-arm cancellations are invisible");
        t.cancel();
        assert!(w.is_cancelled());
    }

    #[test]
    fn clones_share_the_counter() {
        let a = CancelToken::new();
        let b = a.clone();
        let w = a.watch();
        b.cancel();
        assert!(w.is_cancelled());
        assert_eq!(a.generation(), 1);
    }

    #[test]
    fn cross_thread_cancellation() {
        let t = CancelToken::new();
        let w = t.watch();
        let t2 = t.clone();
        std::thread::spawn(move || t2.cancel()).join().unwrap();
        assert!(w.is_cancelled());
    }

    #[test]
    fn deadline_zero_is_expired_and_garbage_is_clamped() {
        assert!(Deadline::after_secs_f64(0.0).expired());
        assert!(Deadline::after_secs_f64(-5.0).expired());
        assert!(!Deadline::after_secs_f64(3600.0).expired());
        assert!(!Deadline::after_secs_f64(f64::NAN).expired());
        assert!(!Deadline::after_secs_f64(f64::INFINITY).expired());
    }

    #[test]
    fn empty_interrupt_never_fires() {
        let mut i = Interrupt::new();
        assert!(!i.is_armed());
        for c in 0..10_000 {
            assert_eq!(i.check(c), None);
        }
    }

    #[test]
    fn cycle_bound_fires_exactly_at_the_bound() {
        let mut i = Interrupt::new().with_cycle_bound(5);
        assert_eq!(i.check(0), None);
        assert_eq!(i.check(4), None);
        assert_eq!(i.check(5), Some(CancelCause::CycleReached { bound: 5 }));
        assert_eq!(i.check(100), Some(CancelCause::CycleReached { bound: 5 }));
    }

    #[test]
    fn cycle_bound_zero_fires_immediately_and_max_never() {
        let mut zero = Interrupt::new().with_cycle_bound(0);
        assert_eq!(zero.check(0), Some(CancelCause::CycleReached { bound: 0 }));
        let mut never = Interrupt::new().with_cycle_bound(u64::MAX);
        for c in [0, 1, u64::MAX - 1] {
            assert_eq!(never.check(c), None);
        }
    }

    #[test]
    fn expired_deadline_fires_on_the_first_poll() {
        let mut i = Interrupt::new().with_deadline(Deadline::after_secs_f64(0.0));
        assert_eq!(i.check(0), Some(CancelCause::DeadlineExceeded));
    }

    #[test]
    fn deadline_checks_are_throttled() {
        // A deadline expiring mid-window is only observed at the next
        // throttle boundary: the first poll checks, then every PERIOD.
        let mut i = Interrupt::new().with_deadline(Deadline::after_secs_f64(3600.0));
        // The first poll checks (not expired yet).
        assert_eq!(i.check(0), None);
        // Move the deadline into the past by rebuilding the bundle state:
        // simulate by swapping in an expired deadline mid-run.
        i.deadline = Some(Deadline::after_secs_f64(0.0));
        let mut fired_at = None;
        for poll in 1..=2 * Interrupt::DEADLINE_POLL_PERIOD as u64 {
            if i.check(poll).is_some() {
                fired_at = Some(poll);
                break;
            }
        }
        assert_eq!(
            fired_at,
            Some(Interrupt::DEADLINE_POLL_PERIOD as u64),
            "expiry observed exactly at the throttle boundary"
        );
    }

    #[test]
    fn token_cancellation_fires_unthrottled() {
        let t = CancelToken::new();
        let mut i = Interrupt::new().with_token(&t);
        assert_eq!(i.check(0), None);
        t.cancel();
        assert_eq!(i.check(1), Some(CancelCause::Cancelled));
    }

    #[test]
    fn multiple_watches_compose() {
        let batch = CancelToken::new();
        let job = CancelToken::new();
        let mut i = Interrupt::new().with_token(&batch).with_token(&job);
        assert_eq!(i.check(0), None);
        job.cancel();
        assert_eq!(i.check(1), Some(CancelCause::Cancelled));
    }

    #[test]
    fn progress_probe_publishes_polled_cycles() {
        let probe = Progress::new();
        assert_eq!(probe.cycle(), None, "unobserved before the first poll");
        let mut i = Interrupt::new().with_progress(probe.clone());
        assert!(i.is_armed(), "a probe wants polls");
        assert_eq!(i.check(0), None, "a probe alone never cancels");
        assert_eq!(probe.cycle(), Some(0));
        assert_eq!(i.check(417), None);
        assert_eq!(probe.cycle(), Some(417));
        assert_eq!(probe.polls(), 2);
    }

    #[test]
    fn progress_probe_composes_with_cancellation_sources() {
        let probe = Progress::new();
        let t = CancelToken::new();
        let mut i = Interrupt::new().with_progress(probe.clone()).with_token(&t);
        assert_eq!(i.check(9), None);
        t.cancel();
        assert_eq!(i.check(10), Some(CancelCause::Cancelled));
        assert_eq!(probe.cycle(), Some(10), "the firing poll still publishes");
    }

    #[test]
    fn progress_probe_is_shared_across_clones() {
        let probe = Progress::new();
        let mut a = Interrupt::new().with_progress(probe.clone());
        let mut b = a.clone();
        a.check(5);
        b.check(7);
        assert_eq!(probe.cycle(), Some(7));
        assert_eq!(probe.polls(), 2);
    }

    #[test]
    fn deterministic_sources_win_over_wall_clock() {
        // Cycle bound and token both firing: the deterministic bound is
        // reported, keeping error payloads reproducible.
        let t = CancelToken::new();
        t.cancel();
        let mut i = Interrupt::new()
            .with_cycle_bound(0)
            .with_watch(CancelToken::new().watch())
            .with_deadline(Deadline::after_secs_f64(0.0));
        assert_eq!(i.check(0), Some(CancelCause::CycleReached { bound: 0 }));
    }
}
