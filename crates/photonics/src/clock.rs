//! Open-loop photonic clock distribution — paper §III-A.
//!
//! Unlike an electronic H-tree, which fights to deliver *zero* skew, the
//! PSCAN clock travels down the waveguide and is detected at each tap with
//! a skew exactly equal to the optical flight time to that tap. That skew is
//! the mechanism that makes the SCA work: a node that modulates data aligned
//! to its *locally observed* clock produces light that is globally aligned
//! with the clock wavefront, because clock and data co-propagate at the same
//! speed. No PLL/DLL is used ("open-loop distribution").

use serde::Serialize;
use sim_core::time::{Duration, Time};

use crate::waveguide::ChipLayout;

/// The photonic clock generator at the head of a PSCAN bus and the resulting
/// per-tap timing frame.
#[derive(Debug, Clone, Serialize)]
pub struct PhotonicClock {
    /// Clock (= bit slot) period.
    pub period: Duration,
    /// Time the generator launches edge 0 into the waveguide.
    pub origin: Time,
    /// Fixed electrical response delay between a tap detecting a clock edge
    /// and its modulator acting on it ("a short delay for P0 to sense and
    /// respond to the clock" — §III, Fig. 4). Identical at every tap, so it
    /// cancels out of inter-node alignment.
    pub response_delay: Duration,
    /// Flight times from the generator to each tap.
    tap_flight: Vec<Duration>,
}

impl PhotonicClock {
    /// Clock for a given layout, launching edge 0 at `origin`.
    pub fn new(layout: &ChipLayout, period: Duration, origin: Time) -> Self {
        assert!(period.as_ps() > 0, "clock period must be positive");
        let tap_flight = (0..layout.nodes).map(|i| layout.flight_to_tap(i)).collect();
        PhotonicClock {
            period,
            origin,
            response_delay: Duration::from_ps(20),
            tap_flight,
        }
    }

    /// Number of taps this clock serves.
    pub fn taps(&self) -> usize {
        self.tap_flight.len()
    }

    /// Flight time from the generator to tap `i` (the tap's fixed skew).
    pub fn skew(&self, tap: usize) -> Duration {
        self.tap_flight[tap]
    }

    /// Absolute time at which tap `i` *detects* clock edge `k`.
    pub fn edge_at_tap(&self, tap: usize, k: u64) -> Time {
        self.origin + self.period * k + self.skew(tap)
    }

    /// Absolute time at which tap `i`'s modulator can first *drive* data for
    /// clock edge `k` (detection + response delay).
    pub fn drive_time(&self, tap: usize, k: u64) -> Time {
        self.edge_at_tap(tap, k) + self.response_delay
    }

    /// Absolute time at which light driven at tap `i` for edge `k` passes a
    /// downstream position with flight-time offset `extra` from tap `i`.
    pub fn wavefront_downstream(&self, tap: usize, k: u64, extra: Duration) -> Time {
        self.drive_time(tap, k) + extra
    }

    /// The clock edge index whose wavefront is at the bus head at time `t`
    /// (saturating to 0 before the origin).
    pub fn edge_index_at_origin(&self, t: Time) -> u64 {
        t.saturating_since(self.origin).as_ps() / self.period.as_ps()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn clock16() -> PhotonicClock {
        let layout = ChipLayout::square(20.0, 16);
        PhotonicClock::new(&layout, Duration::from_ps(100), Time::ZERO)
    }

    #[test]
    fn skew_grows_downstream() {
        let c = clock16();
        for i in 1..c.taps() {
            assert!(c.skew(i) > c.skew(i - 1));
        }
    }

    #[test]
    fn edge_times_are_periodic_per_tap() {
        let c = clock16();
        let d = c.edge_at_tap(5, 7).since(c.edge_at_tap(5, 3));
        assert_eq!(d, Duration::from_ps(400));
    }

    #[test]
    fn same_edge_reaches_taps_in_position_order() {
        // "a particular clock cycle will be detected at different times by
        // each processor" — and strictly in downstream order.
        let c = clock16();
        for i in 1..c.taps() {
            assert!(c.edge_at_tap(i, 0) > c.edge_at_tap(i - 1, 0));
        }
    }

    #[test]
    fn cophasal_alignment_downstream() {
        // THE key property (§III, Fig. 4): if tap A drives data on its local
        // edge k, the data wavefront arrives at downstream tap B exactly when
        // B observes edge k (+ the common response delay). So B's slot k and
        // A's slot k coincide on the wire.
        let layout = ChipLayout::square(20.0, 16);
        let c = PhotonicClock::new(&layout, Duration::from_ps(100), Time::ZERO);
        let (a, b) = (3usize, 11usize);
        let flight_ab = layout.flight_between(a, b);
        let arrival = c.wavefront_downstream(a, 9, flight_ab);
        let local_edge_b = c.edge_at_tap(b, 9) + c.response_delay;
        // Equal up to the 1 ps rounding of independent flight legs.
        assert!(
            arrival.as_ps().abs_diff(local_edge_b.as_ps()) <= 1,
            "arrival {arrival:?} vs local edge {local_edge_b:?}"
        );
    }

    #[test]
    fn edge_index_at_origin_counts_periods() {
        let c = clock16();
        assert_eq!(c.edge_index_at_origin(Time::ZERO), 0);
        assert_eq!(c.edge_index_at_origin(Time::from_ps(99)), 0);
        assert_eq!(c.edge_index_at_origin(Time::from_ps(100)), 1);
        assert_eq!(c.edge_index_at_origin(Time::from_ps(1050)), 10);
    }
}
