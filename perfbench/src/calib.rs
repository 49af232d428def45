//! Host-speed calibration.
//!
//! The benchmark's host switches between a fast and a slow state, for
//! seconds to minutes at a time, from contention outside the machine; the
//! same request can take 1.6× longer in the slow state. A calibration pass
//! is a fixed mix of generic integer work, independent of the simulator's
//! code, that slows with the host, though not always in the same
//! proportion as every workload. The run
//! times passes between requests, and each gated host time is multiplied by
//! [`REFERENCE_MS`] over the passes' lower decile: the time the work would
//! have taken on a host where one pass takes [`REFERENCE_MS`].

use std::collections::HashMap;
use std::fmt::Write;
use std::hash::{BuildHasherDefault, DefaultHasher};
use std::hint::black_box;
use std::time::Instant;

/// A round value near a pass's lower-decile host time, in milliseconds, on
/// the host the benchmark was defined on (an Intel Xeon 2-vCPU KVM guest),
/// where it read 19–22 ms in the fast state. Only ratios between runs
/// matter; the constant fixes the scale.
pub const REFERENCE_MS: f64 = 22.0;

/// Minimum milliseconds between two passes, so that passes take about a
/// tenth of a run.
pub const EVERY_MS: f64 = 250.0;

/// Keys of the sorting step.
const SORT_KEYS: u32 = 1 << 16;

/// Entries of the hash-map step.
const MAP_KEYS: u64 = 50_000;

/// The calibration work, its input and its buffers. A pass allocates
/// nothing, so its time does not depend on the heap the workload left.
#[derive(Debug)]
pub struct Calibration {
    keys: Vec<u32>,
    sorted: Vec<u32>,
    map: HashMap<u64, u64, BuildHasherDefault<DefaultHasher>>,
    text: String,
}

impl Default for Calibration {
    fn default() -> Self {
        Calibration::new()
    }
}

impl Calibration {
    /// Prepare the fixed input.
    pub fn new() -> Self {
        let keys: Vec<u32> = (0..SORT_KEYS)
            .map(|i| i.wrapping_mul(2_654_435_761) ^ (i >> 3))
            .collect();
        Calibration {
            sorted: keys.clone(),
            keys,
            map: HashMap::with_capacity_and_hasher(MAP_KEYS as usize, Default::default()),
            text: String::with_capacity(64),
        }
    }

    /// Run one pass; returns its host time in milliseconds.
    pub fn pass(&mut self) -> f64 {
        let t = Instant::now();
        black_box(self.work());
        t.elapsed().as_secs_f64() * 1e3
    }

    /// The four steps cover what the workloads spend host time on:
    /// independent integer streams, data-dependent branches over an
    /// L2-sized array, hashing with scattered memory access, and number
    /// formatting and parsing.
    fn work(&mut self) -> u64 {
        let (mut a, mut b, mut c, mut d) = (1u64, 2u64, 3u64, 4u64);
        for i in 0..3_000_000u64 {
            a ^= a << 13;
            a ^= a >> 7;
            b = b.wrapping_add(i ^ a);
            c ^= c << 5;
            c ^= c >> 11;
            d = d.wrapping_add(c ^ i);
        }

        let v = &mut self.sorted;
        v.copy_from_slice(&self.keys);
        for _ in 0..4 {
            v.sort_unstable();
            v.iter_mut()
                .for_each(|x| *x = x.wrapping_mul(2_654_435_761));
        }

        let map = &mut self.map;
        map.clear();
        for i in 0..MAP_KEYS {
            map.insert(i.wrapping_mul(0x9E37_79B9_7F4A_7C15), i);
        }
        let found = (0..MAP_KEYS)
            .filter(|i| map.contains_key(&i.wrapping_mul(7)))
            .count() as u64;

        let mut text = 0u64;
        for i in 0..40_000u64 {
            let s = &mut self.text;
            s.clear();
            write!(s, "{{\"k\":{},\"v\":{:.3}}}", i, i as f64 / 7.0)
                .expect("a String takes any write");
            let k: u64 = s[5..]
                .split(',')
                .next()
                .and_then(|k| k.parse().ok())
                .unwrap_or(0);
            text += s.len() as u64 + k;
        }

        a ^ b ^ c ^ d ^ u64::from(v[7]) ^ found ^ text
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_pass_does_the_same_work_every_time() {
        let mut cal = Calibration::new();
        assert_eq!(cal.work(), cal.work());
        assert!(cal.pass() > 0.0);
    }
}
