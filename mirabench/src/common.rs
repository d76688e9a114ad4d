//! Pieces every workload shares.

use std::collections::BTreeMap;
use std::time::{Duration as StdDuration, Instant};

use mira_core::TelemetryEngine;

use crate::stats::Samples;

/// Seed whose outputs the golden digests pin (the `mira-ops` default).
pub const DEFAULT_SEED: u64 = 2014;

/// Milliseconds in a std duration.
pub fn ms(d: StdDuration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// `num / den`, 0 when nothing was counted.
pub fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// Share of hydraulic-memo lookups that hit since `before`, a
/// `hydro_cache_stats` reading of the same engine.
pub fn hydro_hit_ratio(engine: &TelemetryEngine, before: (u64, u64)) -> f64 {
    let (hits, misses) = engine.hydro_cache_stats();
    let hits = hits - before.0;
    ratio(hits, hits + misses - before.1)
}

/// Peak resident set (VmHWM) of this process in MB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Passes every closed loop runs, however short its budget.
const MIN_PASSES: u64 = 3;

/// Timed passes of a closed loop.
pub struct Passes {
    /// Latency of each pass, ms.
    pub latency: Samples,
    /// VmHWM after the first pass: what one `mira-ops` process running
    /// one pass peaks at. Later passes add allocator fragmentation that
    /// depends on the order of inputs and on how many passes the host's
    /// speed let a run fit, not on the program's working set.
    pub peak_rss_mb: f64,
}

/// Runs timed passes of `op` until `budget` has elapsed and at least
/// [`MIN_PASSES`] ran.
pub fn closed_loop(budget: StdDuration, mut op: impl FnMut(u64) -> StdDuration) -> Passes {
    let started = Instant::now();
    let mut latency = Samples::default();
    let mut peak_rss_mb = 0.0;
    let mut i = 0;
    while i < MIN_PASSES || started.elapsed() < budget {
        latency.push(ms(op(i)));
        if i == 0 {
            peak_rss_mb = self::peak_rss_mb();
        }
        i += 1;
    }
    Passes {
        latency,
        peak_rss_mb,
    }
}

/// SplitMix64: the benchmark's own input generator, so generated
/// inputs depend only on `--seed`.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Self(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n.max(1)
    }
}

/// Simulation seeds ("worlds") a run cycles through, one per pass.
/// Each world is a different input (RAS log, CMF schedule, workload);
/// a run that covers several measures a similar mix of inputs whatever
/// its `--seed`, so runs with different seeds stay comparable.
pub const WORLDS: u64 = 8;

/// The world of pass `pass` in the run seeded `seed`.
pub fn world(seed: u64, pass: u64) -> u64 {
    seed.wrapping_mul(WORLDS).wrapping_add(pass % WORLDS)
}

/// What later passes over a world must reproduce: the first pass's
/// output over that world.
#[derive(Debug)]
pub struct References<T>(BTreeMap<u64, T>);

impl<T> Default for References<T> {
    fn default() -> Self {
        Self(BTreeMap::new())
    }
}

impl<T: PartialEq + std::fmt::Debug> References<T> {
    /// Checks `got` against the world's reference; the first output
    /// seen for a world becomes its reference.
    pub fn check(&mut self, world: u64, got: T) -> Option<String> {
        match self.0.get(&world) {
            Some(reference) if *reference != got => Some(format!(
                "world {world}: {got:x?} differs from the first pass {reference:x?}"
            )),
            Some(_) => None,
            None => {
                self.0.insert(world, got);
                None
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_run_covers_the_same_number_of_worlds() {
        let worlds: std::collections::BTreeSet<u64> = (0..20).map(|p| world(3, p)).collect();
        assert_eq!(worlds.len(), WORLDS as usize);
        assert!((0..WORLDS).any(|p| world(DEFAULT_SEED / WORLDS, p) == DEFAULT_SEED));
    }

    #[test]
    fn the_first_pass_over_a_world_is_its_reference() {
        let mut refs = References::default();
        assert_eq!(refs.check(1, 10), None);
        assert_eq!(refs.check(1, 10), None);
        assert!(refs.check(1, 11).is_some());
        assert_eq!(refs.check(2, 11), None, "another world");
    }
}
