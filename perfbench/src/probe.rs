//! Host-speed probe.
//!
//! The shared host this benchmark was tuned on switches between speed states
//! about 1.5× apart, each lasting from seconds to about a minute, and every
//! duration the program takes scales with it: a run that lands in the slow
//! state reads 1.5× slower with no change to the code. The guest sees no
//! steal time, so CPU time does not help. What does: a fixed kernel that
//! calls no code under test (a seeded sort, memory- and branch-bound like
//! the compiler) is timed at regular intervals through the run, and each
//! duration the benchmark reports is divided by the host's slowdown at that
//! time — the median probe time near it over [`NOMINAL_MS`], the probe's
//! time in the host's fast state. Reported times therefore read as
//! milliseconds at that speed, and a change to the program moves them while
//! a change of host state mostly does not.

use std::time::Instant;

/// The probe kernel's time in the fast state of the tuning host (a 2-vCPU
/// x86-64 VM). Only ratios of adjusted times matter, so on another host
/// this constant scales every adjusted time by the same factor.
pub const NOMINAL_MS: f64 = 1.05;
/// Sorted elements per probe: 512 KiB, about 1 ms.
const PROBE_LEN: usize = 1 << 16;
/// Time between probes while a loop polls [`SpeedProbe::tick`].
const INTERVAL_S: f64 = 0.1;
/// Probes within this distance of a time give the slowdown there: the
/// host's speed changes within a second, so a wider window blurs it.
const WINDOW_S: f64 = 0.3;

/// Probe samples on one timeline, seconds from the probe's creation.
pub struct SpeedProbe {
    start: Instant,
    input: Vec<u64>,
    scratch: Vec<u64>,
    samples: Vec<(f64, f64)>,
    next_s: f64,
}

impl Default for SpeedProbe {
    fn default() -> Self {
        Self::new()
    }
}

impl SpeedProbe {
    pub fn new() -> Self {
        let mut x: u64 = 0x853C_49E6_748F_EA9B;
        let input = (0..PROBE_LEN)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                x
            })
            .collect();
        SpeedProbe {
            start: Instant::now(),
            input,
            scratch: Vec::with_capacity(PROBE_LEN),
            samples: Vec::new(),
            next_s: 0.0,
        }
    }

    /// Seconds since the probe was created: the timeline of [`Self::slowdown`].
    pub fn now(&self) -> f64 {
        self.start.elapsed().as_secs_f64()
    }

    /// Times the kernel once and records it.
    pub fn sample(&mut self) {
        let t0 = Instant::now();
        self.scratch.clear();
        self.scratch.extend_from_slice(&self.input);
        self.scratch.sort_unstable();
        let fold = self
            .scratch
            .iter()
            .step_by(64)
            .fold(0u64, |h, &v| h.rotate_left(5) ^ v);
        std::hint::black_box(fold);
        let ms = t0.elapsed().as_secs_f64() * 1e3;
        self.record(self.now(), ms);
    }

    /// Samples when the last sample is [`INTERVAL_S`] old; loops call this
    /// between requests.
    pub fn tick(&mut self) {
        if self.now() >= self.next_s {
            self.sample();
            self.next_s = self.now() + INTERVAL_S;
        }
    }

    fn record(&mut self, at_s: f64, ms: f64) {
        self.samples.push((at_s, ms));
    }

    /// The host's slowdown at `at_s`: the median probe time within
    /// [`WINDOW_S`] of it (or, when none is that close, of the three nearest
    /// probes) over [`NOMINAL_MS`]. 1 when nothing was probed.
    pub fn slowdown(&self, at_s: f64) -> f64 {
        let mut near: Vec<f64> = self
            .samples
            .iter()
            .filter(|(t, _)| (t - at_s).abs() <= WINDOW_S)
            .map(|&(_, ms)| ms)
            .collect();
        if near.is_empty() {
            let mut by_distance = self.samples.clone();
            by_distance.sort_by(|a, b| (a.0 - at_s).abs().total_cmp(&(b.0 - at_s).abs()));
            near = by_distance.iter().take(3).map(|&(_, ms)| ms).collect();
        }
        crate::stats::median(&near).map_or(1.0, |m| m / NOMINAL_MS)
    }

    /// The mean slowdown over `[from_s, to_s]`, from the probes in it (the
    /// slowdown at its middle when there are none).
    pub fn mean_slowdown(&self, from_s: f64, to_s: f64) -> f64 {
        let inside: Vec<f64> = self
            .samples
            .iter()
            .filter(|(t, _)| (from_s..=to_s).contains(t))
            .map(|&(t, _)| self.slowdown(t))
            .collect();
        if inside.is_empty() {
            self.slowdown((from_s + to_s) / 2.0)
        } else {
            inside.iter().sum::<f64>() / inside.len() as f64
        }
    }

    /// The median probe time over the whole run, in ms.
    pub fn median_ms(&self) -> f64 {
        let all: Vec<f64> = self.samples.iter().map(|&(_, ms)| ms).collect();
        crate::stats::median(&all).unwrap_or(0.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn probe_with(samples: &[(f64, f64)]) -> SpeedProbe {
        let mut p = SpeedProbe::new();
        for &(t, ms) in samples {
            p.record(t, ms);
        }
        p
    }

    #[test]
    fn slowdown_follows_the_host_state_and_ignores_outliers() {
        // Fast for ten seconds, then 1.5x slow; one probe was preempted.
        let mut s: Vec<(f64, f64)> = (0..100).map(|i| (i as f64 * 0.1, NOMINAL_MS)).collect();
        s.extend((100..200).map(|i| (i as f64 * 0.1, 1.5 * NOMINAL_MS)));
        s[30].1 = 20.0 * NOMINAL_MS;
        let p = probe_with(&s);
        let close = |a: f64, b: f64| (a - b).abs() < 1e-9;
        assert!(close(p.slowdown(3.0), 1.0));
        assert!(close(p.slowdown(15.0), 1.5));
        assert!((p.mean_slowdown(0.0, 19.9) - 1.25).abs() < 0.02);
        // Far from every probe: the nearest three decide.
        assert!(close(p.slowdown(100.0), 1.5));
        assert_eq!(probe_with(&[]).slowdown(1.0), 1.0);
    }

    #[test]
    fn a_real_probe_is_positive_and_ticks_at_its_interval() {
        let mut p = SpeedProbe::new();
        p.tick();
        p.tick();
        assert_eq!(p.samples.len(), 1);
        assert!(p.median_ms() > 0.0 && p.slowdown(p.now()) > 0.0);
    }
}
