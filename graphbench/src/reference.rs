//! The host's speed, measured beside the program, and the scale that
//! turns a wall-clock figure into one at reference speed.
//!
//! The benchmark runs on shared hosts whose speed drifts by up to 1.5x
//! over minutes, as other tenants come and go: in one run everything
//! — the program, the corpus load, a plain sort — is slower than in the
//! run two minutes before, and its speed moves within a run too.  So
//! through each run, between slices of measured work (half a second
//! each, while no request is in flight), the benchmark times a fixed
//! piece of reference work that uses no code of the program but does
//! the same kinds of things: it formats a few thousand keys, sorts them,
//! and hashes them into a table larger than the caches.  It runs on as
//! many threads at once as the workload keeps busy, since a busy
//! neighbouring core slows a core down, and it allocates nothing (its
//! buffers are set aside at the start), so the state of the program's
//! heap does not move it.  Every timed figure is scaled by
//! `NOMINAL_US / reference`, with the median of the reference samples
//! taken within `WINDOW_SECS` of it, so it reads as it would on the host
//! at reference speed.  A change to the program moves the scaled figures
//! as it moves the wall-clock ones; a change in the host's speed moves
//! both the program and the reference, and cancels.  Every result also
//! records the unscaled figures and the reference time itself.

use crate::ops::Rng;
use crate::stats::median;
use std::hint::black_box;
use std::io::Write as _;
use std::sync::Barrier;
use std::time::Instant;

/// The reference time, in µs, that scaled figures are expressed at: a
/// round figure near the reference work's time on the 2-vCPU Xeon
/// (2.0 GHz) VM the benchmark was tuned on.  It sets the unit of the
/// scaled figures and nothing else.
pub const NOMINAL_US: f64 = 2000.0;
/// Seconds of measured work between two samples.
pub const SLICE_SECS: f64 = 0.5;
/// A time is scaled by the samples taken this many seconds around it.
const WINDOW_SECS: f64 = 0.75;
/// Keys per unit of reference work.
const KEYS: usize = 1 << 14;
/// Slots of the hash table (8 MiB).
const SLOTS: usize = 1 << 20;
/// Repetitions per sample; the sample is their median, so a single
/// preemption does not set it.
const REPS: u64 = 5;

/// The reference work's buffers.
#[derive(Debug)]
struct Buffers {
    keys: Vec<[u8; 16]>,
    slots: Vec<u64>,
}

/// One unit of reference work: formats `KEYS` keys from `seed`, sorts
/// them, and hashes each into a few table slots.
fn work(buf: &mut Buffers, seed: u64) -> u64 {
    let mut rng = Rng::new(seed);
    for key in buf.keys.iter_mut() {
        *key = [0; 16];
        let _ = write!(&mut key[..], "key{:x}", rng.next_u64() >> 24);
    }
    buf.keys.sort_unstable();
    let mut acc = 0u64;
    for (i, key) in buf.keys.iter().enumerate() {
        let mut h = u64::from_le_bytes(key[..8].try_into().expect("8 bytes"))
            ^ u64::from_le_bytes(key[8..].try_into().expect("8 bytes"));
        for _ in 0..4 {
            h = (h ^ (h >> 29)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            let slot = &mut buf.slots[(h as usize) & (SLOTS - 1)];
            *slot = slot.wrapping_add(i as u64);
            acc ^= *slot;
        }
    }
    acc
}

/// Reference samples taken through a run.
#[derive(Debug)]
pub struct Reference {
    origin: Instant,
    /// One set of buffers per thread that runs the reference work.
    buffers: Vec<Buffers>,
    /// `(seconds since origin, µs)` per sample, in time order.
    samples: Vec<(f64, f64)>,
}

impl Reference {
    /// Starts the run's timeline and takes its first sample.  The
    /// reference work runs on `threads` threads at once: as many as the
    /// workload keeps busy, so that it meets the same contention between
    /// the host's cores as the workload does.
    pub fn start(threads: usize) -> Reference {
        let buffers = (0..threads.max(1))
            .map(|_| Buffers { keys: vec![[0; 16]; KEYS], slots: vec![0; SLOTS] })
            .collect();
        let mut r = Reference { origin: Instant::now(), buffers, samples: Vec::new() };
        r.sample();
        r
    }

    /// The instant the timeline starts at.
    pub fn origin(&self) -> Instant {
        self.origin
    }

    /// Seconds since the timeline started.
    pub fn now(&self) -> f64 {
        self.origin.elapsed().as_secs_f64()
    }

    /// Takes a sample (the median µs of every thread's repetitions);
    /// call it between slices of measured work.
    pub fn sample(&mut self) {
        let threads = self.buffers.len();
        let start = Barrier::new(threads);
        let time = |buf: &mut Buffers| -> Vec<f64> {
            start.wait();
            (0..REPS)
                .map(|seed| {
                    let t = Instant::now();
                    black_box(work(black_box(&mut *buf), seed));
                    t.elapsed().as_secs_f64() * 1e6
                })
                .collect()
        };
        let (first, rest) = self.buffers.split_first_mut().expect("one thread at least");
        let us: Vec<f64> = std::thread::scope(|scope| {
            let others: Vec<_> = rest.iter_mut().map(|buf| scope.spawn(|| time(buf))).collect();
            let mut us = time(first);
            for h in others {
                us.extend(h.join().expect("reference thread panicked"));
            }
            us
        });
        let at = self.now();
        self.samples.push((at, median(&us)));
    }

    /// Takes a sample if the last one is `SLICE_SECS` old; call it
    /// between units of measured work.
    pub fn tick(&mut self) {
        if self.samples.last().is_none_or(|&(at, _)| self.now() - at >= SLICE_SECS) {
            self.sample();
        }
    }

    /// The median reference µs over the run.
    pub fn median_us(&self) -> f64 {
        median(&self.samples.iter().map(|&(_, us)| us).collect::<Vec<_>>())
    }

    /// The factor that scales a time measured at `at` (seconds since
    /// origin) to reference speed: from the median of the samples within
    /// `WINDOW_SECS` of it, or else of the last sample before it and the
    /// first after.
    pub fn scale(&self, at: f64) -> f64 {
        let near: Vec<f64> = self
            .samples
            .iter()
            .filter(|&&(t, _)| (t - at).abs() <= WINDOW_SECS)
            .map(|&(_, us)| us)
            .collect();
        let us = if near.is_empty() {
            let after = self.samples.partition_point(|&(t, _)| t < at);
            let before = after.saturating_sub(1);
            let after = after.min(self.samples.len() - 1);
            (self.samples[before].1 + self.samples[after].1) / 2.0
        } else {
            median(&near)
        };
        NOMINAL_US / us
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn work_is_deterministic() {
        let buf = || Buffers { keys: vec![[0; 16]; KEYS], slots: vec![0; SLOTS] };
        assert_eq!(work(&mut buf(), 3), work(&mut buf(), 3));
        assert_ne!(work(&mut buf(), 3), work(&mut buf(), 4));
    }

    #[test]
    fn scale_uses_the_samples_around_an_instant() {
        let r = Reference {
            origin: Instant::now(),
            buffers: Vec::new(),
            samples: vec![(0.0, 1000.0), (0.5, 4000.0), (1.0, 3000.0), (4.5, 5000.0)],
        };
        assert_eq!(WINDOW_SECS, 0.75);
        assert_eq!(r.median_us(), 3500.0);
        assert_eq!(r.scale(0.1), NOMINAL_US / 2500.0);
        assert_eq!(r.scale(0.8), NOMINAL_US / 3500.0);
        assert_eq!(r.scale(2.5), NOMINAL_US / 4000.0);
        assert_eq!(r.scale(20.0), NOMINAL_US / 5000.0);
    }
}
