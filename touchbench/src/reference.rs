//! The machine-speed reference: a fixed computation, owned by the benchmark
//! and independent of the system under test, timed between ops.
//!
//! The benchmark runs on shared machines whose speed drifts by tens of
//! percent over minutes. Timing this reference interleaved with the ops lets
//! the gated times be stated at the reference's nominal speed: a drift slows
//! ops and reference alike and cancels, while a change to the system moves
//! only the ops. The computation mirrors the ops' mix of work — copying and
//! sorting 56-byte boxes, then sweeping them for overlaps — on inputs that
//! never change, into buffers allocated once, on as many threads as the
//! workload uses.

use crate::measure::{median, mix};
use crate::workloads::Scale;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Samples taken within this long of an op set the op's scale, so a change
/// of speed in the middle of a run is followed.
const WINDOW: Duration = Duration::from_secs(2);

/// The reference's median duration, by thread count, on the machine the
/// bounds were set on (a 2-vCPU x86-64 VM at a quiet time). Gated times are
/// scaled to read as milliseconds or seconds at this speed.
fn nominal_ms(threads: usize) -> f64 {
    if threads == 1 {
        6.5
    } else {
        7.5
    }
}

/// A box laid out like the system's objects (six `f64`s and an id).
#[derive(Clone, Copy)]
struct Item {
    min: [f64; 3],
    max: [f64; 3],
    id: u32,
}

pub struct Reference {
    a: Vec<Item>,
    b: Vec<Item>,
    /// One pair of working buffers per thread.
    buffers: Vec<(Vec<Item>, Vec<Item>)>,
    /// When each sample was taken, and its duration in ms.
    samples: Vec<(Duration, f64)>,
}

impl Reference {
    pub fn new(threads: usize, scale: Scale) -> Self {
        let count = match scale {
            Scale::Full => 20_000,
            Scale::Smoke => 1_000,
        };
        let boxes = |stream: u64| -> Vec<Item> {
            (0..count)
                .map(|i| {
                    let r = |k: u64| (mix(stream ^ (i * 8 + k)) >> 11) as f64 / (1u64 << 53) as f64;
                    let min = [r(0) * 1000.0, r(1) * 100.0, r(2) * 100.0];
                    let max = [min[0] + r(3) * 2.0, min[1] + r(4) * 2.0, min[2] + r(5) * 2.0];
                    Item { min, max, id: i as u32 }
                })
                .collect()
        };
        let (a, b) = (boxes(1), boxes(2));
        let buffers = vec![(a.clone(), b.clone()); threads.max(1)];
        Reference { a, b, buffers, samples: Vec::new() }
    }

    /// Times the reference on every thread at once, twice, and records the
    /// faster run as taken `at`: the reference measures the machine's speed,
    /// so the second run discounts what the preceding op left in the caches.
    pub fn sample(&mut self, at: Duration) {
        let fastest = (0..2).map(|_| self.run_once()).fold(f64::INFINITY, f64::min);
        self.samples.push((at, fastest));
    }

    fn run_once(&mut self) -> f64 {
        let (a, b) = (&self.a, &self.b);
        let start = Instant::now();
        if let [(x, y)] = self.buffers.as_mut_slice() {
            black_box(sweep(a, b, x, y));
        } else {
            std::thread::scope(|scope| {
                for (x, y) in &mut self.buffers {
                    scope.spawn(move || black_box(sweep(a, b, x, y)));
                }
            });
        }
        start.elapsed().as_secs_f64() * 1e3
    }

    /// The factor that states a time measured around `at` at the reference
    /// speed: the nominal duration over the median of the samples taken
    /// within `WINDOW` of `at`, or of all samples if none was that close.
    pub fn scale_at(&self, at: Duration) -> f64 {
        let near: Vec<f64> = self
            .samples
            .iter()
            .filter(|(t, _)| t.max(&at).saturating_sub(*t.min(&at)) <= WINDOW)
            .map(|&(_, ms)| ms)
            .collect();
        let measured = if near.is_empty() { self.median_ms() } else { median(&near) };
        if measured > 0.0 {
            nominal_ms(self.buffers.len()) / measured
        } else {
            1.0
        }
    }

    /// The median of all samples, in ms.
    pub fn median_ms(&self) -> f64 {
        median(&self.samples.iter().map(|&(_, ms)| ms).collect::<Vec<_>>())
    }
}

/// Copies both sides into the buffers, sorts them by lower x and sweeps for
/// overlapping pairs; returns a checksum of the pairs so nothing is elided.
fn sweep(a: &[Item], b: &[Item], x: &mut [Item], y: &mut [Item]) -> u64 {
    x.copy_from_slice(a);
    y.copy_from_slice(b);
    x.sort_unstable_by(|p, q| p.min[0].total_cmp(&q.min[0]));
    y.sort_unstable_by(|p, q| p.min[0].total_cmp(&q.min[0]));
    let overlaps =
        |p: &Item, q: &Item| (0..3).all(|k| p.min[k] <= q.max[k] && q.min[k] <= p.max[k]);
    let pair = |p: &Item, q: &Item| u64::from(p.id) << 32 | u64::from(q.id);
    let mut sum = 0u64;
    let (mut i, mut j) = (0, 0);
    while i < x.len() && j < y.len() {
        if x[i].min[0] <= y[j].min[0] {
            for q in y[j..].iter().take_while(|q| q.min[0] <= x[i].max[0]) {
                if overlaps(&x[i], q) {
                    sum = sum.wrapping_add(pair(&x[i], q));
                }
            }
            i += 1;
        } else {
            for p in x[i..].iter().take_while(|p| p.min[0] <= y[j].max[0]) {
                if overlaps(p, &y[j]) {
                    sum = sum.wrapping_add(pair(p, &y[j]));
                }
            }
            j += 1;
        }
    }
    sum
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_sweep_finds_exactly_the_overlapping_pairs() {
        let reference = Reference::new(1, Scale::Smoke);
        let (a, b) = (&reference.a[..500], &reference.b[..500]);
        let brute = a
            .iter()
            .flat_map(|p| b.iter().map(move |q| (p, q)))
            .filter(|(p, q)| (0..3).all(|k| p.min[k] <= q.max[k] && q.min[k] <= p.max[k]))
            .fold(0u64, |s, (p, q)| s.wrapping_add(u64::from(p.id) << 32 | u64::from(q.id)));
        let (mut x, mut y) = (a.to_vec(), b.to_vec());
        assert_eq!(sweep(a, b, &mut x, &mut y), brute);
    }
}
