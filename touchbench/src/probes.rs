//! Two measurements the traced pass adds to its spans: the batch-overlap
//! kernel's cost per candidate lane on each backend, and how much a second
//! thread speeds up the join phase of a traced op's tree.

use crate::measure::{median, mix, ratio};
use crate::workloads::JoinCase;
use std::hint::black_box;
use std::time::Instant;
use touch::core::simd::{overlap_run, Backend, LANES};
use touch::geom::Aabb;
use touch::parallel::phases::par_join_into;
use touch::{Counters, CountingSink, ScratchPool};

const KERNEL_REPS: usize = 11;
const SPEEDUP_REPS: usize = 5;

/// Nanoseconds per candidate lane of `simd::overlap_run` on `backend`: every
/// probe box against every candidate, in 4-lane runs gathered in a shuffled
/// order (as the grid probe gathers its CSR runs). Median of the repetitions.
pub fn overlap_ns_per_lane(backend: Backend, candidates: &[Aabb], probes: &[Aabb]) -> f64 {
    let mut order: Vec<u32> = (0..candidates.len() as u32).collect();
    for i in (1..order.len()).rev() {
        order.swap(i, (mix(i as u64) % (i as u64 + 1)) as usize);
    }
    let lanes = (probes.len() * order.len()) as f64;
    let samples: Vec<f64> = (0..KERNEL_REPS)
        .map(|_| {
            let start = Instant::now();
            let mut hits = 0u32;
            for probe in probes {
                for run in order.chunks(LANES) {
                    hits += overlap_run(backend, black_box(probe), candidates, run).count_ones();
                }
            }
            black_box(hits);
            ratio(start.elapsed().as_nanos() as f64, lanes)
        })
        .collect();
    median(&samples)
}

/// Join-phase time of `case` at one thread over its time at two: the median
/// of repeated joins on warmed scratch, counting pairs only.
pub fn join_speedup(case: &JoinCase) -> f64 {
    let seconds = |threads: usize| {
        let mut pool = ScratchPool::new();
        let samples: Vec<f64> = (0..=SPEEDUP_REPS)
            .map(|_| {
                let start = Instant::now();
                par_join_into(
                    &case.tree,
                    &case.params,
                    threads,
                    case.swap,
                    case.self_join,
                    &mut CountingSink::new(),
                    &mut pool,
                    &mut Counters::new(),
                );
                start.elapsed().as_secs_f64()
            })
            .collect();
        // The first join warms the pool's scratch and is not counted.
        median(&samples[1..])
    };
    ratio(seconds(1), seconds(2))
}
