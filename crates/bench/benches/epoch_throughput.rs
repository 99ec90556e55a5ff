//! Epoch throughput — the `touch-streaming` engine pushing dataset B through a
//! persistent tree in 1/8/64 epochs, against the per-batch-rebuild alternative
//! (a fresh one-shot TOUCH per batch). Figure 8's uniform workload (A = 10 K,
//! B = 160 K scaled), ε folded into the tree via the standard MBR extension.
//! Amortisation shows up as the streaming rows staying flat while the rebuild rows
//! grow with the epoch count.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;
use touch_bench::synthetic;
use touch_core::{CountingSink, JoinOrder, JoinQuery, TouchConfig, TouchJoin};
use touch_datagen::SyntheticDistribution;
use touch_geom::Dataset;
use touch_streaming::{StreamingConfig, StreamingTouchJoin};

const EPS: f64 = 10.0;

fn bench(c: &mut Criterion) {
    let mut group = c.benchmark_group("epoch_throughput");
    group.sample_size(10);
    group.warm_up_time(std::time::Duration::from_millis(500));
    group.measurement_time(std::time::Duration::from_secs(2));
    let a = synthetic(10_000, SyntheticDistribution::Uniform, 1);
    let b = synthetic(160_000, SyntheticDistribution::Uniform, 2);
    let a_ext = a.extended(EPS);
    let cfg = TouchConfig { join_order: JoinOrder::TreeOnA, ..TouchConfig::default() };

    for epochs in [1usize, 8, 64] {
        let batch = b.len().div_ceil(epochs).max(1);

        // Streaming: the build is paid once, outside the measured routine — the
        // steady-state serving cost is what each iteration measures.
        let mut engine =
            StreamingTouchJoin::build(&a_ext, StreamingConfig { touch: cfg, ..Default::default() });
        group.bench_with_input(
            BenchmarkId::new("stream", format!("e{epochs}")),
            &b,
            |bencher, b| {
                bencher.iter(|| {
                    let mut sink = CountingSink::new();
                    for chunk in b.objects().chunks(batch) {
                        let _ = engine.push_batch(chunk, &mut sink);
                    }
                    black_box(sink.count())
                })
            },
        );

        // The alternative: a fresh one-shot TOUCH (tree rebuild included) per batch.
        let rebuild = TouchJoin::new(cfg);
        group.bench_with_input(
            BenchmarkId::new("rebuild", format!("e{epochs}")),
            &b,
            |bencher, b| {
                bencher.iter(|| {
                    let mut total = 0u64;
                    for chunk in b.objects().chunks(batch) {
                        let chunk_ds = Dataset::from_mbrs(chunk.iter().map(|o| o.mbr));
                        let mut sink = CountingSink::new();
                        let _ = JoinQuery::new(&a_ext, &chunk_ds).engine(&rebuild).run(&mut sink);
                        total += sink.count();
                    }
                    black_box(total)
                })
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
