//! Workloads and engine sets shared by the fault-tolerance and trace suites.
//! Each suite compiles this module on its own and uses a subset of it.
#![allow(dead_code)]

use touch::{
    Dataset, OneShotStreaming, ParallelTouchJoin, ServeConfig, SpatialJoinAlgorithm,
    StreamingConfig, SyntheticDistribution, SyntheticSpec, TouchConfig, TouchJoin,
};

/// Uniform boxes with sides up to 2 units in a `size`-unit cube.
fn uniform(count: usize, size: f64, seed: u64) -> Dataset {
    let space = touch::datagen::SpaceConfig { size, max_object_side: 2.0 };
    SyntheticSpec { count, distribution: SyntheticDistribution::Uniform, space }.generate(seed)
}

/// The default workload: a sparse 60-unit space, meant for ε-distance joins.
pub fn synthetic(count: usize, seed: u64) -> Dataset {
    uniform(count, 60.0, seed)
}

/// A denser workload for the serve tests: their queries are plain intersection
/// joins (no ε extension), so the 60-unit space would yield almost no pairs.
pub fn dense(count: usize, seed: u64) -> Dataset {
    uniform(count, 20.0, seed)
}

pub fn serve_cfg() -> ServeConfig {
    ServeConfig { touch: TouchConfig::default(), delta_limit: None, hazard_slots: 8 }
}

/// The three TOUCH engines at a given worker budget.
pub fn engines(threads: usize) -> Vec<(&'static str, Box<dyn SpatialJoinAlgorithm>)> {
    let streaming = StreamingConfig { threads, ..StreamingConfig::default() };
    vec![
        ("touch", Box::new(TouchJoin::default()) as Box<dyn SpatialJoinAlgorithm>),
        ("parallel", Box::new(ParallelTouchJoin::with_threads(threads))),
        ("streaming", Box::new(OneShotStreaming::new(streaming))),
    ]
}
