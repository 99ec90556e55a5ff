//! Workloads, engine sets and the SIMD backend guard shared by the
//! integration suites. Each suite compiles this module on its own and uses a
//! subset of it.
#![allow(dead_code)]

use std::sync::{Mutex, MutexGuard, PoisonError};
use touch::core::simd::{self, Backend};
use touch::{
    Dataset, ExecutionStrategy, JoinQuery, ServeConfig, SpatialJoinAlgorithm,
    SyntheticDistribution, SyntheticSpec, TouchConfig, TouchJoin,
};

/// `simd::force_backend` is process-global state; every test that forces a
/// backend holds this lock for its whole run and restores runtime detection on
/// drop, so the tests in one binary cannot race each other's overrides.
pub static FORCE_LOCK: Mutex<()> = Mutex::new(());

/// Forces one SIMD backend while alive, holding [`FORCE_LOCK`]; dropping it
/// restores runtime detection, even if the test panics.
pub struct Forced(MutexGuard<'static, ()>);

impl Forced {
    pub fn new(backend: Backend) -> Self {
        let guard = FORCE_LOCK.lock().unwrap_or_else(PoisonError::into_inner);
        assert!(simd::force_backend(Some(backend)), "{} unsupported here", backend.name());
        Forced(guard)
    }
}

impl Drop for Forced {
    fn drop(&mut self) {
        simd::force_backend(None);
    }
}

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
    ServeConfig { touch: TouchConfig::default(), delta_limit: None }
}

/// TOUCH on one worker and at a given worker budget.
pub fn engines(threads: usize) -> Vec<(&'static str, Box<dyn SpatialJoinAlgorithm>)> {
    vec![
        ("touch", Box::new(TouchJoin::default()) as Box<dyn SpatialJoinAlgorithm>),
        ("parallel", Box::new(TouchJoin::default().with_threads(threads))),
    ]
}

/// The plan `query` resolves for its engine, re-pinned to `threads` workers
/// with assignment chunks of 64 probe objects and a sort threshold of 128, so
/// test-sized inputs still reach the multi-worker assignment and sort.
pub fn busy(mut query: JoinQuery<'_>, threads: usize) -> TouchJoin {
    let plan = query.plan().expect("the query's engine has a TOUCH plan");
    let strategy = ExecutionStrategy::Parallel { threads };
    TouchJoin::from_plan(plan.with_strategy(strategy).with_execution(64, 128))
}
