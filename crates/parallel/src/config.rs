//! Configuration of the parallel TOUCH join.

use serde::{Deserialize, Serialize};
use touch_core::{JoinPlanner, TouchConfig};

/// Configuration of [`crate::ParallelTouchJoin`].
///
/// Wraps the algorithmic knobs of the sequential join ([`TouchConfig`]) with the
/// execution knobs of the parallel subsystem. The defaults aim at "use the machine":
/// auto-detected thread count, assignment chunks small enough to load-balance but
/// large enough to amortise scheduling.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ParallelConfig {
    /// Number of worker threads; `0` means auto-detect
    /// ([`std::thread::available_parallelism`]).
    pub threads: usize,
    /// Number of probe objects per assignment work unit. Smaller chunks balance
    /// better, larger chunks schedule cheaper. Default: 4096.
    pub chunk_size: usize,
    /// Inputs of at most this many objects are STR-sorted on one thread during
    /// tree building; larger ones spread the sort's slabs over the workers, which
    /// only pays once a slab outweighs a thread spawn. Default: 8192.
    pub sort_threshold: usize,
    /// The algorithmic configuration shared with the sequential [`touch_core::TouchJoin`].
    pub touch: TouchConfig,
}

impl Default for ParallelConfig {
    fn default() -> Self {
        // The execution knobs share the planner's constants, so plans translated
        // from a default configuration and configurations synthesised from a
        // default plan can never drift apart.
        ParallelConfig {
            threads: 0,
            chunk_size: JoinPlanner::DEFAULT_CHUNK_SIZE,
            sort_threshold: JoinPlanner::DEFAULT_SORT_THRESHOLD,
            touch: TouchConfig::default(),
        }
    }
}

impl ParallelConfig {
    /// The default configuration pinned to an explicit thread count.
    pub fn with_threads(threads: usize) -> Self {
        ParallelConfig { threads, ..ParallelConfig::default() }
    }

    /// Resolves the configured thread count: an explicit value is used as-is,
    /// `0` auto-detects the machine's available parallelism (falling back to 1).
    pub fn effective_threads(&self) -> usize {
        touch_core::phases::resolve_threads(self.threads)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_sane() {
        let c = ParallelConfig::default();
        assert_eq!(c.threads, 0);
        assert!(c.chunk_size > 0);
        assert!(c.sort_threshold > 0);
        assert_eq!(c.touch, TouchConfig::default());
        assert!(c.effective_threads() >= 1, "auto-detection must resolve to >= 1");
    }

    #[test]
    fn explicit_thread_count_wins() {
        assert_eq!(ParallelConfig::with_threads(5).effective_threads(), 5);
        assert_eq!(ParallelConfig::with_threads(1).effective_threads(), 1);
    }
}
