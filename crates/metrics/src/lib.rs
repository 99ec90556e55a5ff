//! # touch-metrics — instrumentation for the TOUCH spatial join reproduction
//!
//! The paper evaluates every algorithm along three axes:
//!
//! 1. **Number of comparisons** — pairwise *object–object* MBR intersection tests
//!    (Figures 8a, 9a, 10a, 11a, 14b, 16b),
//! 2. **Execution time**, broken into build / assignment / join phases where
//!    applicable (Figures 8b, 9b, 10b, 11b, 12, 15, 16a),
//! 3. **Memory footprint** of the auxiliary join structures (Figures 9c, 10c, 11c,
//!    16c).
//!
//! This crate provides the shared vocabulary for those measurements:
//!
//! * [`Counters`] — cheap, always-on counters every algorithm increments,
//! * [`PhaseTimer`] / [`Phase`] — wall-clock phase breakdown,
//! * [`MemoryUsage`] — analytic memory accounting trait + helpers,
//! * [`RunReport`] — the complete record of one algorithm execution, the unit the
//!   experiment harness aggregates into tables and figures,
//! * [`TraceSink`] / [`NoTrace`] / [`ExecTrace`] — optional execution tracing
//!   (phase, assignment-chunk, per-node and epoch spans) with
//!   [`Histogram`]-based skew summaries ([`TraceSummary`]) and Chrome-trace /
//!   text-profile exporters,
//! * [`Completion`] — how a run ended (complete / cancelled / deadline), stamped
//!   on [`RunReport`] by the fallible execution paths,
//! * [`FaultPlan`] — a deterministic fault-injection [`TraceSink`] that panics or
//!   stalls at the exact seams the engines trace, for the robustness stress
//!   suites.

#![warn(missing_docs)]
#![forbid(unsafe_code)]
#![warn(rust_2018_idioms)]

mod counters;
mod fault;
mod hist;
mod memory;
mod report;
mod ticks;
mod timer;
mod trace;

pub use counters::Counters;
pub use fault::{FaultAction, FaultPlan, Seam};
pub use hist::{Histogram, HIST_BUCKETS};
pub use memory::{vec_bytes, MemoryUsage};
pub use report::{
    csv_field, format_count, format_duration, json_str, Completion, PlanEstimate, PlanSummary,
    RunReport,
};
pub use ticks::TickSummary;
pub use timer::{Phase, PhaseTimer};
pub use trace::{ExecTrace, NoTrace, TraceEvent, TraceSink, TraceSummary, WorkerStats};
