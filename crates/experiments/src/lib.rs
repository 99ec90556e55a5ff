//! # touch-experiments — regenerating the TOUCH (SIGMOD 2013) evaluation
//!
//! One module (and one binary under `src/bin/`) per table / figure of the paper's
//! Section 6, plus an ablation study of TOUCH's own design knobs:
//!
//! | Module | Paper artifact |
//! |---|---|
//! | [`table1`] | Table 1 — join selectivity of the datasets |
//! | [`loading`] | §6.3 — data loading vs. join time |
//! | [`figure8`] | Figure 8 — small uniform datasets, all 8 algorithms |
//! | [`figure9_11`] | Figures 9/10/11 — large uniform/Gaussian/clustered datasets |
//! | [`figure12`] | Figure 12 — impact of the distance threshold ε |
//! | [`figure13`] | Figure 13 — TOUCH filtering capability |
//! | [`figure14`] | Figure 14 — impact of the TOUCH fanout |
//! | [`figure15`] | Figure 15 — neuroscience density scaling |
//! | [`figure16`] | Figure 16 — neuroscience datasets, time / comparisons / memory |
//! | [`ablation`] | beyond the paper: TOUCH local-join strategy and join order |
//! | [`planner`] | beyond the paper: automatic planning (`Engine::Auto`) vs fixed configurations |
//! | [`scaling`] | beyond the paper: `TouchJoin` thread scaling at 1/2/4/8 threads |
//! | [`streaming`] | beyond the paper: `touch-streaming` epoch amortisation vs. per-batch rebuild |
//! | [`tick`] | beyond the paper: `touch-sim` tick-loop simulation, kernel vs. serve integration |
//!
//! ## Scaling
//!
//! The paper's largest runs (1.6 M × 9.6 M objects, ε = 5, on a 64 GB server) take
//! hours per algorithm. Every experiment here therefore takes a *scale factor*
//! (default [`Context::DEFAULT_SCALE`]) and scales the workload at **constant
//! density** (see [`workload`]): cardinalities shrink by the factor, spatial extents
//! by its cube root, while object sizes and ε keep the paper's absolute values. This
//! preserves per-object neighbourhood structure — selectivity, filtering rates, grid
//! occupancy — and therefore the relative behaviour of the algorithms (who wins, by
//! roughly what factor, where the crossovers are). The grid resolutions of PBSM and
//! of TOUCH's local join are scaled with the cube root of the factor so the absolute
//! cell size stays at the paper's value. Running with `--scale 1.0` reproduces the
//! paper's exact workload.

#![warn(missing_docs)]
#![forbid(unsafe_code)]
#![warn(rust_2018_idioms)]

pub mod ablation;
mod context;
pub mod figure12;
pub mod figure13;
pub mod figure14;
pub mod figure15;
pub mod figure16;
pub mod figure8;
pub mod figure9_11;
pub mod loading;
pub mod planner;
pub mod scaling;
pub mod streaming;
mod suite;
mod table;
pub mod table1;
pub mod tick;
pub mod workload;

pub use context::Context;
pub use suite::{scaled_large_suite, scaled_resolution, scaled_small_suite};
pub use table::{ExperimentTable, Row};

/// Runs every experiment at the context's scale and returns the resulting tables in
/// paper order. This is what the `run_all` binary executes.
pub fn run_all(ctx: &Context) -> Vec<ExperimentTable> {
    vec![
        table1::run(ctx),
        loading::run(ctx),
        figure8::run(ctx),
        figure9_11::run(ctx, touch_datagen::SyntheticDistribution::Uniform),
        figure9_11::run(ctx, touch_datagen::SyntheticDistribution::paper_gaussian()),
        figure9_11::run(ctx, touch_datagen::SyntheticDistribution::paper_clustered()),
        figure12::run(ctx),
        figure13::run(ctx),
        figure14::run(ctx),
        figure15::run(ctx),
        figure16::run(ctx),
        ablation::run(ctx),
        planner::run(ctx),
        scaling::run(ctx),
        streaming::run(ctx),
        tick::run(ctx),
    ]
}
