//! Regenerates Figures 9/10/11 (large synthetic datasets). Usage:
//! `cargo run -p touch-experiments --release --bin figure9_11 -- [--dist uniform|gaussian|clustered] [--scale 0.01] [--out results]`
//!
//! Without `--dist`, all three figures are produced.

use touch_datagen::SyntheticDistribution;

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    // Extract the figure-specific --dist flag before handing the rest to Context.
    let mut dists = vec![
        SyntheticDistribution::Uniform,
        SyntheticDistribution::paper_gaussian(),
        SyntheticDistribution::paper_clustered(),
    ];
    if let Some(pos) = args.iter().position(|a| a == "--dist") {
        let value = args.get(pos + 1).cloned().unwrap_or_default();
        dists = match value.as_str() {
            "uniform" => vec![SyntheticDistribution::Uniform],
            "gaussian" => vec![SyntheticDistribution::paper_gaussian()],
            "clustered" => vec![SyntheticDistribution::paper_clustered()],
            other => {
                eprintln!("unknown --dist value: {other}");
                std::process::exit(2);
            }
        };
        args.drain(pos..pos + 2);
    }
    let ctx = touch_experiments::Context::from_args_or_exit(args.into_iter());
    for dist in dists {
        touch_experiments::figure9_11::run(&ctx, dist).finish(&ctx);
    }
}
