//! Runs the TOUCH ablation study (local-join strategy, join order, partitions).
//! Usage:
//! `cargo run -p touch-experiments --release --bin ablation -- [--scale 0.01] [--out results]`

fn main() {
    let ctx = touch_experiments::Context::from_args_or_exit(std::env::args().skip(1));
    touch_experiments::ablation::run(&ctx).finish(&ctx);
}
