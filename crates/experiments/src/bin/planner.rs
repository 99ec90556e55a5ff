//! Runs the planner ablation (Engine::Auto vs fixed configurations).
//! Usage:
//! `cargo run -p touch-experiments --release --bin planner -- [--scale 0.01] [--out results]`

fn main() {
    let ctx = touch_experiments::Context::from_args_or_exit(std::env::args().skip(1));
    touch_experiments::planner::run(&ctx).finish(&ctx);
}
