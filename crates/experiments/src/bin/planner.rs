//! Runs the planner ablation (Engine::Auto vs fixed configurations) and the
//! local-join cell sweep.
//! Usage:
//! `cargo run -p touch-experiments --release --bin planner -- [--scale 0.01] [--out results]`

fn main() {
    let ctx = touch_experiments::Context::from_args_or_exit(std::env::args().skip(1));
    touch_experiments::planner::run(&ctx).finish(&ctx);
    touch_experiments::planner::cell_sweep(&ctx).finish(&ctx);
}
