//! Runs the thread-scaling experiment (parallel TOUCH at 1/2/4/8 threads vs. the
//! sequential baseline). Usage:
//! `cargo run -p touch-experiments --release --bin scaling -- [--scale 0.01] [--out results]`

fn main() {
    let ctx = touch_experiments::Context::from_args_or_exit(std::env::args().skip(1));
    touch_experiments::scaling::run(&ctx).finish(&ctx);
}
