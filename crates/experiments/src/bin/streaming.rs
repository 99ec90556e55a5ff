//! Runs the streaming amortisation experiment (persistent-tree epochs vs.
//! per-batch rebuild at 1/4/16/64 epochs). Usage:
//! `cargo run -p touch-experiments --release --bin streaming -- [--scale 0.01] [--out results]`

fn main() {
    let ctx = touch_experiments::Context::from_args_or_exit(std::env::args().skip(1));
    touch_experiments::streaming::run(&ctx).finish(&ctx);
}
