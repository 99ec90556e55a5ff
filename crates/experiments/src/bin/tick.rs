//! Runs the tick-loop simulation experiment (kernel sequential / kernel
//! parallel / serve-backed integration of `touch-sim` over the same world).
//! Usage:
//! `cargo run -p touch-experiments --release --bin tick -- [--scale 0.01] [--out results]`

fn main() {
    let ctx = touch_experiments::Context::from_args_or_exit(std::env::args().skip(1));
    touch_experiments::tick::run(&ctx).finish(&ctx);
}
