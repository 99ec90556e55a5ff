//! Regenerates Figure 13 (TOUCH filtering capability). Usage:
//! `cargo run -p touch-experiments --release --bin figure13 -- [--scale 0.01] [--out results]`

fn main() {
    let ctx = touch_experiments::Context::from_args_or_exit(std::env::args().skip(1));
    touch_experiments::figure13::run(&ctx).finish(&ctx);
}
