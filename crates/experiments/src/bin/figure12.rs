//! Regenerates Figure 12 (impact of ε). Usage:
//! `cargo run -p touch-experiments --release --bin figure12 -- [--scale 0.01] [--out results]`

fn main() {
    let ctx = touch_experiments::Context::from_args_or_exit(std::env::args().skip(1));
    touch_experiments::figure12::run(&ctx).finish(&ctx);
}
