//! Regenerates Figure 15 (neuroscience density scaling). Usage:
//! `cargo run -p touch-experiments --release --bin figure15 -- [--scale 0.01] [--out results]`

fn main() {
    let ctx = touch_experiments::Context::from_args_or_exit(std::env::args().skip(1));
    touch_experiments::figure15::run(&ctx).finish(&ctx);
}
