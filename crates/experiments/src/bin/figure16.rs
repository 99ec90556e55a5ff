//! Regenerates Figure 16 (neuroscience datasets). Usage:
//! `cargo run -p touch-experiments --release --bin figure16 -- [--scale 0.01] [--out results]`

fn main() {
    let ctx = touch_experiments::Context::from_args_or_exit(std::env::args().skip(1));
    touch_experiments::figure16::run(&ctx).finish(&ctx);
}
