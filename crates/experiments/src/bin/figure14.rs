//! Regenerates Figure 14 (impact of the TOUCH fanout). Usage:
//! `cargo run -p touch-experiments --release --bin figure14 -- [--scale 0.01] [--out results]`

fn main() {
    let ctx = touch_experiments::Context::from_args_or_exit(std::env::args().skip(1));
    touch_experiments::figure14::run(&ctx).finish(&ctx);
}
