//! Regenerates Figure 8 (small uniform datasets, all 8 algorithms). Usage:
//! `cargo run -p touch-experiments --release --bin figure8 -- [--scale 0.01] [--out results]`

fn main() {
    let ctx = touch_experiments::Context::from_args_or_exit(std::env::args().skip(1));
    touch_experiments::figure8::run(&ctx).finish(&ctx);
}
