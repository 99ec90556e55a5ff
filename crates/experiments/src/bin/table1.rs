//! Regenerates Table 1 (dataset selectivity). Usage:
//! `cargo run -p touch-experiments --release --bin table1 -- [--scale 0.01] [--out results]`

fn main() {
    let ctx = touch_experiments::Context::from_args_or_exit(std::env::args().skip(1));
    touch_experiments::table1::run(&ctx).finish(&ctx);
}
