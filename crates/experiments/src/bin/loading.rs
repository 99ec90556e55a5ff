//! Regenerates the §6.3 loading-vs-join comparison. Usage:
//! `cargo run -p touch-experiments --release --bin loading -- [--scale 0.01] [--out results]`

fn main() {
    let ctx = touch_experiments::Context::from_args_or_exit(std::env::args().skip(1));
    touch_experiments::loading::run(&ctx).finish(&ctx);
}
