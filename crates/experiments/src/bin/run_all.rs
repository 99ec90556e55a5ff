//! Runs every experiment of the TOUCH evaluation in paper order. Usage:
//! `cargo run -p touch-experiments --release --bin run_all -- [--scale 0.01] [--out results]`

fn main() {
    let ctx = touch_experiments::Context::from_args_or_exit(std::env::args().skip(1));
    let started = std::time::Instant::now();
    for table in touch_experiments::run_all(&ctx) {
        table.finish(&ctx);
    }
    if ctx.verbose {
        println!("all experiments finished in {:.1} s", started.elapsed().as_secs_f64());
    }
}
