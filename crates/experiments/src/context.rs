//! Experiment context: scale factor, seeds, output directory.

use std::path::PathBuf;

/// Shared configuration of an experiment run.
#[derive(Debug, Clone)]
pub struct Context {
    /// Fraction of the paper's dataset cardinalities to generate (1.0 = paper scale).
    pub scale: f64,
    /// Seed for dataset A generators.
    pub seed_a: u64,
    /// Seed for dataset B generators.
    pub seed_b: u64,
    /// Directory CSV results are written to (`None` = don't write files).
    pub output_dir: Option<PathBuf>,
    /// Print tables to stdout while running.
    pub verbose: bool,
    /// Path an execution trace (Chrome `trace_events` JSON) is written to, for
    /// binaries that support tracing (`None` = don't trace).
    pub trace: Option<PathBuf>,
}

impl Context {
    /// The default scale: 1 % of the paper's cardinalities, which keeps the full
    /// `run_all` sweep in the minutes range on a laptop while preserving selectivity
    /// and algorithm orderings.
    pub const DEFAULT_SCALE: f64 = 0.01;

    /// A context with the default scale and no file output.
    pub fn new(scale: f64) -> Self {
        Context {
            scale,
            seed_a: 20130622,
            seed_b: 20130627,
            output_dir: None,
            verbose: false,
            trace: None,
        }
    }

    /// A quiet, tiny-scale context used by unit tests.
    pub fn for_tests() -> Self {
        Context::new(0.0008)
    }

    /// Sets the output directory for CSV files.
    pub fn with_output_dir(mut self, dir: impl Into<PathBuf>) -> Self {
        self.output_dir = Some(dir.into());
        self
    }

    /// Enables progress printing.
    pub fn with_verbose(mut self, verbose: bool) -> Self {
        self.verbose = verbose;
        self
    }

    /// Scales one of the paper's dataset cardinalities, never dropping below 64
    /// objects so that even extreme scales exercise real joins.
    pub fn scaled_count(&self, paper_count: usize) -> usize {
        ((paper_count as f64 * self.scale).round() as usize).max(64)
    }

    /// Parses a context from command-line arguments of the experiment binaries:
    /// `--scale <f>`, `--out <dir>`, `--quiet`, `--seed-a <n>`, `--seed-b <n>`,
    /// `--trace <path>`.
    pub fn from_args(args: impl Iterator<Item = String>) -> Result<Self, String> {
        let mut ctx = Context::new(Self::DEFAULT_SCALE).with_verbose(true);
        let args: Vec<String> = args.collect();
        let mut i = 0;
        while i < args.len() {
            let take_value = |i: usize| -> Result<&String, String> {
                args.get(i + 1).ok_or_else(|| format!("missing value after {}", args[i]))
            };
            match args[i].as_str() {
                "--scale" => {
                    ctx.scale =
                        take_value(i)?.parse().map_err(|e| format!("invalid --scale: {e}"))?;
                    i += 2;
                }
                "--out" => {
                    ctx.output_dir = Some(PathBuf::from(take_value(i)?));
                    i += 2;
                }
                "--seed-a" => {
                    ctx.seed_a =
                        take_value(i)?.parse().map_err(|e| format!("invalid --seed-a: {e}"))?;
                    i += 2;
                }
                "--seed-b" => {
                    ctx.seed_b =
                        take_value(i)?.parse().map_err(|e| format!("invalid --seed-b: {e}"))?;
                    i += 2;
                }
                "--trace" => {
                    ctx.trace = Some(PathBuf::from(take_value(i)?));
                    i += 2;
                }
                "--quiet" => {
                    ctx.verbose = false;
                    i += 1;
                }
                other => return Err(format!("unknown argument: {other}")),
            }
        }
        if !(ctx.scale > 0.0 && ctx.scale <= 1.0) {
            return Err(format!("--scale must be in (0, 1], got {}", ctx.scale));
        }
        Ok(ctx)
    }

    /// [`Context::from_args`] for an experiment binary's `main`: on a bad
    /// argument it prints the one-line error to stderr and exits with status 2.
    pub fn from_args_or_exit(args: impl Iterator<Item = String>) -> Self {
        Self::from_args(args).unwrap_or_else(|e| {
            eprintln!("{e}");
            std::process::exit(2)
        })
    }
}

impl Default for Context {
    fn default() -> Self {
        Context::new(Self::DEFAULT_SCALE)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scaled_count_has_a_floor() {
        let ctx = Context::new(0.01);
        assert_eq!(ctx.scaled_count(1_600_000), 16_000);
        assert_eq!(ctx.scaled_count(100), 64);
    }

    #[test]
    fn parses_arguments() {
        let ctx = Context::from_args(
            [
                "--scale",
                "0.05",
                "--out",
                "/tmp/results",
                "--quiet",
                "--seed-a",
                "7",
                "--trace",
                "/tmp/trace.json",
            ]
            .iter()
            .map(|s| s.to_string()),
        )
        .unwrap();
        assert_eq!(ctx.scale, 0.05);
        assert_eq!(ctx.output_dir, Some(PathBuf::from("/tmp/results")));
        assert!(!ctx.verbose);
        assert_eq!(ctx.seed_a, 7);
        assert_eq!(ctx.trace, Some(PathBuf::from("/tmp/trace.json")));
    }

    #[test]
    fn rejects_bad_arguments() {
        assert!(Context::from_args(["--scale"].iter().map(|s| s.to_string())).is_err());
        assert!(Context::from_args(["--scale", "2.0"].iter().map(|s| s.to_string())).is_err());
        assert!(Context::from_args(["--bogus"].iter().map(|s| s.to_string())).is_err());
    }
}
