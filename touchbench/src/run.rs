//! One workload's run: set-up (repeated, median reported), the untimed
//! oracle, the timed closed loop, and — with tracing — the traced pass.

use crate::measure::{median, tail};
use crate::metrics::{layer_values, Probes, Values};
use crate::probes::{join_speedup, overlap_ns_per_lane};
use crate::reference::Reference;
use crate::spans::{op_profiles, Recorder, Span};
use crate::workloads::{Kind, Scale, Workload};
use std::time::{Duration, Instant};
use touch::core::simd::{self, Backend};

/// Untimed ops after each set-up, counted in `setup_s`.
const WARMUP_OPS: usize = 3;
/// Op time between two samples of the machine-speed reference.
const REFERENCE_EVERY: Duration = Duration::from_millis(250);
/// Failures printed per run; the rest are only counted.
const SHOWN_FAILURES: u64 = 5;

#[derive(Debug, Clone, Copy)]
pub struct Settings {
    pub seed: u64,
    /// Length of the timed phase.
    pub seconds: f64,
    pub trace: bool,
    pub scale: Scale,
}

impl Settings {
    /// Set-ups per run; `setup_s` is their median.
    fn setup_reps(&self) -> usize {
        match self.scale {
            Scale::Full => 5,
            Scale::Smoke => 2,
        }
    }

    /// The timed phase runs at least this many ops, however short `seconds` is.
    fn min_ops(&self) -> usize {
        match self.scale {
            Scale::Full => 20,
            Scale::Smoke => 8,
        }
    }

    fn traced_ops(&self) -> usize {
        match self.scale {
            Scale::Full => 20,
            Scale::Smoke => 3,
        }
    }
}

pub struct Outcome {
    pub kind: Kind,
    pub attempted: u64,
    pub failed: u64,
    pub end_to_end: Values,
    /// Per-layer metrics, when the run was traced.
    pub layers: Option<Values>,
    pub spans: Vec<Span>,
    pub prepare_s: f64,
    /// What the scaled times come from: the wall-clock median op latency and
    /// the reference's median sample, in ms.
    pub wall_op_ms_p50: f64,
    pub reference_ms: f64,
    pub timed_ops: usize,
    pub timed_s: f64,
    pub tail_percentile: f64,
}

impl Outcome {
    pub fn correct(&self) -> bool {
        self.failed == 0
    }
}

struct Tally {
    name: &'static str,
    attempted: u64,
    failed: u64,
}

impl Tally {
    /// Counts one attempted op and, if `result` is an error, one failed op.
    fn attempt<T>(&mut self, what: &str, result: Result<T, String>) -> Option<T> {
        self.attempted += 1;
        result.map_err(|e| self.fail(what, &e)).ok()
    }

    fn fail(&mut self, what: &str, error: &str) {
        self.failed += 1;
        if self.failed <= SHOWN_FAILURES {
            eprintln!("[touchbench] {}: {what} failed: {error}", self.name);
        }
    }
}

/// One op and, when `check` is set, its untimed check: the op's latency, and
/// its reported memory when it succeeded (and passed).
fn timed_op(w: &mut dyn Workload, tally: &mut Tally, check: bool) -> (Duration, Option<usize>) {
    let start = Instant::now();
    let out = w.op();
    let latency = start.elapsed();
    let Some(out) = tally.attempt("op", out) else {
        return (latency, None);
    };
    if check {
        if let Err(e) = w.after_op(&out) {
            tally.fail("check", &e);
            return (latency, None);
        }
    }
    (latency, Some(out.memory_bytes))
}

pub fn run(kind: Kind, settings: &Settings) -> Outcome {
    let mut tally = Tally { name: kind.name(), attempted: 0, failed: 0 };
    let mut reference = Reference::new(kind.threads(), settings.scale);
    // Reference samples and ops are placed in time from here.
    let run_start = Instant::now();

    // Set-up: inputs, long-lived state and warm-up ops, repeated; the last
    // instance is measured, and only its ops are checked. Its oracle results
    // and index memory are prepared outside the set-up time. The reference
    // is sampled after each set-up.
    let mut setups = Vec::with_capacity(settings.setup_reps());
    let mut prepare_s = 0.0;
    let mut workload = None;
    for rep in 0..settings.setup_reps() {
        let kept = rep + 1 == settings.setup_reps();
        let start = Instant::now();
        let mut w = kind.setup(settings.seed, settings.scale);
        let mut setup = start.elapsed();
        if kept {
            let start = Instant::now();
            w.prepare();
            prepare_s = start.elapsed().as_secs_f64();
        }
        for _ in 0..WARMUP_OPS {
            // A failed warm-up op is counted; its time still belongs to set-up.
            setup += timed_op(w.as_mut(), &mut tally, kept).0;
        }
        setups.push(setup.as_secs_f64());
        reference.sample(run_start.elapsed());
        workload = Some(w);
    }
    let mut w = workload.expect("at least one set-up");
    let setup_midpoint = run_start.elapsed() / 2;

    // The timed phase: a closed loop of one client for `seconds`.
    let mut ops = Vec::new();
    let mut memory = Vec::new();
    let start = Instant::now();
    let mut timed_attempts = 0;
    let mut since_reference = Duration::ZERO;
    while start.elapsed().as_secs_f64() < settings.seconds || timed_attempts < settings.min_ops() {
        timed_attempts += 1;
        let began = run_start.elapsed();
        let (latency, bytes) = timed_op(w.as_mut(), &mut tally, true);
        if let Some(bytes) = bytes {
            ops.push((began + latency / 2, latency));
            memory.push(bytes as f64);
        }
        since_reference += latency;
        if since_reference >= REFERENCE_EVERY {
            reference.sample(run_start.elapsed());
            since_reference = Duration::ZERO;
        }
    }
    let timed_s = start.elapsed().as_secs_f64();
    let ms = |d: Duration| d.as_secs_f64() * 1e3;
    let wall_ms: Vec<f64> = ops.iter().map(|&(_, latency)| ms(latency)).collect();
    let op_ms_p50 = median(&wall_ms);
    let (tail_percentile, tail_ms) = tail(&wall_ms);

    // Times are stated at the reference speed (see `reference`): each op by
    // the samples taken around it, set-up by those taken during it.
    let scaled_ms: Vec<f64> =
        ops.iter().map(|&(at, latency)| ms(latency) * reference.scale_at(at)).collect();
    let objects = w.objects_per_op() as f64 * ops.len() as f64;
    let mut end_to_end = Values::new();
    end_to_end.insert("op_ms_p50", median(&scaled_ms));
    end_to_end.insert("kobj_per_s", objects / scaled_ms.iter().sum::<f64>().max(f64::MIN_POSITIVE));
    end_to_end.insert("index_mb", median(&memory) / 1e6);
    end_to_end.insert("setup_s", median(&setups) * reference.scale_at(setup_midpoint));

    let (layers, spans) = if settings.trace {
        let mut rec = Recorder::new(Instant::now());
        let mut traced = Vec::new();
        for _ in 0..settings.traced_ops() {
            if let Some(op) = tally.attempt("traced op", w.traced_op(&mut rec)) {
                traced.push(op);
            }
        }
        let (candidates, probe_boxes) = w.kernel_boxes();
        let probes = Probes {
            untraced_p50_ms: op_ms_p50,
            tail_ms,
            join_speedup: w.take_join_case().map_or(0.0, |case| join_speedup(&case)),
            overlap_ns_detected: overlap_ns_per_lane(simd::backend(), &candidates, &probe_boxes),
            overlap_ns_scalar: overlap_ns_per_lane(Backend::Scalar, &candidates, &probe_boxes),
        };
        let spans = rec.spans().to_vec();
        (Some(layer_values(&op_profiles(&spans), &traced, &probes)), spans)
    } else {
        (None, Vec::new())
    };

    Outcome {
        kind,
        attempted: tally.attempted,
        failed: tally.failed,
        end_to_end,
        layers,
        spans,
        prepare_s,
        wall_op_ms_p50: op_ms_p50,
        reference_ms: reference.median_ms(),
        timed_ops: ops.len(),
        timed_s,
        tail_percentile,
    }
}
