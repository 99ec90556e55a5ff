//! Execution tracing: per-node/per-worker spans with a zero-cost off switch.
//!
//! The engines accept a `&dyn TraceSink` everywhere they do attributable work.
//! The default sink, [`NoTrace`], keeps every hook behind a single
//! `is_enabled()` check that returns a compile-time `false`, so instrumented
//! code paths cost nothing measurable when tracing is off — and, crucially,
//! produce **bit-identical pairs and counters** whether tracing is on or off.
//! The recording sink, [`ExecTrace`], appends [`TraceEvent`]s under a mutex
//! and can render them three ways:
//!
//! * [`ExecTrace::summary`] — log2-histogram skew aggregates ([`TraceSummary`])
//!   attached to a [`RunReport`](crate::RunReport),
//! * [`ExecTrace::to_chrome_json`] — Chrome `chrome://tracing` / Perfetto
//!   `trace_events` JSON,
//! * [`ExecTrace::text_profile`] — a compact human-readable profile.

use crate::{Histogram, Phase};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::{Mutex, MutexGuard, PoisonError};
use std::time::Instant;

/// One traced occurrence. Spans carry `start_us`/`duration_us` microsecond
/// offsets relative to the trace origin; instants carry a single `at_us`.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum TraceEvent {
    /// A whole engine phase (build / assignment / join) on the coordinator.
    Phase {
        /// Which phase ran.
        phase: Phase,
        /// Start offset from the trace origin, µs.
        start_us: u64,
        /// Span length, µs.
        duration_us: u64,
    },
    /// One assignment work chunk processed by a worker.
    AssignChunk {
        /// Chunk index in the probe batch.
        chunk: usize,
        /// Worker that processed the chunk.
        worker: usize,
        /// Probe objects in the chunk.
        objects: usize,
        /// Start offset from the trace origin, µs.
        start_us: u64,
        /// Span length, µs.
        duration_us: u64,
    },
    /// One per-node local join (Algorithm 4).
    NodeJoin {
        /// Tree node id.
        node: usize,
        /// Worker that joined the node (0 for sequential engines).
        worker: usize,
        /// Objects of the tree dataset stored at the node.
        a_count: usize,
        /// A-objects the local join scanned: `a_count`, less the leaves the
        /// grid probe pruned because they cannot reach a cell holding a
        /// B-object.
        a_probed: usize,
        /// Probe objects assigned to the node.
        b_count: usize,
        /// Local strategy actually used: `"grid"`, `"plane-sweep"` or `"all-pairs"`.
        strategy: &'static str,
        /// Candidate object–object comparisons performed at the node.
        candidates: u64,
        /// Pairs emitted at the node (emit invocations; a sink hitting its
        /// limit mid-node still counts the final invocation).
        pairs: u64,
        /// Start offset from the trace origin, µs.
        start_us: u64,
        /// Span length, µs.
        duration_us: u64,
    },
    /// One streaming probe epoch (`push_batch`).
    Epoch {
        /// Zero-based epoch index within the trace.
        epoch: usize,
        /// Probe objects in the batch.
        batch_size: usize,
        /// Start offset from the trace origin, µs.
        start_us: u64,
        /// Span length, µs.
        duration_us: u64,
    },
    /// One serving-layer generation build (rebuild of the A-side tree folding
    /// the pending delta, ending at the atomic publish).
    Generation {
        /// Generation number published (monotonic per server).
        generation: u64,
        /// Live A-objects in the published generation.
        live: usize,
        /// Buffered mutations folded into this generation.
        delta: usize,
        /// Start offset from the trace origin, µs.
        start_us: u64,
        /// Span length, µs.
        duration_us: u64,
    },
    /// One sliding-window eviction: the oldest probe epoch leaves the window
    /// (its per-node assignments are retracted instead of a full `reset()`).
    Eviction {
        /// Zero-based index of the evicted epoch within the stream.
        epoch: usize,
        /// Probe objects retracted.
        objects: usize,
        /// Instant offset from the trace origin, µs.
        at_us: u64,
    },
}

/// Receiver for execution trace events.
///
/// Engines call [`is_enabled`](TraceSink::is_enabled) before assembling an
/// event, so a disabled sink costs one predictable branch per hook. The
/// contract every implementation must honour: **recording must not influence
/// the join** — pairs and counters are bit-identical with any sink.
pub trait TraceSink: Send + Sync {
    /// Whether events should be assembled and recorded at all.
    fn is_enabled(&self) -> bool {
        false
    }

    /// Records one event. No-op unless the sink is enabled.
    fn record(&self, _event: TraceEvent) {}

    /// Microseconds since the trace origin (0 for a disabled sink, so
    /// disabled hooks never read the clock).
    fn now_us(&self) -> u64 {
        0
    }

    /// Aggregated skew summary of everything recorded so far (`None` for a
    /// disabled sink).
    fn summary(&self) -> Option<TraceSummary> {
        None
    }
}

/// The zero-cost disabled sink: every hook short-circuits on
/// `is_enabled() == false`.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoTrace;

impl TraceSink for NoTrace {}

/// A recording [`TraceSink`]: timestamps against a fixed origin and appends
/// events to a mutex-guarded buffer (one short lock per event; workers touch
/// it only when tracing is on).
#[derive(Debug)]
pub struct ExecTrace {
    origin: Instant,
    events: Mutex<Vec<TraceEvent>>,
}

impl Default for ExecTrace {
    fn default() -> Self {
        Self::new()
    }
}

impl ExecTrace {
    /// Creates an empty trace whose origin is "now".
    pub fn new() -> Self {
        ExecTrace { origin: Instant::now(), events: Mutex::new(Vec::new()) }
    }

    /// Locks the event buffer, recovering from poisoning: a traced worker that
    /// panics mid-`record` poisons the mutex, but the buffer only ever holds
    /// complete `TraceEvent`s (each `push` is atomic with respect to the
    /// guard), so the data is still sound and the trace must stay usable.
    fn lock_events(&self) -> MutexGuard<'_, Vec<TraceEvent>> {
        self.events.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Snapshot of the recorded events, in arrival order.
    pub fn events(&self) -> Vec<TraceEvent> {
        self.lock_events().clone()
    }

    /// Number of events recorded so far.
    pub fn len(&self) -> usize {
        self.lock_events().len()
    }

    /// Whether nothing has been recorded yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Discards all recorded events and resets the origin, so one `ExecTrace`
    /// can be reused across runs without mixing their timelines.
    pub fn reset(&mut self) {
        self.origin = Instant::now();
        self.events.get_mut().unwrap_or_else(PoisonError::into_inner).clear();
    }

    /// Renders the trace in Chrome `trace_events` JSON (the format
    /// `chrome://tracing` and Perfetto load). Spans become `"X"` complete
    /// events with the worker id as `tid`; evictions become `"i"` instant
    /// events.
    pub fn to_chrome_json(&self) -> String {
        let events = self.lock_events();
        let mut out = String::with_capacity(64 + events.len() * 96);
        out.push_str("{\"traceEvents\":[");
        for (i, ev) in events.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            match ev {
                TraceEvent::Phase { phase, start_us, duration_us } => {
                    let _ = write!(
                        out,
                        "{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":0,\"ts\":{},\"dur\":{}}}",
                        phase.name(),
                        start_us,
                        duration_us
                    );
                }
                TraceEvent::AssignChunk { chunk, worker, objects, start_us, duration_us } => {
                    let _ = write!(
                        out,
                        "{{\"name\":\"assign-chunk\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{},\"dur\":{},\"args\":{{\"chunk\":{},\"objects\":{}}}}}",
                        worker, start_us, duration_us, chunk, objects
                    );
                }
                TraceEvent::NodeJoin {
                    node,
                    worker,
                    a_count,
                    a_probed,
                    b_count,
                    strategy,
                    candidates,
                    pairs,
                    start_us,
                    duration_us,
                } => {
                    let _ = write!(
                        out,
                        "{{\"name\":\"node-join\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{},\"dur\":{},\"args\":{{\"node\":{},\"a\":{},\"a_probed\":{},\"b\":{},\"strategy\":\"{}\",\"candidates\":{},\"pairs\":{}}}}}",
                        worker, start_us, duration_us, node, a_count, a_probed, b_count, strategy, candidates, pairs
                    );
                }
                TraceEvent::Epoch { epoch, batch_size, start_us, duration_us } => {
                    let _ = write!(
                        out,
                        "{{\"name\":\"epoch\",\"ph\":\"X\",\"pid\":1,\"tid\":0,\"ts\":{},\"dur\":{},\"args\":{{\"epoch\":{},\"batch\":{}}}}}",
                        start_us, duration_us, epoch, batch_size
                    );
                }
                TraceEvent::Generation { generation, live, delta, start_us, duration_us } => {
                    let _ = write!(
                        out,
                        "{{\"name\":\"generation\",\"ph\":\"X\",\"pid\":1,\"tid\":0,\"ts\":{},\"dur\":{},\"args\":{{\"generation\":{},\"live\":{},\"delta\":{}}}}}",
                        start_us, duration_us, generation, live, delta
                    );
                }
                TraceEvent::Eviction { epoch, objects, at_us } => {
                    let _ = write!(
                        out,
                        "{{\"name\":\"eviction\",\"ph\":\"i\",\"s\":\"t\",\"pid\":1,\"tid\":0,\"ts\":{},\"args\":{{\"epoch\":{},\"objects\":{}}}}}",
                        at_us, epoch, objects
                    );
                }
            }
        }
        out.push_str("],\"displayTimeUnit\":\"ms\"}");
        out
    }

    /// Renders a compact human-readable profile: phase times, skew
    /// percentiles and a per-worker utilization table.
    pub fn text_profile(&self) -> String {
        let s = self.summary_inner();
        let events = self.lock_events();
        let mut out = String::new();
        let _ = writeln!(out, "== execution trace profile ==");
        let _ = writeln!(
            out,
            "events: {} total, {} node joins, {} workers, {} epochs",
            events.len(),
            s.node_time_us.count,
            s.workers.len(),
            s.epochs
        );
        let (mut a_count, mut a_probed) = (0usize, 0usize);
        for ev in events.iter() {
            match ev {
                TraceEvent::Phase { phase, duration_us, .. } => {
                    let _ = writeln!(out, "phase {:<12} {:>12} µs", phase.name(), duration_us);
                }
                TraceEvent::NodeJoin { a_count: a, a_probed: probed, .. } => {
                    a_count += a;
                    a_probed += probed;
                }
                _ => {}
            }
        }
        drop(events);
        let _ = writeln!(
            out,
            "a objects        {} in joined subtrees, {} probed ({:.1}%)",
            a_count,
            a_probed,
            100.0 * a_probed as f64 / a_count.max(1) as f64
        );
        for (label, h) in [
            ("node time (µs)", &s.node_time_us),
            ("candidates/node", &s.candidates),
            ("pairs/node", &s.pairs_per_node),
        ] {
            let _ = writeln!(
                out,
                "{:<16} p50={} p90={} p99={} max={} mean={:.1}",
                label,
                h.percentile(0.50),
                h.percentile(0.90),
                h.percentile(0.99),
                h.max.min(h.percentile(1.0)),
                h.mean()
            );
        }
        let _ = writeln!(out, "{:>6} {:>8} {:>12}", "worker", "nodes", "busy (µs)");
        for w in &s.workers {
            let _ = writeln!(out, "{:>6} {:>8} {:>12}", w.worker, w.nodes, w.busy_us);
        }
        out
    }

    fn summary_inner(&self) -> TraceSummary {
        let events = self.lock_events();
        let mut node_time_us = Histogram::new();
        let mut candidates = Histogram::new();
        let mut pairs_per_node = Histogram::new();
        let mut workers: BTreeMap<usize, WorkerStats> = BTreeMap::new();
        let mut epochs = 0usize;
        let mut generations = 0usize;
        let mut evictions = 0u64;
        for ev in events.iter() {
            match ev {
                TraceEvent::NodeJoin { worker, candidates: c, pairs, duration_us, .. } => {
                    node_time_us.record(*duration_us);
                    candidates.record(*c);
                    pairs_per_node.record(*pairs);
                    let w = workers.entry(*worker).or_insert(WorkerStats {
                        worker: *worker,
                        nodes: 0,
                        busy_us: 0,
                    });
                    w.nodes += 1;
                    w.busy_us += duration_us;
                }
                TraceEvent::AssignChunk { worker, duration_us, .. } => {
                    let w = workers.entry(*worker).or_insert(WorkerStats {
                        worker: *worker,
                        nodes: 0,
                        busy_us: 0,
                    });
                    w.busy_us += duration_us;
                }
                TraceEvent::Epoch { .. } => epochs += 1,
                TraceEvent::Generation { .. } => generations += 1,
                TraceEvent::Eviction { .. } => evictions += 1,
                TraceEvent::Phase { .. } => {}
            }
        }
        TraceSummary {
            node_time_us,
            candidates,
            pairs_per_node,
            workers: workers.into_values().collect(),
            epochs,
            generations,
            evictions,
        }
    }
}

impl TraceSink for ExecTrace {
    fn is_enabled(&self) -> bool {
        true
    }

    fn record(&self, event: TraceEvent) {
        self.lock_events().push(event);
    }

    fn now_us(&self) -> u64 {
        self.origin.elapsed().as_micros() as u64
    }

    fn summary(&self) -> Option<TraceSummary> {
        Some(self.summary_inner())
    }
}

/// Per-worker utilization extracted from a trace.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct WorkerStats {
    /// Worker index (0 for sequential engines and the coordinator).
    pub worker: usize,
    /// Node joins this worker executed.
    pub nodes: u64,
    /// Microseconds spent in node joins and assignment chunks.
    pub busy_us: u64,
}

/// Aggregated skew summary of one traced run, attachable to a
/// [`RunReport`](crate::RunReport). Histograms merge exactly (see
/// [`Histogram::merge`]), so worker-sharded or epoch-split summaries can be
/// combined without drift.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct TraceSummary {
    /// Per-node local-join wall time, µs.
    pub node_time_us: Histogram,
    /// Per-node candidate comparisons.
    pub candidates: Histogram,
    /// Per-node emitted pairs.
    pub pairs_per_node: Histogram,
    /// Per-worker utilization, sorted by worker index.
    pub workers: Vec<WorkerStats>,
    /// Streaming epochs observed (0 for one-shot runs).
    pub epochs: usize,
    /// Serving generations published (0 outside the serving layer).
    pub generations: usize,
    /// Sliding-window epochs evicted (0 outside windowed runs).
    pub evictions: u64,
}

impl TraceSummary {
    /// Hand-rolled JSON rendering (the vendored serde is a no-op stub), used
    /// by `RunReport::to_json` and the bench exporters.
    pub fn to_json(&self) -> String {
        fn hist_json(h: &Histogram) -> String {
            format!(
                "{{\"count\":{},\"mean\":{:.3},\"p50\":{},\"p90\":{},\"p99\":{},\"max\":{}}}",
                h.count,
                h.mean(),
                h.percentile(0.50),
                h.percentile(0.90),
                h.percentile(0.99),
                if h.count == 0 { 0 } else { h.max }
            )
        }
        let mut workers = String::from("[");
        for (i, w) in self.workers.iter().enumerate() {
            if i > 0 {
                workers.push(',');
            }
            let _ = write!(
                workers,
                "{{\"worker\":{},\"nodes\":{},\"busy_us\":{}}}",
                w.worker, w.nodes, w.busy_us
            );
        }
        workers.push(']');
        format!(
            "{{\"node_time_us\":{},\"candidates\":{},\"pairs_per_node\":{},\"workers\":{},\"epochs\":{},\"generations\":{},\"evictions\":{}}}",
            hist_json(&self.node_time_us),
            hist_json(&self.candidates),
            hist_json(&self.pairs_per_node),
            workers,
            self.epochs,
            self.generations,
            self.evictions
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_trace() -> ExecTrace {
        let t = ExecTrace::new();
        t.record(TraceEvent::Phase { phase: Phase::Build, start_us: 0, duration_us: 100 });
        t.record(TraceEvent::AssignChunk {
            chunk: 0,
            worker: 1,
            objects: 64,
            start_us: 100,
            duration_us: 10,
        });
        t.record(TraceEvent::NodeJoin {
            node: 7,
            worker: 0,
            a_count: 12,
            a_probed: 5,
            b_count: 30,
            strategy: "grid",
            candidates: 90,
            pairs: 4,
            start_us: 120,
            duration_us: 50,
        });
        t.record(TraceEvent::NodeJoin {
            node: 9,
            worker: 1,
            a_count: 3,
            a_probed: 3,
            b_count: 5,
            strategy: "all-pairs",
            candidates: 15,
            pairs: 1,
            start_us: 130,
            duration_us: 8,
        });
        t.record(TraceEvent::Epoch { epoch: 0, batch_size: 35, start_us: 100, duration_us: 90 });
        t.record(TraceEvent::Generation {
            generation: 2,
            live: 1000,
            delta: 64,
            start_us: 200,
            duration_us: 40,
        });
        t.record(TraceEvent::Eviction { epoch: 0, objects: 35, at_us: 250 });
        t
    }

    #[test]
    fn no_trace_is_disabled_and_summary_free() {
        let sink = NoTrace;
        assert!(!sink.is_enabled());
        assert_eq!(sink.now_us(), 0);
        assert!(sink.summary().is_none());
    }

    #[test]
    fn summary_aggregates_nodes_workers_epochs() {
        let t = sample_trace();
        let s = TraceSink::summary(&t).unwrap();
        assert_eq!(s.node_time_us.count, 2);
        assert_eq!(s.candidates.sum, 105);
        assert_eq!(s.pairs_per_node.sum, 5);
        assert_eq!(s.epochs, 1);
        assert_eq!(s.generations, 1);
        assert_eq!(s.evictions, 1);
        assert_eq!(s.workers.len(), 2);
        assert_eq!(s.workers[0].worker, 0);
        assert_eq!(s.workers[0].nodes, 1);
        assert_eq!(s.workers[0].busy_us, 50);
        assert_eq!(s.workers[1].busy_us, 18, "assign chunk counts as busy");
    }

    #[test]
    fn chrome_json_is_balanced_and_names_all_event_kinds() {
        let json = sample_trace().to_chrome_json();
        assert!(json.starts_with("{\"traceEvents\":["));
        assert!(json.ends_with('}'));
        for needle in [
            "\"build\"",
            "\"assign-chunk\"",
            "\"node-join\"",
            "\"epoch\"",
            "\"generation\"",
            "\"eviction\"",
        ] {
            assert!(json.contains(needle), "missing {needle} in {json}");
        }
        assert!(json.contains("\"a\":12,\"a_probed\":5,"), "a_probed sits next to a: {json}");
        // Crude structural check: braces and brackets balance.
        let opens = json.matches('{').count();
        let closes = json.matches('}').count();
        assert_eq!(opens, closes);
        assert_eq!(json.matches('[').count(), json.matches(']').count());
    }

    #[test]
    fn text_profile_mentions_percentiles_and_workers() {
        let profile = sample_trace().text_profile();
        assert!(profile.contains("node time (µs)"));
        assert!(profile.contains("p99="));
        assert!(profile.contains("worker"));
        assert!(profile.contains("phase build"));
        assert!(profile.contains("15 in joined subtrees, 8 probed (53.3%)"), "{profile}");
    }

    #[test]
    fn reset_clears_events() {
        let mut t = sample_trace();
        assert!(!t.is_empty());
        t.reset();
        assert!(t.is_empty());
        assert_eq!(t.len(), 0);
    }

    #[test]
    fn summary_json_is_object_shaped() {
        let s = TraceSink::summary(&sample_trace()).unwrap();
        let json = s.to_json();
        assert!(json.starts_with('{') && json.ends_with('}'));
        for key in [
            "node_time_us",
            "candidates",
            "pairs_per_node",
            "workers",
            "epochs",
            "generations",
            "evictions",
        ] {
            assert!(json.contains(&format!("\"{key}\"")), "missing {key}");
        }
    }

    #[test]
    fn trace_survives_a_poisoning_worker_panic() {
        let t = std::sync::Arc::new(sample_trace());
        let before = t.len();
        // A traced worker that panics while holding the event lock poisons the
        // mutex; the trace must keep recording and exporting afterwards.
        let t2 = std::sync::Arc::clone(&t);
        let joined = std::thread::spawn(move || {
            let _guard = t2.events.lock().unwrap();
            panic!("worker dies mid-record");
        })
        .join();
        assert!(joined.is_err(), "worker must have panicked");
        assert!(t.events.is_poisoned(), "panic under the lock poisons the mutex");

        t.record(TraceEvent::Eviction { epoch: 3, objects: 1, at_us: 999 });
        assert_eq!(t.len(), before + 1, "record still works after poisoning");
        assert!(t.to_chrome_json().contains("\"epoch\":3"));
        assert!(TraceSink::summary(&*t).is_some());
        assert!(!t.text_profile().is_empty());
        let mut owned = std::sync::Arc::try_unwrap(t).expect("sole owner");
        owned.reset();
        assert!(owned.is_empty(), "reset recovers a poisoned buffer too");
    }
}
