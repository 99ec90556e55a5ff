//! Span recording for the traced pass: spans are kept in memory while the ops
//! run, attributed to self time afterwards, and exported as Chrome
//! `trace_events` JSON at the end of the benchmark.

use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// One recorded span: a call into a layer, timed from the benchmark's side.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    /// The traced op the span belongs to (spans of one op share it).
    pub op: usize,
    /// Index of the enclosing span, `None` for an op's root span.
    pub parent: Option<usize>,
    pub start: Duration,
    pub end: Duration,
}

impl Span {
    pub fn duration(&self) -> Duration {
        self.end.saturating_sub(self.start)
    }
}

/// The name of every op's root span.
pub const OP: &str = "op";

/// An in-memory span recorder. Spans nest by call order: a span opened while
/// another is open becomes its child.
#[derive(Debug)]
pub struct Recorder {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    ops: usize,
}

impl Recorder {
    pub fn new(origin: Instant) -> Self {
        Recorder { origin, spans: Vec::new(), open: Vec::new(), ops: 0 }
    }

    /// Opens the root span of a new op; close it with [`Recorder::end`].
    pub fn begin_op(&mut self) -> usize {
        assert!(self.open.is_empty(), "an op started inside another op");
        self.ops += 1;
        self.begin(OP)
    }

    /// Opens a span under the innermost open one and returns its index.
    pub fn begin(&mut self, name: &'static str) -> usize {
        let now = self.origin.elapsed();
        self.spans.push(Span {
            name,
            op: self.ops,
            parent: self.open.last().copied(),
            start: now,
            end: now,
        });
        self.open.push(self.spans.len() - 1);
        self.spans.len() - 1
    }

    /// Closes span `id`, which must be the innermost open span.
    pub fn end(&mut self, id: usize) {
        assert_eq!(self.open.pop(), Some(id), "spans must close innermost first");
        self.spans[id].end = self.origin.elapsed();
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let id = self.begin(name);
        let out = f();
        self.end(id);
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Per-op profiles of `spans`: for every op root span, its duration and the
/// self time of each span inside it (duration minus the time its children
/// cover). The root's own self time is the op's unattributed time.
pub fn op_profiles(spans: &[Span]) -> Vec<OpProfile> {
    let mut child_time = vec![Duration::ZERO; spans.len()];
    for span in spans {
        if let Some(parent) = span.parent {
            child_time[parent] += span.duration();
        }
    }
    let mut profiles: Vec<OpProfile> = Vec::new();
    for (i, span) in spans.iter().enumerate() {
        let self_time = span.duration().saturating_sub(child_time[i]);
        if span.parent.is_none() {
            profiles.push(OpProfile {
                total: span.duration(),
                unattributed: self_time,
                self_times: Vec::new(),
            });
        } else if let Some(profile) = profiles.last_mut() {
            profile.self_times.push((span.name, self_time));
        }
    }
    profiles
}

/// One op's time, split by span.
#[derive(Debug, Clone)]
pub struct OpProfile {
    pub total: Duration,
    pub unattributed: Duration,
    pub self_times: Vec<(&'static str, Duration)>,
}

impl OpProfile {
    /// Summed self time of the spans `pick` selects.
    pub fn self_time(&self, pick: impl Fn(&str) -> bool) -> Duration {
        self.self_times.iter().filter(|(name, _)| pick(name)).map(|(_, t)| *t).sum()
    }
}

/// Appends `spans` as Chrome `trace_events` complete events on thread `tid`,
/// labelled with `workload` (one thread per workload keeps them apart in the
/// viewer; nesting is shown by time containment).
pub fn chrome_events(spans: &[Span], workload: &str, tid: usize, out: &mut Vec<String>) {
    for (i, span) in spans.iter().enumerate() {
        let mut event = String::new();
        let _ = write!(
            event,
            "{{\"name\":\"{}\",\"cat\":\"touchbench\",\"ph\":\"X\",\"pid\":1,\"tid\":{tid},\
             \"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"workload\":\"{workload}\",\"op\":{},\
             \"span\":{i},\"parent\":{}}}}}",
            span.name,
            span.start.as_secs_f64() * 1e6,
            span.duration().as_secs_f64() * 1e6,
            span.op,
            span.parent.map_or("null".to_string(), |p| p.to_string()),
        );
        out.push(event);
    }
}

/// A complete Chrome trace file from events built by [`chrome_events`].
pub fn chrome_trace(events: &[String]) -> String {
    format!("{{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n{}\n]}}\n", events.join(",\n"))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: Option<usize>, start_us: u64, end_us: u64) -> Span {
        Span {
            name,
            op: 1,
            parent,
            start: Duration::from_micros(start_us),
            end: Duration::from_micros(end_us),
        }
    }

    #[test]
    fn self_time_subtracts_the_children() {
        let spans = vec![
            span(OP, None, 0, 100),
            span("core.assign", Some(0), 10, 40),
            span("core.join", Some(0), 40, 90),
            span("parallel.join", Some(2), 50, 80),
            span(OP, None, 200, 210),
        ];
        let profiles = op_profiles(&spans);
        assert_eq!(profiles.len(), 2);
        let first = &profiles[0];
        assert_eq!(first.total, Duration::from_micros(100));
        assert_eq!(first.unattributed, Duration::from_micros(20));
        assert_eq!(first.self_time(|n| n == "core.join"), Duration::from_micros(20));
        assert_eq!(first.self_time(|n| n.ends_with(".join")), Duration::from_micros(50));
        assert_eq!(profiles[1].unattributed, Duration::from_micros(10));
    }

    #[test]
    fn recorder_nests_by_call_order_and_exports_every_span() {
        let mut rec = Recorder::new(Instant::now());
        let op = rec.begin_op();
        let x = rec.span("core.assign", || 3);
        rec.end(op);
        assert_eq!(x, 3);
        assert_eq!(rec.spans().len(), 2);
        assert_eq!(rec.spans()[1].parent, Some(0));
        let mut events = Vec::new();
        chrome_events(rec.spans(), "w", 1, &mut events);
        let json = chrome_trace(&events);
        assert!(json.contains("\"name\":\"core.assign\""));
        assert!(crate::json::parse(&json).is_ok(), "the export is valid JSON");
    }
}
