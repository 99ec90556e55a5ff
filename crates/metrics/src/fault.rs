//! Deterministic fault injection for the fault-tolerance stress suites.
//!
//! [`FaultPlan`] is a [`TraceSink`] that, instead of recording events, *reacts*
//! to them: a trigger armed for the n-th occurrence of a seam (phase boundary,
//! assignment chunk, node join, …) on a given worker fires a panic or a delay
//! at exactly that point of the execution. Because the engines already report
//! every attributable unit of work through their trace hooks, injection needs
//! no extra plumbing — passing a `FaultPlan` where a trace sink is accepted
//! exercises the same code path production runs use, at the same seams.
//!
//! Panic messages are prefixed `fault-injection:` so stress harnesses can
//! filter the expected noise from a real failure. Trigger matching is
//! deterministic: seams are counted per `(seam, worker)` pair, and a trigger
//! fires on an exact invocation count — re-running the same plan against the
//! same workload fires at the same place every time (per worker; which OS
//! thread reaches the count first is scheduling-dependent, the *logical*
//! worker index is not).

use crate::{TraceEvent, TraceSink};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};
use std::time::Duration;

/// A seam the engines report through their trace hooks — the injection points
/// a [`FaultPlan`] trigger can arm.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Seam {
    /// The build-phase boundary (coordinator).
    Build,
    /// The assignment-phase boundary (coordinator).
    Assignment,
    /// The join-phase boundary (coordinator).
    Join,
    /// One assignment work chunk (per worker).
    AssignChunk,
    /// One per-node local join (per worker).
    NodeJoin,
    /// One successful work-steal (per thief).
    Steal,
    /// One streaming probe epoch.
    Epoch,
    /// One serving-layer generation publish.
    Generation,
    /// One sliding-window eviction.
    Eviction,
}

impl Seam {
    /// Short lowercase label (used in panic messages).
    pub fn name(&self) -> &'static str {
        match self {
            Seam::Build => "build",
            Seam::Assignment => "assignment",
            Seam::Join => "join",
            Seam::AssignChunk => "assign-chunk",
            Seam::NodeJoin => "node-join",
            Seam::Steal => "steal",
            Seam::Epoch => "epoch",
            Seam::Generation => "generation",
            Seam::Eviction => "eviction",
        }
    }
}

/// What a fired trigger does.
#[derive(Debug, Clone)]
pub enum FaultAction {
    /// Panic with `fault-injection: <detail>` on the thread that hit the seam.
    Panic(String),
    /// Sleep for the given duration (models a stalled worker / slow node).
    Delay(Duration),
}

#[derive(Debug)]
struct Trigger {
    seam: Seam,
    /// Restrict to one logical worker index, or fire on any worker.
    worker: Option<usize>,
    /// 1-based invocation count of the `(seam, worker)` pair to fire on.
    nth: u64,
    action: FaultAction,
    spent: bool,
}

/// A deterministic, seeded fault-injection plan.
///
/// Build one with [`FaultPlan::seeded`], arm triggers with
/// [`panic_on`](FaultPlan::panic_on) / [`delay_on`](FaultPlan::delay_on), and
/// pass it anywhere a `&dyn TraceSink` is accepted (e.g. `JoinQuery::trace`).
/// Each trigger fires exactly once; [`fired`](FaultPlan::fired) reports how
/// many have fired so far.
#[derive(Debug)]
pub struct FaultPlan {
    triggers: Mutex<Vec<Trigger>>,
    counts: Mutex<Vec<((Seam, usize), u64)>>,
    fired_count: AtomicU64,
    rng: Mutex<u64>,
}

impl FaultPlan {
    /// Creates an empty plan whose [`pick`](FaultPlan::pick) stream is
    /// determined by `seed`.
    pub fn seeded(seed: u64) -> Self {
        FaultPlan {
            triggers: Mutex::new(Vec::new()),
            counts: Mutex::new(Vec::new()),
            fired_count: AtomicU64::new(0),
            rng: Mutex::new(seed),
        }
    }

    /// Arms a panic on the `nth` (1-based) occurrence of `seam`, optionally
    /// restricted to one logical `worker` index.
    pub fn panic_on(
        self,
        seam: Seam,
        worker: Option<usize>,
        nth: u64,
        detail: impl Into<String>,
    ) -> Self {
        self.arm(Trigger {
            seam,
            worker,
            nth,
            action: FaultAction::Panic(detail.into()),
            spent: false,
        })
    }

    /// Arms a delay on the `nth` (1-based) occurrence of `seam`, optionally
    /// restricted to one logical `worker` index.
    pub fn delay_on(self, seam: Seam, worker: Option<usize>, nth: u64, delay: Duration) -> Self {
        self.arm(Trigger { seam, worker, nth, action: FaultAction::Delay(delay), spent: false })
    }

    fn arm(self, trigger: Trigger) -> Self {
        lock_recover(&self.triggers).push(trigger);
        self
    }

    /// Number of triggers that have fired so far.
    pub fn fired(&self) -> u64 {
        self.fired_count.load(Ordering::SeqCst)
    }

    /// Deterministic pseudo-random value in `[0, bound)` from the plan's seed
    /// (SplitMix64). Lets a stress harness derive cancel points / trigger
    /// counts from the same seed that names the run.
    pub fn pick(&self, bound: u64) -> u64 {
        let mut state = lock_recover(&self.rng);
        *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^= z >> 31;
        if bound == 0 {
            0
        } else {
            z % bound
        }
    }

    /// Resets invocation counts and re-arms every trigger (the seed stream is
    /// *not* rewound), so one plan can drive repeated runs.
    pub fn rearm(&self) {
        lock_recover(&self.counts).clear();
        for t in lock_recover(&self.triggers).iter_mut() {
            t.spent = false;
        }
        self.fired_count.store(0, Ordering::SeqCst);
    }

    /// Counts the event against its `(seam, worker)` key and returns the
    /// action of a trigger that just became due, marking it spent.
    fn due_action(&self, seam: Seam, worker: usize) -> Option<FaultAction> {
        let count = {
            let mut counts = lock_recover(&self.counts);
            match counts.iter_mut().find(|(k, _)| *k == (seam, worker)) {
                Some((_, c)) => {
                    *c += 1;
                    *c
                }
                None => {
                    counts.push(((seam, worker), 1));
                    1
                }
            }
        };
        let mut triggers = lock_recover(&self.triggers);
        let t = triggers.iter_mut().find(|t| {
            !t.spent && t.seam == seam && t.nth == count && t.worker.map_or(true, |w| w == worker)
        })?;
        t.spent = true;
        self.fired_count.fetch_add(1, Ordering::SeqCst);
        Some(t.action.clone())
    }
}

fn lock_recover<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    // A trigger panicking on purpose must not wedge the plan for the other
    // workers: recover the guard the way ExecTrace does.
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

impl TraceSink for FaultPlan {
    fn is_enabled(&self) -> bool {
        true
    }

    fn record(&self, event: TraceEvent) {
        let (seam, worker) = match &event {
            TraceEvent::Phase { phase, .. } => (
                match phase {
                    crate::Phase::Build => Seam::Build,
                    crate::Phase::Assignment => Seam::Assignment,
                    crate::Phase::Join => Seam::Join,
                },
                0,
            ),
            TraceEvent::AssignChunk { worker, .. } => (Seam::AssignChunk, *worker),
            TraceEvent::NodeJoin { worker, .. } => (Seam::NodeJoin, *worker),
            TraceEvent::Steal { worker, .. } => (Seam::Steal, *worker),
            TraceEvent::Epoch { .. } => (Seam::Epoch, 0),
            TraceEvent::Generation { .. } => (Seam::Generation, 0),
            TraceEvent::Eviction { .. } => (Seam::Eviction, 0),
        };
        match self.due_action(seam, worker) {
            Some(FaultAction::Panic(detail)) => {
                panic!("fault-injection: {} (seam {}, worker {worker})", detail, seam.name());
            }
            Some(FaultAction::Delay(d)) => std::thread::sleep(d),
            None => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Phase;

    fn node_join(worker: usize) -> TraceEvent {
        TraceEvent::NodeJoin {
            node: 1,
            worker,
            a_count: 1,
            a_probed: 1,
            b_count: 1,
            strategy: "grid",
            candidates: 1,
            pairs: 0,
            start_us: 0,
            duration_us: 1,
        }
    }

    #[test]
    fn trigger_fires_on_exact_invocation_count() {
        let plan = FaultPlan::seeded(7).panic_on(Seam::NodeJoin, None, 3, "boom");
        plan.record(node_join(0));
        plan.record(node_join(0));
        assert_eq!(plan.fired(), 0);
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            plan.record(node_join(0));
        }))
        .unwrap_err();
        let msg = err.downcast_ref::<String>().expect("string payload");
        assert!(msg.starts_with("fault-injection: boom"), "{msg}");
        assert_eq!(plan.fired(), 1);
        // Spent: the 3rd invocation of another stream doesn't re-fire.
        plan.record(node_join(0));
        assert_eq!(plan.fired(), 1);
    }

    #[test]
    fn counts_are_per_seam_and_worker() {
        let plan = FaultPlan::seeded(7).panic_on(Seam::NodeJoin, Some(1), 2, "w1");
        // Worker 0 racks up invocations without tripping worker 1's trigger.
        plan.record(node_join(0));
        plan.record(node_join(0));
        plan.record(node_join(0));
        plan.record(node_join(1));
        assert_eq!(plan.fired(), 0);
        assert!(std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            plan.record(node_join(1));
        }))
        .is_err());
        assert_eq!(plan.fired(), 1);
    }

    #[test]
    fn phase_events_map_to_phase_seams() {
        let plan = FaultPlan::seeded(1).panic_on(Seam::Assignment, None, 1, "phase");
        plan.record(TraceEvent::Phase { phase: Phase::Build, start_us: 0, duration_us: 1 });
        assert_eq!(plan.fired(), 0);
        assert!(std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            plan.record(TraceEvent::Phase {
                phase: Phase::Assignment,
                start_us: 0,
                duration_us: 1,
            });
        }))
        .is_err());
    }

    #[test]
    fn delay_fires_without_panicking() {
        let plan = FaultPlan::seeded(1).delay_on(Seam::Epoch, None, 1, Duration::from_millis(1));
        plan.record(TraceEvent::Epoch { epoch: 0, batch_size: 1, start_us: 0, duration_us: 1 });
        assert_eq!(plan.fired(), 1);
    }

    #[test]
    fn rearm_resets_counts_and_triggers() {
        let plan = FaultPlan::seeded(1).panic_on(Seam::NodeJoin, None, 1, "again");
        assert!(std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            plan.record(node_join(0));
        }))
        .is_err());
        assert_eq!(plan.fired(), 1);
        plan.rearm();
        assert_eq!(plan.fired(), 0);
        assert!(std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            plan.record(node_join(0));
        }))
        .is_err());
    }

    #[test]
    fn pick_is_deterministic_per_seed() {
        let a = FaultPlan::seeded(42);
        let b = FaultPlan::seeded(42);
        let xs: Vec<u64> = (0..8).map(|_| a.pick(100)).collect();
        let ys: Vec<u64> = (0..8).map(|_| b.pick(100)).collect();
        assert_eq!(xs, ys);
        assert!(xs.iter().all(|&x| x < 100));
        assert_eq!(a.pick(0), 0, "zero bound is safe");
    }

    #[test]
    fn plan_survives_its_own_panic() {
        // The panic a trigger throws unwinds through `record` while no lock is
        // held, but even a poisoned lock must not wedge the plan.
        let plan = FaultPlan::seeded(1).panic_on(Seam::NodeJoin, None, 1, "p");
        let _ =
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| plan.record(node_join(0))));
        plan.record(node_join(0)); // still counts without panicking
        assert_eq!(plan.fired(), 1);
    }
}
