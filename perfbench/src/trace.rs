//! Per-stage breakdown from the flight recorder's existing spans.
//!
//! The recorder is a 4096-event ring that wraps under load, so a
//! drainer thread copies it every millisecond. A drain returns every
//! event still in the ring, old and new alike; end events are
//! de-duplicated by span id, and an id is forgotten once a drain no
//! longer returns it — an overwritten slot never comes back, so that is
//! exactly when it can no longer repeat.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;

use virt_metrics::recorder::{EventPhase, FlightRecorder};
use virt_metrics::span::{self, Stage};

use crate::stats::Latencies;

/// The request stages the breakdown reports, in request order.
pub const STAGES: [Stage; 8] = [
    Stage::ClientSend,
    Stage::Socket,
    Stage::QueueWait,
    Stage::Dispatch,
    Stage::LockAcquire,
    Stage::DriverWork,
    Stage::StateStore,
    Stage::ReplyWrite,
];

/// A trace whose root has not been seen for this long (trace clock) is
/// finalised; its late spans, if any, are lost to coverage.
const SETTLE_NS: u64 = 50_000_000;

#[derive(Debug, Clone, Copy)]
struct Span {
    span_id: u64,
    parent_id: u64,
    stage: Stage,
    start: u64,
    end: u64,
}

/// Self time per stage over every fully recovered call.
pub struct Breakdown {
    /// Per stage: per-call self time (only calls where it appears).
    pub per_call: Vec<Latencies>,
    /// Per stage: total self time in ns.
    pub total_ns: Vec<u64>,
    /// Calls whose whole span tree was recovered.
    pub complete: u64,
    /// Root spans seen whose tree was missing a span.
    pub incomplete: u64,
}

impl Breakdown {
    /// A stage's share of all attributed time.
    pub fn share(&self, i: usize) -> f64 {
        let all: u64 = self.total_ns.iter().sum();
        if all == 0 {
            0.0
        } else {
            self.total_ns[i] as f64 / all as f64
        }
    }
}

/// Accumulates drained events into per-trace span sets and folds each
/// settled trace into the breakdown.
pub struct Collector {
    seen: HashMap<u64, u64>,
    generation: u64,
    traces: HashMap<u64, Vec<Span>>,
    /// trace id → root end time, for settled-trace detection.
    roots: HashMap<u64, u64>,
    breakdown: Breakdown,
}

impl Default for Collector {
    fn default() -> Self {
        Collector {
            seen: HashMap::new(),
            generation: 0,
            traces: HashMap::new(),
            roots: HashMap::new(),
            breakdown: Breakdown {
                per_call: (0..STAGES.len()).map(|_| Latencies::default()).collect(),
                total_ns: vec![0; STAGES.len()],
                complete: 0,
                incomplete: 0,
            },
        }
    }
}

impl Collector {
    /// Copies the ring once and files the end events not seen before.
    pub fn drain(&mut self) {
        self.generation += 1;
        let generation = self.generation;
        for event in FlightRecorder::global().drain() {
            if event.phase != EventPhase::End {
                continue;
            }
            if self.seen.insert(event.span_id, generation).is_some() {
                continue;
            }
            let span = Span {
                span_id: event.span_id,
                parent_id: event.parent_id,
                stage: event.stage,
                start: event.t_ns,
                end: event.t_ns + event.dur_ns,
            };
            if span.parent_id == 0 && span.stage == Stage::ClientSend {
                self.roots.insert(event.trace_id, span.end);
            }
            self.traces.entry(event.trace_id).or_default().push(span);
        }
        self.seen.retain(|_, g| *g == generation);
        self.settle(span::now_ns().saturating_sub(SETTLE_NS));
    }

    /// Folds every trace whose root ended before `cutoff` into the
    /// breakdown; drops root-less traces older than that.
    fn settle(&mut self, cutoff: u64) {
        let ready: Vec<u64> = self
            .roots
            .iter()
            .filter(|(_, end)| **end < cutoff)
            .map(|(id, _)| *id)
            .collect();
        for id in ready {
            self.roots.remove(&id);
            if let Some(spans) = self.traces.remove(&id) {
                self.fold(&spans);
            }
        }
        // Daemon-side halves whose client root was lost never settle.
        self.traces
            .retain(|_, spans| spans.iter().any(|s| s.end >= cutoff));
    }

    /// Attributes each instant of the root span to the deepest span
    /// covering it: a layer's self time, with children's time removed.
    fn fold(&mut self, spans: &[Span]) {
        let Some(root) = spans.iter().find(|s| s.parent_id == 0) else {
            return;
        };
        let ids: HashMap<u64, &Span> = spans.iter().map(|s| (s.span_id, s)).collect();
        let orphan = spans
            .iter()
            .any(|s| s.parent_id != 0 && !ids.contains_key(&s.parent_id));
        let has = |stage: Stage| spans.iter().any(|s| s.stage == stage);
        if orphan || !(has(Stage::Socket) && has(Stage::Dispatch) && has(Stage::ReplyWrite)) {
            self.breakdown.incomplete += 1;
            return;
        }
        let depth = |s: &Span| {
            let mut d = 0;
            let mut parent = s.parent_id;
            while let Some(p) = ids.get(&parent) {
                d += 1;
                parent = p.parent_id;
            }
            d
        };
        let depths: Vec<usize> = spans.iter().map(depth).collect();
        let mut cuts: Vec<u64> = spans
            .iter()
            .flat_map(|s| [s.start, s.end])
            .map(|t| t.clamp(root.start, root.end))
            .collect();
        cuts.sort_unstable();
        cuts.dedup();
        let mut per_stage = [0u64; STAGES.len()];
        for pair in cuts.windows(2) {
            let (a, b) = (pair[0], pair[1]);
            let owner = spans
                .iter()
                .zip(&depths)
                .filter(|(s, _)| s.start <= a && s.end >= b)
                .max_by_key(|(s, d)| (**d, s.start))
                .map(|(s, _)| s.stage);
            if let Some(i) = owner.and_then(|st| STAGES.iter().position(|x| *x == st)) {
                per_stage[i] += b - a;
            }
        }
        for (i, ns) in per_stage.iter().enumerate() {
            if has(STAGES[i]) {
                self.breakdown.per_call[i].push(*ns);
            }
            self.breakdown.total_ns[i] += ns;
        }
        self.breakdown.complete += 1;
    }

    /// Folds everything still pending and returns the breakdown.
    pub fn finish(mut self) -> Breakdown {
        self.drain();
        self.settle(u64::MAX);
        self.breakdown.incomplete += self.traces.len() as u64;
        self.breakdown
    }
}

/// Enables the recorder, runs `work` while a drainer thread empties
/// the ring every millisecond, then disables it and returns `work`'s
/// result with the breakdown.
pub fn traced<T>(work: impl FnOnce() -> T) -> (T, Breakdown) {
    let recorder = FlightRecorder::global();
    recorder.clear();
    let done = AtomicBool::new(false);
    let mut collector = Collector::default();
    recorder.set_enabled(true);
    let result = std::thread::scope(|scope| {
        let drainer = scope.spawn(|| {
            while !done.load(Ordering::Relaxed) {
                std::thread::sleep(Duration::from_millis(1));
                collector.drain();
            }
        });
        let result = work();
        done.store(true, Ordering::Relaxed);
        drainer.join().expect("drainer thread panicked");
        result
    });
    recorder.set_enabled(false);
    // Let spans that were open when recording stopped close.
    std::thread::sleep(Duration::from_millis(5));
    let breakdown = collector.finish();
    recorder.clear();
    (result, breakdown)
}
