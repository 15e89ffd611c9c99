//! In-memory span recorder for the traced runs.
//!
//! Spans are recorded by the benchmark around its own calls into each
//! layer's public functions (the crates under test carry no
//! instrumentation).  A span's parent is the innermost open span on the
//! same thread; work handed to scheduler threads names its parent
//! explicitly with [`Tracer::adopt`].  Spans stay in memory until the run
//! ends and [`Tracer::write_jsonl`] writes them out.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Identifier of a recorded span.
pub type SpanId = usize;

/// One finished span, with times in seconds since the tracer was created.
#[derive(Debug, Clone)]
pub struct Span {
    /// Unique within its tracer.
    pub id: SpanId,
    /// The span that caused this one.
    pub parent: Option<SpanId>,
    /// Layer name, e.g. `uarch.batch`.
    pub name: &'static str,
    /// Start time.
    pub start: f64,
    /// End time.
    pub end: f64,
}

/// Aggregate of every span with one name.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct LayerTime {
    /// Spans recorded.
    pub calls: u64,
    /// Summed self time: span time minus the part its children cover.
    pub busy_s: f64,
}

thread_local! {
    static OPEN: RefCell<Vec<SpanId>> = const { RefCell::new(Vec::new()) };
}

/// Records spans and named counters; a disabled tracer records nothing and
/// only runs the closures it is handed.
pub struct Tracer {
    enabled: AtomicBool,
    origin: Instant,
    next_id: AtomicUsize,
    spans: Mutex<Vec<Span>>,
    counters: Mutex<BTreeMap<&'static str, f64>>,
}

impl Tracer {
    /// A recording tracer.
    pub fn on() -> Self {
        Self::new(true)
    }

    /// A tracer that records nothing (for untraced replays).
    pub fn off() -> Self {
        Self::new(false)
    }

    fn new(enabled: bool) -> Self {
        Tracer {
            enabled: AtomicBool::new(enabled),
            origin: Instant::now(),
            next_id: AtomicUsize::new(0),
            spans: Mutex::new(Vec::new()),
            counters: Mutex::new(BTreeMap::new()),
        }
    }

    /// Starts or stops recording (work done while stopped leaves no spans
    /// and no counts, e.g. a replayed warm-up).
    pub fn set_enabled(&self, on: bool) {
        self.enabled.store(on, Ordering::Relaxed);
    }

    fn enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    /// Runs `f` inside a span named `name`, child of this thread's innermost
    /// open span.
    pub fn span<R>(&self, name: &'static str, f: impl FnOnce() -> R) -> R {
        if !self.enabled() {
            return f();
        }
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let parent = OPEN.with(|open| open.borrow().last().copied());
        let start = self.now();
        OPEN.with(|open| open.borrow_mut().push(id));
        let result = f();
        OPEN.with(|open| open.borrow_mut().pop());
        let end = self.now();
        self.spans
            .lock()
            .expect("span list poisoned by a panicking recorder")
            .push(Span {
                id,
                parent,
                name,
                start,
                end,
            });
        result
    }

    /// The innermost open span on this thread, to hand to [`Tracer::adopt`]
    /// on another thread.
    pub fn current(&self) -> Option<SpanId> {
        OPEN.with(|open| open.borrow().last().copied())
    }

    /// Runs `f` with `parent` as this thread's innermost open span, so spans
    /// opened by work running on a scheduler thread nest under the span
    /// that submitted it.
    pub fn adopt<R>(&self, parent: Option<SpanId>, f: impl FnOnce() -> R) -> R {
        let Some(parent) = parent.filter(|_| self.enabled()) else {
            return f();
        };
        OPEN.with(|open| open.borrow_mut().push(parent));
        let result = f();
        OPEN.with(|open| open.borrow_mut().pop());
        result
    }

    /// Adds `n` to the counter `name`.
    pub fn add(&self, name: &'static str, n: f64) {
        if self.enabled() {
            *self
                .counters
                .lock()
                .expect("counter map poisoned by a panicking recorder")
                .entry(name)
                .or_default() += n;
        }
    }

    /// Current value of counter `name` (0 when never added to).
    pub fn counter(&self, name: &str) -> f64 {
        self.counters
            .lock()
            .expect("counter map poisoned by a panicking recorder")
            .get(name)
            .copied()
            .unwrap_or(0.0)
    }

    /// A copy of every finished span.
    pub fn spans(&self) -> Vec<Span> {
        self.spans
            .lock()
            .expect("span list poisoned by a panicking recorder")
            .clone()
    }

    /// Calls and self time per span name.
    pub fn layer_times(&self) -> BTreeMap<&'static str, LayerTime> {
        let spans = self.spans();
        let mut children: BTreeMap<SpanId, Vec<(f64, f64)>> = BTreeMap::new();
        for s in &spans {
            if let Some(p) = s.parent {
                children.entry(p).or_default().push((s.start, s.end));
            }
        }
        let mut out: BTreeMap<&'static str, LayerTime> = BTreeMap::new();
        for s in &spans {
            let covered = children
                .get(&s.id)
                .map_or(0.0, |c| union_length(c, s.start, s.end));
            let t = out.entry(s.name).or_default();
            t.calls += 1;
            t.busy_s += (s.end - s.start - covered).max(0.0);
        }
        out
    }

    /// Seconds since the tracer was created (the clock spans use).
    pub fn now(&self) -> f64 {
        self.origin.elapsed().as_secs_f64()
    }

    /// Share of `[from, to]` (tracer time) covered by at least one span
    /// `is_layer` accepts.
    pub fn coverage(&self, from: f64, to: f64, is_layer: impl Fn(&str) -> bool) -> f64 {
        let intervals: Vec<(f64, f64)> = self
            .spans()
            .iter()
            .filter(|s| is_layer(s.name))
            .map(|s| (s.start, s.end))
            .collect();
        union_length(&intervals, from, to) / (to - from)
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in self.spans() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{},\"parent\":{parent},\"name\":\"{}\",\"start_s\":{},\"end_s\":{}}}",
                s.id, s.name, s.start, s.end
            )?;
        }
        out.flush()
    }
}

/// Length of the union of `intervals`, each clipped to `[lo, hi]`.
fn union_length(intervals: &[(f64, f64)], lo: f64, hi: f64) -> f64 {
    let mut clipped: Vec<(f64, f64)> = intervals
        .iter()
        .map(|&(a, b)| (a.max(lo), b.min(hi)))
        .filter(|(a, b)| b > a)
        .collect();
    clipped.sort_by(|x, y| x.0.total_cmp(&y.0));
    let mut total = 0.0;
    let mut current: Option<(f64, f64)> = None;
    for (a, b) in clipped {
        current = match current {
            Some((ca, cb)) if a <= cb => Some((ca, cb.max(b))),
            Some((ca, cb)) => {
                total += cb - ca;
                Some((a, b))
            }
            None => Some((a, b)),
        };
    }
    total + current.map_or(0.0, |(a, b)| b - a)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spin(ms: u64) {
        let t = Instant::now();
        while t.elapsed().as_millis() < u128::from(ms) {
            std::hint::black_box(t.elapsed());
        }
    }

    #[test]
    fn union_merges_overlaps_and_clips() {
        let u = union_length(&[(0.0, 2.0), (1.0, 3.0), (5.0, 6.0), (-1.0, 0.5)], 0.0, 5.5);
        assert!((u - 3.5).abs() < 1e-12);
    }

    #[test]
    fn self_time_excludes_children_even_across_threads() {
        let t = Tracer::on();
        t.span("outer", || {
            spin(20);
            let parent = t.current();
            std::thread::scope(|s| {
                for _ in 0..2 {
                    s.spawn(|| t.adopt(parent, || t.span("inner", || spin(30))));
                }
            });
        });
        let times = t.layer_times();
        assert_eq!(times["inner"].calls, 2);
        assert!(times["inner"].busy_s >= 0.06);
        // The two parallel children overlap: the outer span loses only
        // their union (~30 ms), keeping its own ~20 ms.
        let outer = times["outer"].busy_s;
        assert!((0.015..0.05).contains(&outer), "outer self {outer}");
        assert!(Tracer::off().layer_times().is_empty());
    }
}
