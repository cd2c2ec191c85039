//! The traced run's span recorder.
//!
//! A span brackets one call into a crate's public API, made from this
//! benchmark's own code: its name, its start and end on the host clock,
//! its parent span and the problem it belongs to. Spans stay in memory
//! and are written out once, when the run ends. A layer's self time is
//! its spans' duration minus the part covered by their direct children.
//!
//! A disabled tracer (the untraced run) records nothing: `open` returns a
//! dummy id and `close` ignores it, so untraced code pays one branch per
//! call site.

use orthotrees::obs::json::Json;
use std::collections::BTreeMap;
use std::time::Instant;

/// Identifies an open span; pass it back to [`Tracer::close`].
#[derive(Clone, Copy, Debug)]
pub struct SpanId(usize);

/// One recorded span. Times are nanoseconds since the tracer was made.
#[derive(Clone, Debug)]
struct Span {
    /// Span name, `<layer>.<call>`.
    name: &'static str,
    /// Problem index within the workload.
    problem: u64,
    /// Index of the enclosing span, if any.
    parent: Option<usize>,
    /// Start time.
    start_ns: u64,
    /// End time (equal to `start_ns` until closed).
    end_ns: u64,
}

/// Per-name totals of one problem: summed self time, summed duration,
/// and the number of calls.
#[derive(Clone, Copy, Debug, Default)]
pub struct ProblemTotals {
    /// Summed self time (duration minus direct children), ns.
    pub self_ns: u64,
    /// Summed duration, ns.
    pub total_ns: u64,
    /// Number of spans with this name in the problem.
    pub calls: u64,
}

/// In-memory span and counter recorder; see the [module docs](self).
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    origin: Instant,
    problem: u64,
    stack: Vec<usize>,
    spans: Vec<Span>,
    counters: BTreeMap<&'static str, Vec<f64>>,
}

impl Tracer {
    /// A tracer that records nothing.
    pub fn off() -> Tracer {
        Tracer::new(false)
    }

    /// A recording tracer.
    pub fn on() -> Tracer {
        Tracer::new(true)
    }

    fn new(on: bool) -> Tracer {
        Tracer {
            on,
            origin: Instant::now(),
            problem: 0,
            stack: Vec::new(),
            spans: Vec::new(),
            counters: BTreeMap::new(),
        }
    }

    /// Whether spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.on
    }

    /// Tags the spans and counts that follow with problem `k`.
    pub fn set_problem(&mut self, k: u64) {
        self.problem = k;
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens a span nested in the innermost open one.
    pub fn open(&mut self, name: &'static str) -> SpanId {
        if !self.on {
            return SpanId(usize::MAX);
        }
        let start_ns = self.now_ns();
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            problem: self.problem,
            parent: self.stack.last().copied(),
            start_ns,
            end_ns: start_ns,
        });
        self.stack.push(id);
        SpanId(id)
    }

    /// Closes a span opened by [`Tracer::open`].
    ///
    /// # Panics
    ///
    /// Panics if `id` is not the innermost open span (unbalanced spans are
    /// a bug in the benchmark).
    pub fn close(&mut self, id: SpanId) {
        if !self.on {
            return;
        }
        assert_eq!(self.stack.pop(), Some(id.0), "spans must close innermost first");
        self.spans[id.0].end_ns = self.now_ns();
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let id = self.open(name);
        let r = f();
        self.close(id);
        r
    }

    /// Records one problem's `value` for counter `name`.
    pub fn count(&mut self, name: &'static str, value: f64) {
        if self.on {
            self.counters.entry(name).or_default().push(value);
        }
    }

    /// Drops open spans left by a problem that panicked mid-span.
    pub fn unwind(&mut self) {
        self.stack.clear();
    }

    /// Per-problem totals for every span name: `name → [totals of each
    /// problem that has the name]`.
    pub fn per_problem(&self) -> BTreeMap<&'static str, Vec<ProblemTotals>> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        let mut acc: BTreeMap<(&'static str, u64), ProblemTotals> = BTreeMap::new();
        for (s, child) in self.spans.iter().zip(child_ns) {
            let dur = s.end_ns - s.start_ns;
            let t = acc.entry((s.name, s.problem)).or_default();
            t.self_ns += dur.saturating_sub(child);
            t.total_ns += dur;
            t.calls += 1;
        }
        let mut out: BTreeMap<&'static str, Vec<ProblemTotals>> = BTreeMap::new();
        for ((name, _), t) in acc {
            out.entry(name).or_default().push(t);
        }
        out
    }

    /// Every value recorded for counter `name`.
    pub fn counter(&self, name: &str) -> Vec<f64> {
        self.counters.get(name).cloned().unwrap_or_default()
    }

    /// The spans as a JSON array, each tagged with `workload`.
    pub fn spans_json(&self, workload: &str) -> Vec<Json> {
        self.spans
            .iter()
            .enumerate()
            .map(|(i, s)| {
                Json::obj([
                    ("workload", Json::str(workload)),
                    ("id", Json::u64(i as u64)),
                    ("name", Json::str(s.name)),
                    ("problem", Json::u64(s.problem)),
                    ("parent", s.parent.map_or(Json::Null, |p| Json::u64(p as u64))),
                    ("start_ns", Json::u64(s.start_ns)),
                    ("end_ns", Json::u64(s.end_ns)),
                ])
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_direct_children() {
        let mut tr = Tracer::on();
        let outer = tr.open("outer");
        tr.span("inner", || std::thread::sleep(std::time::Duration::from_millis(5)));
        tr.close(outer);
        let pp = tr.per_problem();
        let outer = pp["outer"][0];
        let inner = pp["inner"][0];
        assert_eq!(outer.calls, 1);
        assert!(inner.total_ns >= 5_000_000);
        assert_eq!(outer.self_ns, outer.total_ns - inner.total_ns);
    }

    #[test]
    fn a_disabled_tracer_records_nothing() {
        let mut tr = Tracer::off();
        let id = tr.open("x");
        tr.count("c", 1.0);
        tr.close(id);
        assert!(tr.spans_json("w").is_empty() && tr.counter("c").is_empty());
    }
}
