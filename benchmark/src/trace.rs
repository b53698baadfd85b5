//! The in-memory span recorder of the traced run.
//!
//! Spans are recorded from the benchmark's side of each public call into
//! a layer (spans inside the product are a later change). A span knows
//! its name, start, end, the span that caused it and the request it
//! belongs to; everything is kept in memory and written once, at exit,
//! as Chrome-trace JSON. A span's *self time* is its duration minus the
//! part covered by its children.

use crate::json::Value;
use crate::stats::median;
use std::collections::BTreeMap;
use std::sync::Mutex;
use std::time::Instant;

pub type SpanId = usize;

#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    pub start_s: f64,
    pub end_s: f64,
    pub parent: Option<SpanId>,
    /// Spans of one request share this identifier (0 = not a request).
    pub request: u64,
    pub thread: u64,
}

impl Span {
    pub fn duration_s(&self) -> f64 {
        self.end_s - self.start_s
    }
}

#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    spans: Mutex<Vec<Span>>,
}

fn thread_number() -> u64 {
    // ThreadId has no stable integer accessor; its Debug form is
    // `ThreadId(N)`.
    let id = format!("{:?}", std::thread::current().id());
    id.trim_start_matches("ThreadId(")
        .trim_end_matches(')')
        .parse()
        .unwrap_or(0)
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Vec<Span>> {
        self.spans
            .lock()
            .expect("a thread panicked while recording a span")
    }

    /// Runs `f` inside a span. `f` receives the span's id so that nested
    /// calls can name it as their parent.
    pub fn span<R>(
        &self,
        name: &'static str,
        parent: Option<SpanId>,
        request: u64,
        f: impl FnOnce(SpanId) -> R,
    ) -> R {
        let thread = thread_number();
        let id = {
            let mut spans = self.lock();
            spans.push(Span {
                name,
                start_s: 0.0,
                end_s: 0.0,
                parent,
                request,
                thread,
            });
            spans.len() - 1
        };
        let start = self.epoch.elapsed().as_secs_f64();
        let result = f(id);
        let end = self.epoch.elapsed().as_secs_f64();
        let mut spans = self.lock();
        spans[id].start_s = start;
        spans[id].end_s = end;
        result
    }

    /// Runs `f` up to `max_reps` times (stopping once `budget_s` seconds
    /// are spent, but at least once), each inside a span called `name`,
    /// and returns the median duration in seconds.
    pub fn measure<R>(
        &self,
        name: &'static str,
        max_reps: usize,
        budget_s: f64,
        mut f: impl FnMut() -> R,
    ) -> f64 {
        let began = Instant::now();
        let mut durations = Vec::new();
        for _ in 0..max_reps.max(1) {
            let t = Instant::now();
            self.span(name, None, 0, |_| std::hint::black_box(f()));
            durations.push(t.elapsed().as_secs_f64());
            if began.elapsed().as_secs_f64() >= budget_s {
                break;
            }
        }
        median(&durations)
    }

    pub fn snapshot(&self) -> Vec<Span> {
        self.lock().clone()
    }
}

/// Self time per span: duration minus the duration of direct children.
pub fn self_times(spans: &[Span]) -> Vec<f64> {
    let mut own: Vec<f64> = spans.iter().map(Span::duration_s).collect();
    for s in spans {
        if let Some(p) = s.parent {
            own[p] -= s.duration_s();
        }
    }
    own
}

/// Durations of every span called `name`, in seconds.
pub fn durations(spans: &[Span], name: &str) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(Span::duration_s)
        .collect()
}

/// Total self time per span name, in seconds, largest first.
pub fn self_time_by_name(spans: &[Span]) -> Vec<(&'static str, f64, usize)> {
    let mut by_name: BTreeMap<&'static str, (f64, usize)> = BTreeMap::new();
    for (s, own) in spans.iter().zip(self_times(spans)) {
        let e = by_name.entry(s.name).or_default();
        e.0 += own;
        e.1 += 1;
    }
    let mut rows: Vec<_> = by_name.into_iter().map(|(n, (t, c))| (n, t, c)).collect();
    rows.sort_by(|a, b| b.1.total_cmp(&a.1));
    rows
}

/// The Chrome-trace (`chrome://tracing`, Perfetto) form: one complete
/// ("X") event per span, microsecond timestamps.
pub fn chrome_trace(spans: &[Span]) -> Value {
    let own = self_times(spans);
    let events = spans
        .iter()
        .zip(own)
        .enumerate()
        .map(|(id, (s, own))| {
            Value::obj([
                ("name", Value::from(s.name)),
                ("ph", Value::from("X")),
                ("ts", Value::Num(s.start_s * 1e6)),
                ("dur", Value::Num(s.duration_s() * 1e6)),
                ("pid", Value::Num(1.0)),
                ("tid", Value::Num(s.thread as f64)),
                (
                    "args",
                    Value::obj([
                        ("id", Value::Num(id as f64)),
                        (
                            "parent",
                            s.parent.map_or(Value::Null, |p| Value::Num(p as f64)),
                        ),
                        ("request", Value::Num(s.request as f64)),
                        ("self_us", Value::Num(own * 1e6)),
                    ]),
                ),
            ])
        })
        .collect();
    Value::obj([("traceEvents", Value::Arr(events))])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_s: f64, end_s: f64, parent: Option<SpanId>) -> Span {
        Span {
            name,
            start_s,
            end_s,
            parent,
            request: 1,
            thread: 1,
        }
    }

    #[test]
    fn self_time_is_duration_minus_children() {
        let spans = [
            span("request", 0.0, 10.0, None),
            span("bind", 0.0, 2.0, Some(0)),
            span("execute", 2.0, 9.0, Some(0)),
            span("leaf", 3.0, 5.0, Some(2)),
        ];
        assert_eq!(self_times(&spans), [1.0, 2.0, 5.0, 2.0]);
        let rows = self_time_by_name(&spans);
        assert_eq!(rows[0], ("execute", 5.0, 1));
        assert_eq!(durations(&spans, "bind"), [2.0]);
    }

    #[test]
    fn recorder_nests_spans_and_writes_chrome_events() {
        let tracer = Tracer::new();
        let got = tracer.span("request", None, 7, |req| {
            tracer.span("bind", Some(req), 7, |_| 41) + 1
        });
        assert_eq!(got, 42);
        let med = tracer.measure("probe", 3, 10.0, || 1 + 1);
        assert!(med >= 0.0);
        let spans = tracer.snapshot();
        assert_eq!(spans.len(), 5);
        assert_eq!(spans[1].parent, Some(0));
        assert!(spans[0].end_s >= spans[1].end_s && spans[1].start_s >= spans[0].start_s);
        let text = chrome_trace(&spans).to_string();
        let parsed = Value::parse(&text).unwrap();
        let events = parsed.get("traceEvents").unwrap().as_arr().unwrap();
        assert_eq!(events.len(), 5);
        assert_eq!(events[1].get("name").unwrap().as_str(), Some("bind"));
        assert_eq!(
            events[1]
                .get("args")
                .unwrap()
                .get("parent")
                .unwrap()
                .as_f64(),
            Some(0.0)
        );
    }
}
