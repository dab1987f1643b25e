//! Span recorder for the traced run.
//!
//! Spans are taken from the benchmark's own side of each call into a layer
//! (tracing inside the product crates is a later change), kept in memory and
//! written out once, at exit.  A span's self time is its duration minus the
//! part of it its children cover.

use std::path::Path;
use std::sync::Mutex;
use std::time::Instant;

use crate::json::Value;

/// Index of a recorded span.
pub type SpanId = usize;

#[derive(Clone, Debug)]
pub struct Span {
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<SpanId>,
}

pub struct Tracer {
    enabled: bool,
    /// Shared by every span of one run (one run = one request to the
    /// benchmark: a workload, a seed).
    run_id: u64,
    epoch: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new(enabled: bool, run_id: u64) -> Self {
        Tracer {
            enabled,
            run_id,
            epoch: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }

    fn ns(&self, t: Instant) -> u64 {
        t.duration_since(self.epoch).as_nanos() as u64
    }

    /// Runs `f` as a span called `name` under `parent`; returns its result and
    /// duration in seconds.  The clock is read whether or not tracing is on
    /// (end-to-end metrics need the durations); the span is stored only when
    /// it is.
    pub fn timed<T>(
        &self,
        name: &str,
        parent: Option<SpanId>,
        f: impl FnOnce(Option<SpanId>) -> T,
    ) -> (T, f64) {
        let id = self.enabled.then(|| {
            let mut spans = self.spans.lock().expect("span list poisoned");
            spans.push(Span {
                name: name.to_string(),
                start_ns: 0,
                end_ns: 0,
                parent,
            });
            spans.len() - 1
        });
        let start = Instant::now();
        let out = f(id);
        let end = Instant::now();
        if let Some(id) = id {
            let mut spans = self.spans.lock().expect("span list poisoned");
            spans[id].start_ns = self.ns(start);
            spans[id].end_ns = self.ns(end);
        }
        (out, end.duration_since(start).as_secs_f64())
    }

    /// Records a span whose interval was measured elsewhere (a load thread's
    /// request, a round reported by an observer callback).
    pub fn record(&self, name: &str, parent: Option<SpanId>, start: Instant, end: Instant) {
        if self.enabled {
            self.spans.lock().expect("span list poisoned").push(Span {
                name: name.to_string(),
                start_ns: self.ns(start),
                end_ns: self.ns(end),
                parent,
            });
        }
    }

    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("span list poisoned").clone()
    }

    /// Seconds of span `id` not covered by its direct children.
    pub fn self_secs(&self, id: SpanId) -> f64 {
        let spans = self.spans.lock().expect("span list poisoned");
        let me = &spans[id];
        let children: u64 = spans
            .iter()
            .filter(|s| s.parent == Some(id))
            .map(|s| {
                s.end_ns
                    .min(me.end_ns)
                    .saturating_sub(s.start_ns.max(me.start_ns))
            })
            .sum();
        (me.end_ns - me.start_ns).saturating_sub(children) as f64 / 1e9
    }

    /// Writes every span as one JSON document.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        let spans = self.spans();
        let doc = Value::obj(vec![
            ("run_id", Value::Num(self.run_id as f64)),
            (
                "spans",
                Value::Arr(
                    spans
                        .iter()
                        .enumerate()
                        .map(|(i, s)| {
                            Value::obj(vec![
                                ("id", Value::Num(i as f64)),
                                ("name", Value::str(s.name.clone())),
                                ("start_ns", Value::Num(s.start_ns as f64)),
                                ("end_ns", Value::Num(s.end_ns as f64)),
                                (
                                    "parent",
                                    s.parent.map_or(Value::Null, |p| Value::Num(p as f64)),
                                ),
                                ("run_id", Value::Num(self.run_id as f64)),
                            ])
                        })
                        .collect(),
                ),
            ),
        ]);
        std::fs::write(path, doc.render() + "\n")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn self_time_is_span_minus_children() {
        let t = Tracer::new(true, 1);
        let (_, total) = t.timed("outer", None, |outer| {
            t.timed("inner", outer, |_| {
                std::thread::sleep(Duration::from_millis(20))
            });
            std::thread::sleep(Duration::from_millis(10));
        });
        let spans = t.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        let own = t.self_secs(0);
        assert!(own >= 0.009 && own < total - 0.019, "self {own} of {total}");
    }

    #[test]
    fn disabled_tracer_still_times_but_stores_nothing() {
        let t = Tracer::new(false, 1);
        let (v, secs) = t.timed("x", None, |id| {
            assert!(id.is_none());
            std::thread::sleep(Duration::from_millis(5));
            7
        });
        assert_eq!(v, 7);
        assert!(secs >= 0.004);
        assert!(t.spans().is_empty());
    }
}
