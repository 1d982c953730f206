//! Benchmark-owned spans around each call into a simulator layer.
//!
//! Spans are kept in memory and written once, when the traced run ends
//! (`out/trace.<workload>.jsonl`). A span's *self time* is its duration
//! minus the part of that interval its child spans cover, so a layer's
//! cost is not counted again in the layer that called it.

use std::collections::BTreeMap;
use std::io::Write;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One finished span. The layer is the part of `name` before the first `.`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub name: String,
    pub id: u32,
    pub parent: Option<u32>,
    pub start_ns: u64,
    pub end_ns: u64,
    pub thread: u32,
}

/// Collects spans from any thread of one traced workload.
#[derive(Debug)]
pub struct Recorder {
    workload: String,
    epoch: Instant,
    next_id: AtomicU32,
    spans: Mutex<Vec<Span>>,
}

static NEXT_THREAD: AtomicU32 = AtomicU32::new(0);
thread_local! {
    /// Small per-thread index (0 = the first thread that recorded a span).
    static THREAD_INDEX: u32 = NEXT_THREAD.fetch_add(1, Ordering::Relaxed);
}

impl Recorder {
    pub fn new(workload: &str) -> Self {
        Recorder {
            workload: workload.to_string(),
            epoch: Instant::now(),
            next_id: AtomicU32::new(0),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Runs `f` inside a span called `name` under `parent`; `f` receives
    /// the new span's id so it can parent further spans. Returns `f`'s
    /// result and the span's duration in seconds.
    pub fn scope<T>(&self, name: &str, parent: Option<u32>, f: impl FnOnce(u32) -> T) -> (T, f64) {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let start = self.epoch.elapsed();
        let out = f(id);
        let end = self.epoch.elapsed();
        let span = Span {
            name: name.to_string(),
            id,
            parent,
            start_ns: start.as_nanos() as u64,
            end_ns: end.as_nanos() as u64,
            thread: THREAD_INDEX.with(|t| *t),
        };
        self.spans
            .lock()
            .expect("no span recorder panicked holding the lock")
            .push(span);
        (out, (end - start).as_secs_f64())
    }

    /// Every span recorded so far, ordered by id (creation order).
    pub fn spans(&self) -> Vec<Span> {
        let mut spans = self
            .spans
            .lock()
            .expect("no span recorder panicked holding the lock")
            .clone();
        spans.sort_by_key(|s| s.id);
        spans
    }

    /// Writes one JSON object per span:
    /// `{"name","id","parent","start_ns","end_ns","workload","thread"}`.
    pub fn write_jsonl(&self, out: &mut impl Write) -> std::io::Result<()> {
        for s in self.spans() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"name\":\"{}\",\"id\":{},\"parent\":{},\"start_ns\":{},\"end_ns\":{},\"workload\":\"{}\",\"thread\":{}}}",
                s.name, s.id, parent, s.start_ns, s.end_ns, self.workload, s.thread
            )?;
        }
        out.flush()
    }
}

/// Self time of every span, by id: duration minus the union of its
/// children's intervals (clipped to the span; children on different
/// threads may overlap, and overlapping time is subtracted once).
pub fn self_times(spans: &[Span]) -> BTreeMap<u32, u64> {
    let mut children: BTreeMap<u32, Vec<(u64, u64)>> = BTreeMap::new();
    let by_id: BTreeMap<u32, &Span> = spans.iter().map(|s| (s.id, s)).collect();
    for s in spans {
        if let Some(parent) = s.parent.and_then(|p| by_id.get(&p)) {
            let (lo, hi) = (s.start_ns.max(parent.start_ns), s.end_ns.min(parent.end_ns));
            if lo < hi {
                children.entry(parent.id).or_default().push((lo, hi));
            }
        }
    }
    spans
        .iter()
        .map(|s| {
            let mut covered = 0;
            if let Some(intervals) = children.get_mut(&s.id) {
                intervals.sort_unstable();
                let mut reach = s.start_ns;
                for &(lo, hi) in intervals.iter() {
                    if hi > reach {
                        covered += hi - lo.max(reach);
                        reach = hi;
                    }
                }
            }
            (s.id, (s.end_ns - s.start_ns).saturating_sub(covered))
        })
        .collect()
}

/// Self time summed per layer (the span-name prefix before the first `.`),
/// in nanoseconds.
pub fn layer_self_times(spans: &[Span]) -> BTreeMap<String, u64> {
    let own = self_times(spans);
    let mut layers: BTreeMap<String, u64> = BTreeMap::new();
    for s in spans {
        let layer = s.name.split('.').next().unwrap_or(&s.name).to_string();
        *layers.entry(layer).or_default() += own[&s.id];
    }
    layers
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &str, id: u32, parent: Option<u32>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            name: name.into(),
            id,
            parent,
            start_ns,
            end_ns,
            thread: 0,
        }
    }

    #[test]
    fn self_time_subtracts_children_once() {
        // root 0..100; two sequential children 10..30 and 40..70; a
        // grandchild 45..55; two overlapping worker children 80..95, 85..100.
        let spans = vec![
            span("workload.repeat", 0, None, 0, 100),
            span("engine.build", 1, Some(0), 10, 30),
            span("engine.run", 2, Some(0), 40, 70),
            span("alloc.probe", 3, Some(2), 45, 55),
            span("runner.job", 4, Some(0), 80, 95),
            span("runner.job", 5, Some(0), 85, 100),
        ];
        let own = self_times(&spans);
        assert_eq!(own[&0], 100 - 20 - 30 - 20, "overlap 85..95 counted once");
        assert_eq!(own[&1], 20);
        assert_eq!(own[&2], 30 - 10);
        assert_eq!(own[&3], 10);
        let layers = layer_self_times(&spans);
        assert_eq!(layers["engine"], 40);
        assert_eq!(layers["alloc"], 10);
        assert_eq!(layers["runner"], 30);
        assert_eq!(layers["workload"], 30);
        assert_eq!(
            layers.values().sum::<u64>(),
            110,
            "only concurrent time exceeds the root"
        );
    }

    #[test]
    fn children_are_clipped_to_their_parent() {
        let spans = vec![span("a.x", 0, None, 10, 20), span("b.y", 1, Some(0), 5, 15)];
        assert_eq!(self_times(&spans)[&0], 5);
    }

    #[test]
    fn recorder_nests_and_writes_jsonl() {
        let rec = Recorder::new("unit");
        let ((), _) = rec.scope("outer.a", None, |outer| {
            rec.scope("inner.b", Some(outer), |_| ());
        });
        let spans = rec.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(spans[0].id));
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[1].end_ns <= spans[0].end_ns);
        let mut buf = Vec::new();
        rec.write_jsonl(&mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        assert_eq!(text.lines().count(), 2);
        for line in text.lines() {
            let v = vix_telemetry::json::parse(line).expect("each span line is JSON");
            for key in [
                "name", "id", "parent", "start_ns", "end_ns", "workload", "thread",
            ] {
                assert!(v.get(key).is_some(), "missing {key} in {line}");
            }
        }
    }
}
