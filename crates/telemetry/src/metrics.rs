//! A zero-overhead metrics registry.
//!
//! Metric names are resolved to dense integer IDs once, at registration
//! time; every hot-path operation ([`MetricsRegistry::add`],
//! [`MetricsRegistry::set`], [`MetricsRegistry::observe`]) is an array
//! index plus an add — no hashing, no string lookups, no allocation.
//!
//! Three metric families:
//!
//! * **Counters** — monotonically increasing `u64`s (stall breakdowns,
//!   event totals).
//! * **Gauges** — sampled values; the registry keeps the last sample,
//!   the maximum, and the running sum/sample-count so exports can report
//!   a mean (active-router set size, wake-calendar occupancy).
//! * **Histograms** — fixed upper-bound buckets chosen at registration
//!   (per-router VC occupancy). A sample larger than every bound lands
//!   in the implicit overflow bucket.

use crate::json::escape;
use std::fmt::Write as _;

/// Handle to a registered counter.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CounterId(pub(crate) usize);

/// Handle to a registered gauge.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GaugeId(pub(crate) usize);

/// Handle to a registered histogram.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HistogramId(pub(crate) usize);

/// Exported view of a gauge.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GaugeSnapshot {
    /// Most recent sample.
    pub last: u64,
    /// Largest sample seen.
    pub max: u64,
    /// Sum of all samples (for the mean).
    pub sum: u64,
    /// Number of samples.
    pub samples: u64,
}

#[derive(Debug, Clone)]
struct HistogramState {
    /// Inclusive upper bounds, strictly increasing; `counts` has one
    /// extra slot for samples above the last bound.
    bounds: Vec<u64>,
    counts: Vec<u64>,
    sum: u64,
    total: u64,
}

/// The registry: registration returns IDs, recording indexes by ID.
#[derive(Debug, Default, Clone)]
pub struct MetricsRegistry {
    counters: Vec<(String, u64)>,
    gauges: Vec<(String, GaugeSnapshot)>,
    histograms: Vec<(String, HistogramState)>,
}

impl MetricsRegistry {
    /// An empty registry.
    #[must_use]
    pub fn new() -> Self {
        MetricsRegistry::default()
    }

    /// Registers a counter and returns its hot-path handle.
    pub fn register_counter(&mut self, name: &str) -> CounterId {
        self.counters.push((name.to_string(), 0));
        CounterId(self.counters.len() - 1)
    }

    /// Registers a gauge and returns its hot-path handle.
    pub fn register_gauge(&mut self, name: &str) -> GaugeId {
        self.gauges.push((name.to_string(), GaugeSnapshot::default()));
        GaugeId(self.gauges.len() - 1)
    }

    /// Registers a histogram with the given inclusive upper `bounds`
    /// (strictly increasing); an overflow bucket is added implicitly.
    ///
    /// # Panics
    ///
    /// Panics if `bounds` is empty or not strictly increasing.
    pub fn register_histogram(&mut self, name: &str, bounds: &[u64]) -> HistogramId {
        assert!(!bounds.is_empty(), "histogram needs at least one bucket bound");
        assert!(bounds.windows(2).all(|w| w[0] < w[1]), "histogram bounds must increase");
        self.histograms.push((
            name.to_string(),
            HistogramState {
                bounds: bounds.to_vec(),
                counts: vec![0; bounds.len() + 1],
                sum: 0,
                total: 0,
            },
        ));
        HistogramId(self.histograms.len() - 1)
    }

    /// Adds `n` to a counter.
    #[inline]
    pub fn add(&mut self, id: CounterId, n: u64) {
        self.counters[id.0].1 += n;
    }

    /// Increments a counter by one.
    #[cfg(test)]
    fn inc(&mut self, id: CounterId) {
        self.add(id, 1);
    }

    /// Records a gauge sample.
    #[inline]
    pub fn set(&mut self, id: GaugeId, value: u64) {
        let g = &mut self.gauges[id.0].1;
        g.last = value;
        g.max = g.max.max(value);
        g.sum += value;
        g.samples += 1;
    }

    /// Records a histogram sample.
    #[inline]
    pub fn observe(&mut self, id: HistogramId, value: u64) {
        let h = &mut self.histograms[id.0].1;
        let bucket = h.bounds.partition_point(|&b| b < value);
        h.counts[bucket] += 1;
        h.sum += value;
        h.total += 1;
    }

    /// This registry's metrics under the same ids, every value zero: the
    /// registry of a shard's sink, for [`absorb`](MetricsRegistry::absorb).
    #[must_use]
    pub fn zeroed(&self) -> Self {
        let mut copy = self.clone();
        copy.counters.iter_mut().for_each(|(_, c)| *c = 0);
        copy.gauges.iter_mut().for_each(|(_, g)| *g = GaugeSnapshot::default());
        for (_, h) in &mut copy.histograms {
            h.counts.fill(0);
            (h.sum, h.total) = (0, 0);
        }
        copy
    }

    /// Moves the counters and histograms of `other`, a
    /// [`zeroed`](MetricsRegistry::zeroed) copy of this registry, into
    /// this one as sums, leaving `other`'s zero. Gauges are left alone:
    /// the max of a sum is lost in per-part gauges.
    pub fn absorb(&mut self, other: &mut MetricsRegistry) {
        for ((_, c), (_, o)) in self.counters.iter_mut().zip(&mut other.counters) {
            *c += std::mem::take(o);
        }
        for ((_, h), (_, o)) in self.histograms.iter_mut().zip(&mut other.histograms) {
            h.counts.iter_mut().zip(&mut o.counts).for_each(|(c, o)| *c += std::mem::take(o));
            h.sum += std::mem::take(&mut o.sum);
            h.total += std::mem::take(&mut o.total);
        }
    }

    /// True when nothing has been registered.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty() && self.gauges.is_empty() && self.histograms.is_empty()
    }

    /// Current value of the counter named `name`, if registered.
    #[must_use]
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters.iter().find(|(n, _)| n == name).map(|(_, v)| *v)
    }

    /// Snapshot of the gauge named `name`, if registered.
    #[must_use]
    pub fn gauge(&self, name: &str) -> Option<GaugeSnapshot> {
        self.gauges.iter().find(|(n, _)| n == name).map(|(_, g)| *g)
    }

    /// `(bucket counts, total samples)` of the histogram named `name`,
    /// if registered. The last count is the overflow bucket.
    #[must_use]
    pub fn histogram(&self, name: &str) -> Option<(Vec<u64>, u64)> {
        self.histograms.iter().find(|(n, _)| n == name).map(|(_, h)| (h.counts.clone(), h.total))
    }

    /// Renders the whole registry as a JSON object:
    /// `{"counters": {...}, "gauges": {...}, "histograms": {...}}`.
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\"counters\":{");
        for (i, (name, value)) in self.counters.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "\"{}\":{}", escape(name), value);
        }
        out.push_str("},\"gauges\":{");
        for (i, (name, g)) in self.gauges.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "\"{}\":{{\"last\":{},\"max\":{},\"sum\":{},\"samples\":{}}}",
                escape(name),
                g.last,
                g.max,
                g.sum,
                g.samples
            );
        }
        out.push_str("},\"histograms\":{");
        for (i, (name, h)) in self.histograms.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "\"{}\":{{\"bounds\":[", escape(name));
            for (j, b) in h.bounds.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                let _ = write!(out, "{b}");
            }
            out.push_str("],\"counts\":[");
            for (j, c) in h.counts.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                let _ = write!(out, "{c}");
            }
            let _ = write!(out, "],\"sum\":{},\"total\":{}}}", h.sum, h.total);
        }
        out.push_str("}}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;

    #[test]
    fn counters_accumulate_by_id() {
        let mut reg = MetricsRegistry::new();
        let a = reg.register_counter("a");
        let b = reg.register_counter("b");
        reg.inc(a);
        reg.add(b, 10);
        reg.inc(a);
        assert_eq!(reg.counter("a"), Some(2));
        assert_eq!(reg.counter("b"), Some(10));
        assert_eq!(reg.counter("missing"), None);
    }

    #[test]
    fn gauges_track_last_max_and_mean_inputs() {
        let mut reg = MetricsRegistry::new();
        let g = reg.register_gauge("g");
        for v in [3, 9, 5] {
            reg.set(g, v);
        }
        let snap = reg.gauge("g").unwrap();
        assert_eq!((snap.last, snap.max, snap.sum, snap.samples), (5, 9, 17, 3));
    }

    #[test]
    fn histogram_buckets_split_on_inclusive_bounds() {
        let mut reg = MetricsRegistry::new();
        let h = reg.register_histogram("h", &[1, 4]);
        for v in [0, 1, 2, 4, 5, 100] {
            reg.observe(h, v);
        }
        let (counts, total) = reg.histogram("h").unwrap();
        assert_eq!(counts, vec![2, 2, 2]); // <=1, <=4, overflow
        assert_eq!(total, 6);
    }

    #[test]
    fn zeroed_copies_absorb_as_sums_and_leave_gauges_alone() {
        let mut reg = MetricsRegistry::new();
        let (c, g) = (reg.register_counter("c"), reg.register_gauge("g"));
        let h = reg.register_histogram("h", &[1]);
        reg.add(c, 5);
        reg.set(g, 4);
        reg.observe(h, 0);
        let mut part = reg.zeroed();
        assert_eq!(part.counter("c"), Some(0));
        assert_eq!(part.gauge("g"), Some(GaugeSnapshot::default()));
        assert_eq!(part.histogram("h"), Some((vec![0, 0], 0)));
        part.add(c, 2);
        part.set(g, 9);
        part.observe(h, 3);
        reg.absorb(&mut part);
        assert_eq!(reg.counter("c"), Some(7));
        assert_eq!(reg.histogram("h"), Some((vec![1, 1], 2)));
        assert_eq!(reg.gauge("g").unwrap().samples, 1, "gauges are the merger's to record");
        assert_eq!(part.counter("c"), Some(0), "absorbed values leave the part");
        assert_eq!(part.histogram("h"), Some((vec![0, 0], 0)));
        reg.absorb(&mut part);
        assert_eq!(reg.counter("c"), Some(7), "absorbing twice counts once");
    }

    #[test]
    #[should_panic(expected = "must increase")]
    fn histogram_rejects_unsorted_bounds() {
        MetricsRegistry::new().register_histogram("bad", &[4, 1]);
    }

    #[test]
    fn json_export_parses_and_preserves_values() {
        let mut reg = MetricsRegistry::new();
        let c = reg.register_counter("stall.sa_no_grant");
        let g = reg.register_gauge("sched.active_routers");
        let h = reg.register_histogram("router0.vc_occupancy", &[0, 1, 2, 4]);
        reg.add(c, 42);
        reg.set(g, 7);
        reg.observe(h, 3);
        let doc = json::parse(&reg.to_json()).unwrap();
        assert_eq!(
            doc.get("counters").and_then(|c| c.get("stall.sa_no_grant")).and_then(json::JsonValue::as_u64),
            Some(42)
        );
        let gauge = doc.get("gauges").and_then(|g| g.get("sched.active_routers")).unwrap();
        assert_eq!(gauge.get("max").and_then(json::JsonValue::as_u64), Some(7));
        let hist = doc.get("histograms").and_then(|h| h.get("router0.vc_occupancy")).unwrap();
        assert_eq!(hist.get("total").and_then(json::JsonValue::as_u64), Some(1));
        assert_eq!(hist.get("counts").and_then(json::JsonValue::as_array).unwrap().len(), 5);
    }
}
