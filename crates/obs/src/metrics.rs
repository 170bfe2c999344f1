//! Metrics: counters, gauges, and log-scale histograms keyed by
//! `(node, metric)`.
//!
//! Metric names follow `<crate>.<subsystem>.<name>` (e.g.
//! `bgp.decision.select_wall_ns`). Names are `&'static str` so the hot
//! recording path never allocates; snapshots convert to owned strings for
//! export.

use std::collections::BTreeMap;
use std::fmt;

use crate::json::{Json, ToJson};

/// A metric key: the node it is attributed to (None = whole-simulation) and
/// its dotted name.
pub type MetricKey = (Option<u32>, &'static str);

/// A log2-bucketed histogram of non-negative integer samples.
///
/// Bucket `i` counts samples `v` with `floor(log2(v)) == i` (`v == 0` lands
/// in bucket 0), so 64 buckets cover the whole `u64` range — wide enough for
/// nanosecond latencies from single digits to hours.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Histogram {
    buckets: [u64; 64],
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
}

impl Default for Histogram {
    fn default() -> Histogram {
        Histogram {
            buckets: [0; 64],
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }
}

/// Bucket index for a value (shared by record and report paths).
fn log2_bucket(value: u64) -> usize {
    63 - value.max(1).leading_zeros() as usize
}

/// The `p`-quantile (`0.0..=1.0`) of an ascending, non-empty sample by
/// linear interpolation between closest ranks (the "type 7" definition R
/// and NumPy default to) — the one convention behind every boxplot row and
/// campaign cell statistic.
pub fn quantile(sorted: &[f64], p: f64) -> f64 {
    let h = p * (sorted.len() - 1) as f64;
    let (lo, hi) = (h.floor() as usize, h.ceil() as usize);
    sorted[lo] + (h - lo as f64) * (sorted[hi] - sorted[lo])
}

impl Histogram {
    /// Record one sample.
    pub fn record(&mut self, value: u64) {
        self.buckets[log2_bucket(value)] += 1;
        self.count += 1;
        self.sum = self.sum.saturating_add(value);
        self.min = self.min.min(value);
        self.max = self.max.max(value);
    }

    /// Number of samples recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all samples (saturating).
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Smallest sample, if any.
    pub fn min(&self) -> Option<u64> {
        (self.count > 0).then_some(self.min)
    }

    /// Largest sample, if any.
    pub fn max(&self) -> Option<u64> {
        (self.count > 0).then_some(self.max)
    }

    /// Mean sample, if any.
    pub fn mean(&self) -> Option<f64> {
        (self.count > 0).then(|| self.sum as f64 / self.count as f64)
    }

    /// Approximate quantile (0.0..=1.0): the lower bound of the bucket
    /// holding the q-th sample.
    pub fn quantile(&self, q: f64) -> Option<u64> {
        if self.count == 0 {
            return None;
        }
        let rank = ((q.clamp(0.0, 1.0) * (self.count - 1) as f64) as u64).min(self.count - 1);
        let mut seen = 0;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen > rank {
                return Some(if i == 0 { 0 } else { 1u64 << i });
            }
        }
        Some(self.max)
    }

    /// Non-empty buckets as `(lower_bound, count)` pairs.
    fn nonzero_buckets(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        self.buckets
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(i, &c)| (if i == 0 { 0 } else { 1u64 << i }, c))
    }

    /// Merge another histogram into this one.
    pub fn merge(&mut self, other: &Histogram) {
        for (a, b) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *a += b;
        }
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
        if other.count > 0 {
            self.min = self.min.min(other.min);
            self.max = self.max.max(other.max);
        }
    }
}

impl fmt::Display for Histogram {
    /// ASCII rendering: one row per non-empty bucket with a proportional bar.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.count == 0 {
            return writeln!(f, "  (no samples)");
        }
        let peak = self.buckets.iter().copied().max().unwrap_or(1).max(1);
        for (lo, c) in self.nonzero_buckets() {
            let width = ((c as f64 / peak as f64) * 40.0).ceil() as usize;
            writeln!(
                f,
                "  >= {:>12} | {:<40} {}",
                fmt_count(lo),
                "#".repeat(width),
                c
            )?;
        }
        Ok(())
    }
}

fn fmt_count(v: u64) -> String {
    if v >= 1_000_000_000 {
        format!("{:.1}G", v as f64 / 1e9)
    } else if v >= 1_000_000 {
        format!("{:.1}M", v as f64 / 1e6)
    } else if v >= 1_000 {
        format!("{:.1}k", v as f64 / 1e3)
    } else {
        format!("{v}")
    }
}

/// One exported metric value.
#[derive(Debug, Clone, PartialEq)]
pub enum MetricValue {
    /// Monotonic counter.
    Counter(u64),
    /// Point-in-time value.
    Gauge(i64),
    /// Distribution (boxed: a histogram is ~0.5 kB of buckets).
    Histogram(Box<Histogram>),
}

/// A point-in-time copy of the registry, with owned names.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricsSnapshot {
    /// Samples sorted by (node, name).
    pub entries: Vec<(Option<u32>, String, MetricValue)>,
}

impl MetricsSnapshot {
    /// Look up one entry.
    pub fn get(&self, node: Option<u32>, name: &str) -> Option<&MetricValue> {
        self.entries
            .iter()
            .find(|(n, k, _)| *n == node && k == name)
            .map(|(_, _, v)| v)
    }

    /// Counter value, defaulting to 0.
    pub fn counter(&self, node: Option<u32>, name: &str) -> u64 {
        match self.get(node, name) {
            Some(MetricValue::Counter(c)) => *c,
            _ => 0,
        }
    }

    /// JSON array form, one object per entry.
    pub fn to_json(&self) -> Json {
        Json::Arr(
            self.entries
                .iter()
                .map(|(node, name, value)| {
                    let mut m: Vec<(String, Json)> = vec![
                        ("node".into(), node.to_json()),
                        ("name".into(), Json::Str(name.clone())),
                    ];
                    match value {
                        MetricValue::Counter(c) => {
                            m.push(("counter".into(), Json::U64(*c)));
                        }
                        MetricValue::Gauge(g) => {
                            m.push(("gauge".into(), Json::F64(*g as f64)));
                        }
                        MetricValue::Histogram(h) => {
                            m.push(("count".into(), Json::U64(h.count())));
                            m.push(("sum".into(), Json::U64(h.sum())));
                            m.push((
                                "buckets".into(),
                                Json::Arr(
                                    h.nonzero_buckets()
                                        .map(|(lo, c)| Json::Arr(vec![Json::U64(lo), Json::U64(c)]))
                                        .collect(),
                                ),
                            ));
                        }
                    }
                    Json::Obj(m)
                })
                .collect(),
        )
    }
}

/// One node's counters, in first-touch order. A node touches a handful of
/// names, and the same call site passes the same `&'static str`, so a slot
/// is found by comparing pointers; two sites that spell one name in two
/// string literals share a slot through the string fallback.
type CounterRow = Vec<(&'static str, u64)>;

/// The live registry: counters, gauges, histograms keyed by `(node, name)`.
#[derive(Debug, Clone, Default)]
pub struct MetricsRegistry {
    /// Counters are the per-event hot path: one row per node that ever
    /// counted, sorted by node (`None` first), never empty.
    counters: Vec<(Option<u32>, CounterRow)>,
    gauges: BTreeMap<MetricKey, i64>,
    histograms: BTreeMap<MetricKey, Histogram>,
}

impl MetricsRegistry {
    /// Empty registry.
    pub fn new() -> MetricsRegistry {
        MetricsRegistry::default()
    }

    /// Add `delta` to a counter.
    pub fn count(&mut self, node: Option<u32>, name: &'static str, delta: u64) {
        let at = match self.counters.binary_search_by_key(&node, |(n, _)| *n) {
            Ok(at) => at,
            Err(at) => {
                self.counters.insert(at, (node, Vec::new()));
                at
            }
        };
        let row = &mut self.counters[at].1;
        let slot = row
            .iter()
            .position(|(k, _)| std::ptr::eq(*k, name))
            .or_else(|| row.iter().position(|(k, _)| *k == name));
        match slot {
            Some(slot) => row[slot].1 += delta,
            None => row.push((name, delta)),
        }
    }

    /// Set a gauge.
    pub fn gauge(&mut self, node: Option<u32>, name: &'static str, value: i64) {
        self.gauges.insert((node, name), value);
    }

    /// Record a histogram sample.
    pub fn observe(&mut self, node: Option<u32>, name: &'static str, value: u64) {
        self.histograms
            .entry((node, name))
            .or_default()
            .record(value);
    }

    /// Current counter value (0 when never touched).
    pub fn counter(&self, node: Option<u32>, name: &str) -> u64 {
        let Ok(at) = self.counters.binary_search_by_key(&node, |(n, _)| *n) else {
            return 0;
        };
        let row = &self.counters[at].1;
        row.iter().find(|(k, _)| *k == name).map_or(0, |(_, v)| *v)
    }

    /// The histogram for a key, if any samples were recorded.
    pub fn histogram(&self, node: Option<u32>, name: &str) -> Option<&Histogram> {
        self.histograms
            .iter()
            .find(|((n, k), _)| *n == node && *k == name)
            .map(|(_, v)| v)
    }

    /// Sum a counter across all nodes.
    pub fn counter_total(&self, name: &str) -> u64 {
        self.counters
            .iter()
            .flat_map(|(_, row)| row)
            .filter(|(k, _)| *k == name)
            .map(|(_, v)| *v)
            .sum()
    }

    /// Merge every histogram with this name across nodes.
    pub fn histogram_merged(&self, name: &str) -> Histogram {
        let mut out = Histogram::default();
        for ((_, k), h) in &self.histograms {
            if *k == name {
                out.merge(h);
            }
        }
        out
    }

    /// True when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty() && self.gauges.is_empty() && self.histograms.is_empty()
    }

    /// Forget everything (phase boundaries snapshot then reset).
    pub fn reset(&mut self) {
        self.counters.clear();
        self.gauges.clear();
        self.histograms.clear();
    }

    /// Owned point-in-time copy, sorted by (node, name).
    pub fn snapshot(&self) -> MetricsSnapshot {
        let mut entries: Vec<(Option<u32>, String, MetricValue)> = Vec::new();
        for (node, row) in &self.counters {
            for (name, v) in row {
                entries.push((*node, (*name).to_string(), MetricValue::Counter(*v)));
            }
        }
        for ((node, name), v) in &self.gauges {
            entries.push((*node, (*name).to_string(), MetricValue::Gauge(*v)));
        }
        for ((node, name), h) in &self.histograms {
            entries.push((
                *node,
                (*name).to_string(),
                MetricValue::Histogram(Box::new(h.clone())),
            ));
        }
        entries.sort_by(|a, b| (a.0, &a.1).cmp(&(b.0, &b.1)));
        MetricsSnapshot { entries }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_buckets_and_stats() {
        let mut h = Histogram::default();
        for v in [0, 1, 2, 3, 4, 1024, 1 << 40] {
            h.record(v);
        }
        assert_eq!(h.count(), 7);
        assert_eq!(h.min(), Some(0));
        assert_eq!(h.max(), Some(1 << 40));
        // 0 and 1 share bucket 0; 2 and 3 bucket 1; 4 bucket 2.
        let buckets: Vec<(u64, u64)> = h.nonzero_buckets().collect();
        assert_eq!(
            buckets,
            vec![(0, 2), (2, 2), (4, 1), (1024, 1), (1 << 40, 1)]
        );
        assert_eq!(h.quantile(0.0), Some(0));
        assert_eq!(h.quantile(1.0), Some(1 << 40));
    }

    #[test]
    fn log2_bucket_boundaries_at_powers_of_two() {
        // 0 is clamped into bucket 0 alongside 1.
        assert_eq!(log2_bucket(0), 0);
        assert_eq!(log2_bucket(1), 0);
        // Each exact power of two opens its own bucket; the value just
        // below it still lands in the previous one.
        for k in 1..64 {
            let p = 1u64 << k;
            assert_eq!(log2_bucket(p), k, "2^{k} must open bucket {k}");
            assert_eq!(log2_bucket(p - 1), k - 1, "2^{k}-1 must stay below");
            if k < 63 {
                assert_eq!(log2_bucket(2 * p - 1), k, "2^{}−1 closes bucket {k}", k + 1);
            }
        }
        assert_eq!(log2_bucket(u64::MAX), 63);
    }

    #[test]
    fn histogram_merge_accumulates() {
        let mut a = Histogram::default();
        a.record(5);
        let mut b = Histogram::default();
        b.record(100);
        b.record(3);
        a.merge(&b);
        assert_eq!(a.count(), 3);
        assert_eq!(a.min(), Some(3));
        assert_eq!(a.max(), Some(100));
        assert_eq!(a.sum(), 108);
    }

    #[test]
    fn registry_keys_by_node_and_name() {
        let mut r = MetricsRegistry::new();
        r.count(Some(1), "bgp.router.updates_sent", 2);
        r.count(Some(2), "bgp.router.updates_sent", 3);
        r.count(None, "netsim.loop.events", 10);
        r.gauge(None, "core.controller.members", 8);
        r.observe(Some(1), "bgp.decision.select_wall_ns", 1500);
        assert_eq!(r.counter(Some(1), "bgp.router.updates_sent"), 2);
        assert_eq!(r.counter_total("bgp.router.updates_sent"), 5);
        assert_eq!(r.gauges.get(&(None, "core.controller.members")), Some(&8));
        assert_eq!(
            r.histogram(Some(1), "bgp.decision.select_wall_ns")
                .unwrap()
                .count(),
            1
        );
        let snap = r.snapshot();
        assert_eq!(snap.counter(Some(2), "bgp.router.updates_sent"), 3);
        assert_eq!(snap.entries.len(), 5);
        r.reset();
        assert!(r.is_empty());
    }

    /// Counters live in per-node rows, not in a map: touched in any node
    /// and name order — through distinct string literals of one name too —
    /// they must read back exactly like a `(node, name)`-keyed map.
    #[test]
    fn counters_touched_in_any_order_match_a_map_model() {
        const NAMES: [&str; 4] = ["b.x.sent", "a.x.recv", "c.x.drop", "a.x.recv2"];
        // A second literal of NAMES[1]; `to_owned` + `leak` guarantees an
        // address of its own, whatever the linker merges.
        let twin: &'static str = String::from(NAMES[1]).leak();
        assert!(!std::ptr::eq(twin, NAMES[1]));
        let mut r = MetricsRegistry::new();
        let mut model: BTreeMap<(Option<u32>, &str), u64> = BTreeMap::new();
        let mut state = 0x2545_f491_4f6c_dd1du64;
        for step in 0..500u64 {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let node = match (state >> 33) % 8 {
                0 => None,
                n => Some((n as u32 * 37) % 11),
            };
            let mut name = NAMES[((state >> 40) % 4) as usize];
            if name == NAMES[1] && step % 2 == 0 {
                name = twin;
            }
            let delta = (state >> 50) % 5;
            r.count(node, name, delta);
            *model.entry((node, name)).or_insert(0) += delta;
        }
        r.gauge(Some(4), "a.x.recv", -1);
        for (&(node, name), &v) in &model {
            assert_eq!(r.counter(node, name), v, "{node:?} {name}");
        }
        assert_eq!(r.counter(Some(99), NAMES[0]), 0);
        assert_eq!(r.counter(Some(3), "never.touched"), 0);
        for name in NAMES {
            let total: u64 = model
                .iter()
                .filter(|((_, k), _)| *k == name)
                .map(|(_, v)| v)
                .sum();
            assert_eq!(r.counter_total(name), total, "{name}");
        }
        let counters: Vec<(Option<u32>, String, u64)> = r
            .snapshot()
            .entries
            .into_iter()
            .filter_map(|(node, name, v)| match v {
                MetricValue::Counter(c) => Some((node, name, c)),
                _ => None,
            })
            .collect();
        let expected: Vec<(Option<u32>, String, u64)> = model
            .iter()
            .map(|(&(node, name), &v)| (node, name.to_string(), v))
            .collect();
        assert_eq!(counters, expected, "snapshot is sorted by (node, name)");
        // A gauge and a counter of one key keep their relative order.
        let snap = r.snapshot();
        let at = snap
            .entries
            .iter()
            .position(|(n, k, _)| *n == Some(4) && k == "a.x.recv");
        let at = at.expect("both kinds recorded");
        assert!(matches!(snap.entries[at].2, MetricValue::Counter(_)));
        assert!(matches!(snap.entries[at + 1].2, MetricValue::Gauge(-1)));
        r.reset();
        assert!(r.is_empty());
        assert_eq!(r.counter_total(NAMES[0]), 0);
        assert!(r.snapshot().entries.is_empty());
        r.count(Some(7), NAMES[2], 1);
        assert_eq!(r.counter(Some(7), NAMES[2]), 1);
        assert!(!r.is_empty());
    }

    #[test]
    fn snapshot_json_is_parseable() {
        let mut r = MetricsRegistry::new();
        r.count(Some(4), "x.y.z", 1);
        r.observe(None, "a.b.c", 9);
        let j = r.snapshot().to_json();
        let text = j.to_compact();
        let back = crate::json::Json::parse(&text).unwrap();
        assert_eq!(back.as_arr().unwrap().len(), 2);
    }
}
