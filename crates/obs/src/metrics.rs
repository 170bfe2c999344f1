//! Metrics: counters, gauges, and log-scale histograms keyed by
//! `(node, metric)`.
//!
//! Metric names follow `<crate>.<subsystem>.<name>` (e.g.
//! `bgp.decision.select_wall_ns`). Counters are typed ids, [`Counter`],
//! named once in its table; gauges and histograms are `&'static str`, so
//! the hot recording path never allocates. Snapshots convert to owned
//! strings for export.

use std::collections::BTreeMap;
use std::fmt;

use crate::json::{Json, ToJson};

/// A metric key: the node it is attributed to (None = whole-simulation) and
/// its dotted name.
pub type MetricKey = (Option<u32>, &'static str);

/// Every counter, stated once: its id, its name and, where the name needs
/// one, a note. Generates [`Counter`], each variant documented by its name,
/// and the two name tables, exported counters first.
macro_rules! counter_table {
    (
        exported { $( $(#[doc = $edoc:literal])* $eid:ident = $ename:literal, )* }
        row_only { $( $(#[doc = $rdoc:literal])* $rid:ident = $rname:literal, )* }
    ) => {
        /// One counted fact. Nodes count through `Ctx::count` into their
        /// own cumulative row and the simulator through `Simulator::count`
        /// into its own; only the ids of [`Counter::EXPORTED`] also reach
        /// the per-phase [`MetricsRegistry`], and so artifacts.
        #[derive(Debug, Clone, Copy, PartialEq, Eq)]
        pub enum Counter {
            $( #[doc = concat!("`", $ename, "`")] $(#[doc = $edoc])* $eid, )*
            $( #[doc = concat!("`", $rname, "`")] $(#[doc = $rdoc])* $rid, )*
        }

        impl Counter {
            /// The counters that reach the per-phase registry, and so run
            /// and campaign artifacts, in declaration order.
            pub const EXPORTED: &'static [(Counter, &'static str)] =
                &[$((Counter::$eid, $ename)),*];
            /// The counters only the counting node's (or the simulator's)
            /// own row keeps, in declaration order after the exported ones.
            pub const ROW_ONLY: &'static [(Counter, &'static str)] =
                &[$((Counter::$rid, $rname)),*];
        }
    };
}

counter_table! {
    exported {
        UpdatesSent = "bgp.router.updates_sent",
        SessionsEstablished = "bgp.router.sessions_established",
        /// Sessions established again after having been down.
        SessionsReestablished = "bgp.router.sessions_reestablished",
        /// Candidates excluded from the decision by route-flap damping.
        DampedSuppressed = "bgp.router.damped_suppressed",
        BestPathChanges = "bgp.router.best_path_changes",
        /// Malformed UPDATEs downgraded to withdrawals per RFC 7606.
        TreatAsWithdraw = "bgp.router.treat_as_withdraw",
        SessionsDropped = "bgp.router.sessions_dropped",
        /// Routes retained as stale under RFC 4724 graceful restart.
        StaleRetained = "bgp.router.stale_retained",
        /// Full-state resyncs a controller adopted from its speaker.
        CtrlResyncs = "core.ctrl.resyncs",
        /// Retransmit rounds of either end of a control channel.
        CtrlRetransmits = "core.ctrl.retransmits",
        Recomputes = "core.controller.recomputes",
        PrefixesRecomputed = "core.controller.prefixes_recomputed",
        PrefixesCached = "core.controller.prefixes_cached",
        HeadlessEntered = "core.speaker.headless_entered",
        SpeakerUpdatesIn = "sdn.speaker.updates_in",
        SpeakerUpdatesOut = "sdn.speaker.updates_out",
        SpeakerEventsDropped = "sdn.speaker.events_dropped",
        /// FlowMods a switch applied.
        FlowModsApplied = "sdn.flowtable.flow_mods",
        /// Event-queue slots recycled, flushed at phase boundaries.
        EventsPooled = "core.sim.events_pooled",
        /// Event-slab growths, flushed at phase boundaries.
        AllocsHot = "core.sim.allocs_hot",
        VerifyChecks = "verify.checks",
        VerifyViolations = "verify.violations",
        VerifyPrefixesChecked = "verify.prefixes_checked",
    }
    row_only {
        EventsProcessed = "netsim.sim.events_processed",
        MsgsDelivered = "netsim.sim.msgs_delivered",
        /// Messages dropped because the link was down at send or delivery time.
        MsgsDroppedLinkDown = "netsim.sim.msgs_dropped_link_down",
        MsgsDroppedLoss = "netsim.sim.msgs_dropped_loss",
        MsgsDroppedNodeDown = "netsim.sim.msgs_dropped_node_down",
        TimersFired = "netsim.sim.timers_fired",
        /// Timer firings suppressed because the timer was cancelled or re-armed.
        TimersStale = "netsim.sim.timers_stale",
        BytesDelivered = "netsim.sim.bytes_delivered",
        /// Data packets a router or a switch forwarded.
        DataForwarded = "netsim.data.forwarded",
        /// Data packets a router or a switch delivered locally.
        DataDelivered = "netsim.data.delivered",
        EchoReplies = "netsim.data.echo_replies",
        /// UPDATEs a router received, before its processing delay.
        UpdatesReceived = "bgp.router.updates_received",
        LoopRejected = "bgp.router.loop_rejected",
        NotificationsSent = "bgp.router.notifications_sent",
        DecodeErrors = "bgp.router.decode_errors",
        NoRoute = "bgp.router.data_no_route",
        MaxPrefixTeardowns = "bgp.router.max_prefix_teardowns",
        /// FlowMods a controller emitted.
        FlowModsSent = "core.controller.flow_mods",
        Announcements = "core.controller.announcements",
        Withdrawals = "core.controller.withdrawals",
        /// External routes whose path crosses the cluster (stored regardless).
        RoutesRejectedLoop = "core.controller.routes_rejected_loop",
        /// Full-state resyncs a speaker initiated.
        SpeakerResyncs = "sdn.speaker.resyncs",
        DupSuppressed = "sdn.speaker.dup_suppressed",
        Relayed = "sdn.switch.relayed",
    }
}

impl Counter {
    /// How many counters there are: the length of a counter row.
    pub const COUNT: usize = Self::EXPORTED.len() + Self::ROW_ONLY.len();

    fn exported(self) -> bool {
        (self as usize) < Self::EXPORTED.len()
    }
}

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
    /// Fold `later`, counted after this snapshot was taken, into it:
    /// counters add, histograms merge, a gauge takes the later value.
    pub fn absorb(&mut self, later: MetricsSnapshot) {
        for (node, name, value) in later.entries {
            let key = (node, name.as_str());
            match self
                .entries
                .binary_search_by(|(n, k, _)| (*n, k.as_str()).cmp(&key))
            {
                Ok(at) => match (&mut self.entries[at].2, value) {
                    (MetricValue::Counter(a), MetricValue::Counter(b)) => *a += b,
                    (MetricValue::Histogram(a), MetricValue::Histogram(b)) => a.merge(&b),
                    (slot, value) => *slot = value,
                },
                Err(at) => self.entries.insert(at, (node, name, value)),
            }
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

/// One node's exported counters for the open phase, indexed by
/// [`Counter`]: `None` until counted, so a snapshot lists exactly the
/// touched ones, zero deltas included.
type CounterRow = [Option<u64>; Counter::EXPORTED.len()];

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
    /// Add `delta` to counter `id`, if it is exported; a row-only counter
    /// leaves the registry untouched.
    #[inline]
    pub fn count(&mut self, node: Option<u32>, id: Counter, delta: u64) {
        if !id.exported() {
            return;
        }
        let at = match self.counters.binary_search_by_key(&node, |(n, _)| *n) {
            Ok(at) => at,
            Err(at) => {
                self.counters.insert(at, (node, CounterRow::default()));
                at
            }
        };
        *self.counters[at].1[id as usize].get_or_insert(0) += delta;
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

    /// Sum a counter, by name, across all nodes.
    pub fn counter_total(&self, name: &str) -> u64 {
        let Some(i) = Counter::EXPORTED.iter().position(|(_, n)| *n == name) else {
            return 0;
        };
        self.counters.iter().filter_map(|(_, row)| row[i]).sum()
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

    /// Owned point-in-time copy, sorted by (node, name).
    pub fn snapshot(&self) -> MetricsSnapshot {
        let mut entries: Vec<(Option<u32>, String, MetricValue)> = Vec::new();
        for (node, row) in &self.counters {
            for ((_, name), value) in Counter::EXPORTED.iter().zip(row) {
                if let Some(v) = value {
                    entries.push((*node, (*name).to_string(), MetricValue::Counter(*v)));
                }
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

    /// Counter `name` of `node` in `snap`, 0 when absent.
    fn counter(snap: &MetricsSnapshot, node: Option<u32>, name: &str) -> u64 {
        snap.entries
            .iter()
            .find_map(|(n, k, v)| match v {
                MetricValue::Counter(c) if *n == node && k == name => Some(*c),
                _ => None,
            })
            .unwrap_or(0)
    }

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
        let mut r = MetricsRegistry::default();
        r.count(Some(1), Counter::UpdatesSent, 2);
        r.count(Some(2), Counter::UpdatesSent, 3);
        r.count(None, Counter::VerifyChecks, 10);
        r.gauge(None, "core.controller.members", 8);
        r.observe(Some(1), "bgp.decision.select_wall_ns", 1500);
        assert_eq!(r.counter_total("bgp.router.updates_sent"), 5);
        assert_eq!(r.gauges.get(&(None, "core.controller.members")), Some(&8));
        assert_eq!(r.histogram_merged("bgp.decision.select_wall_ns").count(), 1);
        let snap = r.snapshot();
        assert_eq!(counter(&snap, Some(1), "bgp.router.updates_sent"), 2);
        assert_eq!(counter(&snap, Some(2), "bgp.router.updates_sent"), 3);
        let hist = snap.entries.iter().find_map(|(n, k, v)| match v {
            MetricValue::Histogram(h) if *n == Some(1) && k == "bgp.decision.select_wall_ns" => {
                Some(h.count())
            }
            _ => None,
        });
        assert_eq!(hist, Some(1), "the histogram is keyed by its node");
        assert_eq!(snap.entries.len(), 5);
        r = MetricsRegistry::default();
        assert!(r.is_empty());
    }

    /// Counters live in per-node rows indexed by id, not in a map: touched
    /// in any node and id order, zero deltas included, they must read back
    /// exactly like a `(node, name)`-keyed map.
    #[test]
    fn counters_touched_in_any_order_match_a_map_model() {
        let ids = Counter::EXPORTED;
        let mut r = MetricsRegistry::default();
        let mut model: BTreeMap<(Option<u32>, &str), u64> = BTreeMap::new();
        let mut state = 0x2545_f491_4f6c_dd1du64;
        for _ in 0..500u64 {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let node = match (state >> 33) % 8 {
                0 => None,
                n => Some((n as u32 * 37) % 11),
            };
            let (id, name) = ids[((state >> 40) % 6) as usize * 4];
            let delta = (state >> 50) % 5;
            r.count(node, id, delta);
            *model.entry((node, name)).or_insert(0) += delta;
        }
        r.gauge(Some(4), "bgp.router.updates_sent", -1);
        r.count(Some(4), Counter::UpdatesSent, 0);
        model
            .entry((Some(4), "bgp.router.updates_sent"))
            .or_insert(0);
        let snap = r.snapshot();
        for (&(node, name), &v) in &model {
            assert_eq!(counter(&snap, node, name), v, "{node:?} {name}");
        }
        assert_eq!(counter(&snap, Some(99), ids[0].1), 0);
        assert_eq!(r.counter_total("never.touched"), 0);
        for &(_, name) in ids {
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
            .position(|(n, k, _)| *n == Some(4) && k == "bgp.router.updates_sent");
        let at = at.expect("both kinds recorded");
        assert!(matches!(snap.entries[at].2, MetricValue::Counter(_)));
        assert!(matches!(snap.entries[at + 1].2, MetricValue::Gauge(-1)));
        r = MetricsRegistry::default();
        assert!(r.is_empty());
        assert_eq!(r.counter_total(ids[0].1), 0);
        assert!(r.snapshot().entries.is_empty());
        r.count(Some(7), ids[8].0, 1);
        assert_eq!(counter(&r.snapshot(), Some(7), ids[8].1), 1);
        // A row-only counter never reaches the registry.
        r.count(Some(7), Counter::EventsProcessed, 1);
        assert_eq!(r.snapshot().entries.len(), 1);
        assert!(!r.is_empty());
    }

    /// The counter table: unique, well-formed names, ids in declaration
    /// order, and the exported set pinned, since artifacts carry it.
    #[test]
    fn counter_table_names_are_unique_and_well_formed() {
        const CRATES: [&str; 7] = ["netsim", "bgp", "sdn", "core", "collector", "obs", "verify"];
        let all: Vec<(Counter, &str)> = Counter::EXPORTED
            .iter()
            .chain(Counter::ROW_ONLY)
            .copied()
            .collect();
        assert_eq!(all.len(), Counter::COUNT);
        let mut seen = std::collections::BTreeSet::new();
        for (i, &(id, name)) in all.iter().enumerate() {
            assert_eq!(id as usize, i, "{name} is out of declaration order");
            assert_eq!(id.exported(), i < Counter::EXPORTED.len());
            assert!(seen.insert(name), "{name} is named twice");
            let parts: Vec<&str> = name.split('.').collect();
            // `<crate>.<subsystem>.<name>`; the verifier's names have no
            // subsystem.
            let want = if parts[0] == "verify" { 2 } else { 3 };
            assert!(
                CRATES.contains(&parts[0]) && parts.len() == want,
                "{name} is not <crate>.<subsystem>.<name>"
            );
            for part in parts {
                assert!(
                    part.starts_with(|c: char| c.is_ascii_lowercase())
                        && part
                            .chars()
                            .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '_'),
                    "{name}: segment {part:?}"
                );
            }
        }
        let exported: Vec<&str> = Counter::EXPORTED.iter().map(|&(_, name)| name).collect();
        assert_eq!(
            exported,
            [
                "bgp.router.updates_sent",
                "bgp.router.sessions_established",
                "bgp.router.sessions_reestablished",
                "bgp.router.damped_suppressed",
                "bgp.router.best_path_changes",
                "bgp.router.treat_as_withdraw",
                "bgp.router.sessions_dropped",
                "bgp.router.stale_retained",
                "core.ctrl.resyncs",
                "core.ctrl.retransmits",
                "core.controller.recomputes",
                "core.controller.prefixes_recomputed",
                "core.controller.prefixes_cached",
                "core.speaker.headless_entered",
                "sdn.speaker.updates_in",
                "sdn.speaker.updates_out",
                "sdn.speaker.events_dropped",
                "sdn.flowtable.flow_mods",
                "core.sim.events_pooled",
                "core.sim.allocs_hot",
                "verify.checks",
                "verify.violations",
                "verify.prefixes_checked",
            ],
            "a new name in artifacts is a deliberate change to this list"
        );
    }

    #[test]
    fn snapshot_json_is_parseable() {
        let mut r = MetricsRegistry::default();
        r.count(Some(4), Counter::SessionsDropped, 1);
        r.observe(None, "a.b.c", 9);
        let j = r.snapshot().to_json();
        let text = j.to_compact();
        let back = crate::json::Json::parse(&text).unwrap();
        assert_eq!(back.as_arr().unwrap().len(), 2);
    }
}
