//! In-memory host-time spans around calls into the simulator's public
//! functions, written out as `spans.jsonl` and `layers.json` at exit.
//!
//! Spans are recorded from the harness, around the calls into each layer;
//! spans inside the program are a later issue. A span's parent is the span
//! that was open when it started, so a layer's **self time** is its span
//! minus its children. One op (a job, a bring-up, a trigger) is one root
//! span named `op`, and every span under it carries the op's number.

use std::collections::BTreeMap;
use std::time::Instant;

use bgpsdn_obs::Json;

/// One closed (or still open) span. Times are host nanoseconds since the
/// log was created.
#[derive(Debug, Clone)]
pub struct Span {
    /// `<layer>.<what>`, e.g. `core.framework.build`.
    pub name: &'static str,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Op number shared by every span of one op.
    pub op: u64,
    /// Start, ns since log creation.
    pub start_ns: u64,
    /// End, ns since log creation (0 while open).
    pub end_ns: u64,
}

impl Span {
    /// Span duration in nanoseconds.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Handle returned by [`SpanLog::enter`]; pass it back to [`SpanLog::exit`].
#[derive(Debug, Clone, Copy)]
pub struct SpanId(Option<usize>);

/// The span recorder. Disabled, it costs one branch per call and never
/// reads the clock — the untraced passes use it that way.
pub struct SpanLog {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    op: u64,
}

impl SpanLog {
    /// A recorder; `enabled == false` makes every call a no-op.
    pub fn new(enabled: bool) -> SpanLog {
        SpanLog {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            op: 0,
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Open a span under the currently open one.
    pub fn enter(&mut self, name: &'static str) -> SpanId {
        if !self.enabled {
            return SpanId(None);
        }
        let id = self.spans.len();
        let span = Span {
            name,
            parent: self.open.last().copied(),
            op: self.op,
            start_ns: self.now_ns(),
            end_ns: 0,
        };
        self.spans.push(span);
        self.open.push(id);
        SpanId(Some(id))
    }

    /// Close a span opened by [`SpanLog::enter`]. Spans close innermost
    /// first.
    pub fn exit(&mut self, id: SpanId) {
        let Some(id) = id.0 else { return };
        let top = self.open.pop();
        assert_eq!(top, Some(id), "spans must close innermost first");
        self.spans[id].end_ns = self.now_ns();
    }

    /// Open the root span of the next op.
    pub fn enter_op(&mut self) -> SpanId {
        self.op += 1;
        self.enter("op")
    }

    /// Time `f` as one span.
    pub fn time<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let id = self.enter(name);
        let out = f();
        self.exit(id);
        out
    }

    /// All recorded spans, in start order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Total duration of every span called `name`, in milliseconds.
    pub fn total_ms(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.dur_ns() as f64 / 1e6)
            .sum()
    }

    /// Durations of every span called `name`, in milliseconds.
    pub fn durations_ms(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.dur_ns() as f64 / 1e6)
            .collect()
    }

    /// Time covered by each span's direct children, indexed like
    /// [`SpanLog::spans`].
    fn child_ns(&self) -> Vec<u64> {
        let mut covered = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                covered[p] += s.dur_ns();
            }
        }
        covered
    }

    /// The share of `op` span time that child spans cover: over all ops
    /// together, and for the worst single op. The first is the acceptance
    /// check that no per-op work goes unattributed; the second is printed,
    /// since one preemption between two spans of a 30 ms op moves it by
    /// itself. Both are 1.0 when there are no ops.
    pub fn op_coverage(&self) -> (f64, f64) {
        let covered = self.child_ns();
        let (mut op_ns, mut child_ns, mut worst) = (0u64, 0u64, 1.0f64);
        for (i, s) in self.spans.iter().enumerate() {
            if s.name == "op" && s.dur_ns() > 0 {
                op_ns += s.dur_ns();
                child_ns += covered[i];
                worst = worst.min(covered[i] as f64 / s.dur_ns() as f64);
            }
        }
        if op_ns == 0 {
            (1.0, 1.0)
        } else {
            (child_ns as f64 / op_ns as f64, worst)
        }
    }

    /// `spans.jsonl`: one `{name, id, parent, start_ns, end_ns, workload,
    /// op}` object per line, after a header line carrying the host stamp.
    pub fn to_jsonl(&self, workload: &str, host: &Json) -> String {
        let mut out = Json::Obj(vec![
            ("type".into(), Json::Str("spans".into())),
            ("workload".into(), Json::Str(workload.into())),
            ("clock".into(), Json::Str("host monotonic ns".into())),
            ("host".into(), host.clone()),
        ])
        .to_compact();
        out.push('\n');
        for (id, s) in self.spans.iter().enumerate() {
            let line = Json::Obj(vec![
                ("name".into(), Json::Str(s.name.into())),
                ("id".into(), Json::U64(id as u64)),
                (
                    "parent".into(),
                    s.parent.map_or(Json::Null, |p| Json::U64(p as u64)),
                ),
                ("start_ns".into(), Json::U64(s.start_ns)),
                ("end_ns".into(), Json::U64(s.end_ns)),
                ("workload".into(), Json::Str(workload.into())),
                ("op".into(), Json::U64(s.op)),
            ]);
            out.push_str(&line.to_compact());
            out.push('\n');
        }
        out
    }

    /// `layers.json`: per span name the call count, total time and self
    /// time (total minus children), plus the metrics of the run.
    pub fn to_layers_json(&self, workload: &str, host: &Json, metrics: &Json) -> String {
        let covered = self.child_ns();
        let mut by_name: BTreeMap<&'static str, (u64, u64, u64)> = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            let e = by_name.entry(s.name).or_default();
            e.0 += 1;
            e.1 += s.dur_ns();
            e.2 += s.dur_ns().saturating_sub(covered[i]);
        }
        let layers = by_name
            .into_iter()
            .map(|(name, (count, total, own))| {
                (
                    name.to_string(),
                    Json::Obj(vec![
                        ("count".into(), Json::U64(count)),
                        ("total_ms".into(), Json::F64(total as f64 / 1e6)),
                        ("self_ms".into(), Json::F64(own as f64 / 1e6)),
                    ]),
                )
            })
            .collect();
        Json::Obj(vec![
            ("workload".into(), Json::Str(workload.into())),
            ("host".into(), host.clone()),
            ("op_coverage".into(), Json::F64(self.op_coverage().0)),
            ("spans".into(), Json::Obj(layers)),
            ("metrics".into(), metrics.clone()),
        ])
        .to_pretty()
    }
}
