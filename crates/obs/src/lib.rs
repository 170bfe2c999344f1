//! # bgpsdn-obs — structured telemetry
//!
//! The observability foundation every other crate records into:
//!
//! * [`event`]: the typed [`TraceEvent`] enum — update send/deliver, RIB
//!   changes with old/new best path, flow install/remove, session
//!   transitions, controller recomputes, experiment phase markers — its
//!   wire form, stated once per variant, and the [`TraceCategory`] filter
//!   taxonomy;
//! * [`metrics`]: [`MetricsRegistry`] — counters, gauges, and log2-bucket
//!   histograms keyed by `(node, metric)`, with snapshot/export;
//! * [`span`]: wall-clock timing spans that cost one branch when disabled;
//! * [`json`]: the dependency-free JSON value type, and the streaming
//!   writer and pull reader event lines go through without building one;
//! * [`artifact`]: JSONL run artifacts and the analysis behind
//!   `bgpsdn report` (per-node update counts, recompute latency
//!   histograms, convergence timelines);
//! * [`campaign`]: merged campaign artifacts for parameter sweeps —
//!   per-job summary records, per-grid-cell min/median/p90/max
//!   aggregation, and the grid-cell tables `bgpsdn report` renders;
//! * [`causal`]: trigger-lineage forensics — reconstructs per-trigger
//!   causal DAGs from [`TraceEvent::Causal`] records, extracts critical
//!   paths, and decomposes convergence time into the phase taxonomy
//!   behind `bgpsdn explain`.
//!
//! Metric names follow `<crate>.<subsystem>.<name>`; see DESIGN.md's
//! "Observability" section for the full convention and JSONL schema.
//!
//! This crate sits below `netsim` and has no dependencies, so events use
//! plain representations (`u32` node ids, [`ObsPrefix`] prefixes).

#![warn(missing_docs)]

pub mod artifact;
pub mod campaign;
pub mod causal;
pub mod event;
pub mod json;
pub mod jsonl;
pub mod metrics;
pub mod span;

pub use artifact::{
    event_line, last_routing_change, metrics_line, run_line, write_event_line, EventRecord,
    PhaseSummary, RunAnalysis, RunArtifact, EVENT_LINE_BYTES,
};
pub use campaign::{
    aggregate_cells, canonicalize_jsonl, AggStats, CampaignArtifact, CellStats, JobRecord,
};
pub use causal::{
    CausalAnalysis, CausalNode, Cause, CriticalPath, HuntChain, PathStep, PhaseBreakdown,
    TriggerForensics,
};
pub use event::{
    CausalPhase, FlowActionRepr, ObsPrefix, RecomputeTrigger, TraceCategory, TraceEvent,
};
pub use json::{Json, JsonError, ToJson};
pub use metrics::{quantile, Histogram, MetricKey, MetricValue, MetricsRegistry, MetricsSnapshot};
pub use span::WallSpan;
