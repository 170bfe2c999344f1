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
//! * [`stats`]: [`Summary`], the order statistics (type-7 quantiles) behind
//!   every bench boxplot row and campaign cell;
//! * [`json`]: the dependency-free JSON value type, and the streaming
//!   writer and pull reader event lines go through without building one;
//! * [`artifact`]: the one JSONL artifact reader, [`Artifact`], for run
//!   and campaign artifacts alike, its typed-line writer, and the analysis
//!   behind `bgpsdn report` (per-node update counts, recompute latency
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
pub mod stats;

pub use artifact::{
    event_line, metrics_line, write_event_line, write_typed_line, Artifact, ArtifactKind,
    CampaignArtifact, EventRecord, PhaseConvergence, PhaseMetrics, PhaseSummary, RunAnalysis,
    RunArtifact, EVENT_LINE_BYTES,
};
pub use campaign::{canonicalize_jsonl, CellStats, JobRecord};
pub use causal::{
    CausalAnalysis, CausalNode, Cause, CriticalPath, HuntChain, PathStep, PhaseBreakdown,
    TriggerForensics,
};
pub use event::{
    CausalPhase, FlowActionRepr, ObsPrefix, RecomputeTrigger, TraceCategory, TraceEvent,
};
pub use json::{Json, JsonError, ToJson};
pub use metrics::{Counter, Histogram, MetricKey, MetricValue, MetricsRegistry, MetricsSnapshot};
pub use span::WallSpan;
pub use stats::Summary;
