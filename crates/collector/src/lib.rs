//! # bgpsdn-collector — monitoring, measurement and analysis
//!
//! The framework's measurement plane, mirroring the paper's tooling:
//!
//! * [`collector`]: the passive BGP route collector every router peers with;
//! * [`logview`]: the update log and its analysis (convergence instants,
//!   path-exploration counts, per-router update counts, timelines);
//! * [`convergence`]: "wait until BGP has converged" — exact
//!   quiescence-based measurement and an emulation-style stability window;
//! * [`viz`]: Graphviz export with best-path highlighting.
//!
//! Whether traffic gets through is not measured here: every connectivity
//! audit is a query on the static verifier's forwarding model
//! (`bgpsdn-verify`), over a snapshot of the installed FIBs and flow
//! tables.

#![warn(missing_docs)]

pub mod collector;
pub mod convergence;
pub mod logview;
pub mod viz;

pub use collector::{CollectorStats, RouteCollector};
pub use convergence::{measure, measure_trace, ConvergenceReport, StabilityProbe};
pub use logview::{LogAction, LogEntry, UpdateLog};
pub use viz::{render_dot, VizNode, VizRole};
