//! # bgpsdn-collector — monitoring, measurement and analysis
//!
//! The framework's measurement plane, mirroring the paper's tooling:
//!
//! * [`collector`]: the passive BGP route collector every router peers with;
//! * [`logview`]: the update log and its analysis (convergence instants,
//!   path-exploration counts, timelines);
//! * [`convergence`]: the one convergence detector, [`measure`], which
//!   reads the last routing change after an event off the activity board;
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
pub use convergence::{measure, ConvergenceReport};
pub use logview::{LogAction, LogEntry, UpdateLog};
pub use viz::{render_dot, VizNode, VizRole};
