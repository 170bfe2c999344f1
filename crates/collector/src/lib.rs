//! # bgpsdn-collector — monitoring, measurement and analysis
//!
//! The framework's measurement plane, mirroring the paper's tooling:
//!
//! * [`collector`]: the passive BGP route collector every router peers with;
//! * [`logview`]: the update log, a count and the last instant (the
//!   collector view of convergence);
//! * [`convergence`]: the one convergence detector, [`measure`], which
//!   reads the last routing change after an event off the activity board;
//! * [`viz`]: Graphviz export with best-path highlighting.
//!
//! Whether traffic gets through is not measured here: every connectivity
//! audit is a query on the static verifier's forwarding model
//! (`bgpsdn-analyze`), over a snapshot of the installed FIBs and flow
//! tables.

#![warn(missing_docs)]

pub mod collector;
pub mod convergence;
pub mod logview;
pub mod viz;

pub use collector::RouteCollector;
pub use convergence::{measure, ConvergenceReport};
pub use logview::UpdateLog;
pub use viz::{render_dot, VizNode, VizRole};
