//! Static control-plane analysis: pre-flight safety, prediction, and
//! validation for BGP-SDN experiments — without simulating.
//!
//! The emulation framework's runtime verifier (the Veriflow-style
//! data-plane checker) catches invariant violations *while* a simulation
//! runs; this crate answers questions *before* anything runs:
//!
//! * **Safety** ([`safety`], [`spp`]) — will the policy configuration
//!   converge at all? Gao–Rexford conformance (provider-hierarchy
//!   acyclicity, with each SDN cluster contracted to one logical node per
//!   the paper's transformation) plus explicit Stable-Paths-Problem
//!   dispute-wheel detection when per-session overrides are in play.
//! * **Prediction** ([`predict`]) — which ASes can hold a route to each
//!   origin (valley-free reachability, partition detection), and how many
//!   path-hunting steps a withdrawal can trigger per cluster size (the
//!   static bound that measured `hunt_step` phases must respect).
//! * **Validation** ([`validate`]) — are the scripted actions (the one
//!   [`ScriptAction`] vocabulary scripts and chaos schedules share) and
//!   timers well-formed: index ranges, links that exist, loss bounds,
//!   graceful-restart vs hold timers, expectations that could never hold.
//!
//! Results are [`Finding`]s in an [`AnalysisReport`] with stable codes,
//! optional witnesses (e.g. the rim of a dispute wheel), deterministic
//! ordering, and byte-deterministic JSON rendering. The `bgpsdn check`
//! CLI, the `NetworkBuilder`/`Experiment` pre-flight gates, and the
//! campaign grid's and job's own pre-flight (in the core crate, which
//! owns their rules) all report through this crate's types.

#![warn(clippy::pedantic)]
#![warn(missing_docs)]
#![allow(clippy::module_name_repetitions)]
// Analyzer entry points return reports the caller inspects; annotating
// every getter with #[must_use] adds noise without catching real bugs, and
// prose docs routinely name ASes/papers that trip the backtick heuristic.
#![allow(clippy::must_use_candidate)]
#![allow(clippy::doc_markdown)]

pub mod finding;
pub mod predict;
pub mod safety;
pub mod spp;
pub mod validate;

pub use finding::{AnalysisReport, Finding, Severity};
pub use predict::{check_reachability, components, hunt_depth_bound, hunt_depth_bound_clusters};
pub use safety::{check_safety, check_safety_clusters, SafetyClustersInput, SafetyInput};
pub use spp::{PathRule, RankedPath, SppCaps, SppInstance, SppOutcome};
pub use validate::{check_actions, check_timing, ActionContext, ScriptAction};
