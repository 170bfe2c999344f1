//! Static analysis for BGP-SDN experiments — without simulating. One
//! crate checks both planes, and every check reports through one
//! [`Finding`] type in one [`AnalysisReport`].
//!
//! Before anything runs, the control-plane passes answer:
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
//! While and after a simulation runs, the data-plane [`Verifier`] checks a
//! *frozen* [`Snapshot`] — every switch's flow table and port map, every
//! legacy router's FIB, the speaker's per-session adj-out, and the
//! controller's intended flow and announcement state — for four
//! invariants without simulating a single packet (the Veriflow approach):
//!
//! 1. **`loop`** — per destination prefix, the global forwarding graph is
//!    a DAG rooted at the prefix origin, including paths that cross the
//!    legacy ↔ cluster boundary more than once.
//! 2. **`blackhole`** — every node holding a route for a prefix reaches
//!    the origin or an explicit drop rule, never a dead end (down link,
//!    routeless next hop, unknown output port, or a punt to the
//!    controller).
//! 3. **`intent_drift`** — installed flow rules and advertised adj-out
//!    routes byte-match the controller's last computed state. When the
//!    control plane is headless or resyncing, mismatches are
//!    *stale-but-consistent* warnings, not errors.
//! 4. **`valley`** — under Gao-Rexford policy templates, advertised and
//!    selected AS paths respect customer-provider/peer export rules.
//!    (Skipped under all-permit policies, where any multi-hop peer path
//!    would trivially "violate" the property.)
//!
//! The same per-prefix successor function answers "does traffic from X
//! reach Y": [`Verifier::connectivity`] classifies every node's chain
//! toward a queried address and returns a [`ConnectivityReport`] (a query
//! result, not a report of findings). It is the framework's one
//! forwarding model; every connectivity and forwarding audit is a query
//! on it. The verifier keeps preallocated scratch, so repeated passes
//! allocate almost nothing.
//!
//! Findings carry a stable code, a severity, an optional witness and, for
//! the data plane, the offending device or session and the prefix. They
//! render through one `Display` impl (`bgpsdn check` and `bgpsdn verify`
//! both print it) and to byte-deterministic JSON. The `NetworkBuilder`/
//! `Experiment` pre-flight gates and the campaign grid's and job's own
//! pre-flight (in the core crate, which owns their rules) report through
//! the same types.

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
mod snapshot;
pub mod spp;
pub mod validate;
mod verifier;

pub use finding::{AnalysisReport, Finding, Severity};
pub use predict::{check_reachability, components, hunt_depth_bound, hunt_depth_bound_clusters};
pub use safety::{check_safety, check_safety_clusters, SafetyClustersInput, SafetyInput};
pub use snapshot::{
    ControlHealth, Device, LegacyRoute, NextHop, NodeState, PortState, SessionSnap, Snapshot,
    SwitchRule,
};
pub use spp::{PathRule, RankedPath, SppCaps, SppInstance, SppOutcome};
pub use validate::{check_actions, check_timing, ActionContext, ScriptAction};
pub use verifier::{ConnectivityReport, Verifier};
