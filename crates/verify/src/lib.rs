//! Static data-plane verification for the hybrid BGP-SDN emulator.
//!
//! This crate analyzes a *frozen* [`Snapshot`] of the network — every
//! switch's compiled flow table and port map, every legacy router's FIB,
//! the speaker's per-session adj-out, and the controller's intended flow
//! and announcement state — and checks four invariants without simulating
//! a single packet (the Veriflow approach):
//!
//! 1. **Loop-freedom** — per destination prefix, the global forwarding
//!    graph is a DAG rooted at the prefix origin, including paths that
//!    cross the legacy ↔ cluster boundary more than once.
//! 2. **Blackhole detection** — every node holding a route for a prefix
//!    reaches the origin or an explicit drop rule, never a dead end
//!    (down link, routeless next hop, unknown output port, or a punt to
//!    the controller).
//! 3. **Intent consistency** — installed flow rules and advertised
//!    adj-out routes byte-match the controller's last computed state.
//!    When the control plane is headless or resyncing, mismatches are
//!    reported as *stale-but-consistent* notes, not violations.
//! 4. **Valley-free conformance** — under Gao-Rexford policy templates,
//!    advertised and selected AS paths respect customer-provider/peer
//!    export rules. (Skipped under all-permit policies, where any
//!    multi-hop peer path would trivially "violate" the property.)
//!
//! The same per-prefix successor function answers "does traffic from X
//! reach Y": [`Verifier::connectivity`] classifies every node's chain
//! toward a queried address and returns a [`ConnectivityReport`]. It is
//! the framework's one forwarding model; every connectivity and
//! forwarding audit is a query on it.
//!
//! The [`Verifier`] keeps preallocated scratch (per-node lookup indexes,
//! walk coloring, outcome memoization) so repeated passes allocate
//! almost nothing and a 256-prefix scale scenario verifies in
//! milliseconds.

#![warn(clippy::pedantic)]
#![warn(missing_docs)]
#![allow(clippy::module_name_repetitions)]

mod snapshot;
mod verifier;

pub use snapshot::{
    ControlHealth, Device, EdgeRel, LegacyRoute, NextHop, NodeState, PolicyKind, PortState,
    RelKind, RuleAction, SessionSnap, Snapshot, SwitchRule,
};
pub use verifier::{ConnectivityReport, Report, StaleNote, Verifier, Violation, ViolationKind};
