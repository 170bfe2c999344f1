//! # bgpsdn-core — the paper's contribution
//!
//! This crate implements the two things the paper builds:
//!
//! 1. **The hybrid BGP-SDN emulation framework** ([`framework`]): assemble a
//!    multi-AS network from a topology plan — legacy Quagga-style BGP
//!    routers, an SDN cluster (switches + cluster BGP speaker), a route
//!    collector — and drive experiments through a high-level lifecycle API
//!    (announce, withdraw, fail links, wait until converged, audit RIBs and
//!    connectivity).
//! 2. **The proof-of-concept IDR SDN controller** ([`controller`]): switch
//!    graph + per-prefix AS topology graph with legacy-crossing loop
//!    avoidance, Dijkstra best paths compiled to flow rules, delayed
//!    recomputation for flap rate-limiting, AS-identity-preserving
//!    announcements, and sub-cluster operation under partitions.
//!
//! See DESIGN.md for the system inventory and EXPERIMENTS.md for the
//! reproduction of the paper's evaluation.

#![warn(missing_docs)]

pub mod controller;
pub mod framework;

pub use controller::as_graph::{
    accept_route, announced_path, compute, compute_into, AnnounceMemo, ComputeScratch,
    ExternalRoute, MemberDecision, PrefixComputation,
};
pub use controller::switch_graph::{IntraLink, SwitchGraph};
pub use controller::{
    ControllerConfig, ControllerStats, IdrController, MemberConfig, SessionConfig,
};
pub use framework::{
    check_plan, job_seed, loss_ppm, render_job_artifact_into, run_campaign, run_campaign_scratch,
    run_job, run_job_scratch, AsHandle, AsKind, CampaignGrid, CampaignJob, CampaignRunReport,
    CliqueRunOptions, CliqueScenario, ClusterHandle, Collector, Controller, DeploymentStrategy,
    EventKind, Experiment, FaultClasses, FaultSpec, HybridNetwork, JobOutcome, JobResult,
    JobScratch, JobSpec, NetworkBuilder, Placement, ProbeReport, Router, ScenarioOutcome, Script,
    ScriptAction, ScriptReport, Sim, Speaker, Switch, Topology, COLLECTOR_ASN,
};
