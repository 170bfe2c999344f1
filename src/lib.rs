//! # bgp-sdn-emu — a hybrid BGP-SDN emulation framework
//!
//! A from-scratch Rust reproduction of *"Evaluating the Effect of
//! Centralization on Routing Convergence on a Hybrid BGP-SDN Emulation
//! Framework"* (Gämperli, Kotronis, Dimitropoulos — SIGCOMM 2014):
//! a deterministic discrete-event framework for multi-AS inter-domain
//! routing experiments that mix legacy BGP routers with an SDN cluster
//! under a centralized IDR controller.
//!
//! The workspace crates, re-exported here:
//!
//! * [`analyze`] — static analysis of both planes, reported as one
//!   `Finding` type: policy safety (dispute wheels, Gao-Rexford
//!   conformance), reachability prediction and path-hunting bounds,
//!   script/plan validation (`bgpsdn check`), and data-plane verification
//!   over frozen snapshots (`bgpsdn verify`), the one forwarding model
//!   behind every connectivity audit;
//! * [`netsim`] — the discrete-event network simulator (Mininet's role);
//! * [`bgp`] — a complete BGP-4 implementation (Quagga's role);
//! * [`sdn`] — OpenFlow-subset switches and the cluster BGP speaker
//!   (Open vSwitch + ExaBGP's roles);
//! * [`topology`] — generators, CAIDA/iPlane dataset support, relationship
//!   policy templates, IP allocation;
//! * [`collector`] — route collector, convergence measurement, log
//!   analysis, visualization;
//! * [`core`] — the paper's contribution: the hybrid experiment framework
//!   and the IDR SDN controller.
//!
//! ## Quickstart
//!
//! ```
//! use bgp_sdn_emu::prelude::*;
//!
//! // A withdrawal on an 8-AS clique, half of it under centralized control.
//! let spec = JobSpec {
//!     timing: TimingConfig::with_mrai(SimDuration::from_secs(5)),
//!     ..JobSpec::clique(8, 4)
//! };
//! let (out, mut exp) = spec.run(|_| {});
//! assert!(out.converged);
//! println!("withdrawal convergence: {}", out.convergence);
//!
//! // Drive the network on. A script is plain data; `Experiment::apply`
//! // runs each of its actions, and runs one action by itself too.
//! let report = exp.run_script(&Script {
//!     steps: vec![
//!         ScriptAction::Announce { as_index: 0, prefix: None },
//!         ScriptAction::WaitConverged { max: SimDuration::from_secs(3600) },
//!     ],
//! });
//! assert!(report.ok(), "{}", report.render());
//! let (connected, _) = exp.apply(&ScriptAction::ExpectFullConnectivity);
//! assert!(connected);
//! ```

pub use bgpsdn_analyze as analyze;
pub use bgpsdn_bgp as bgp;
pub use bgpsdn_collector as collector;
pub use bgpsdn_core as core;
pub use bgpsdn_netsim as netsim;
pub use bgpsdn_obs as obs;
pub use bgpsdn_sdn as sdn;
pub use bgpsdn_topology as topology;

/// The names almost every experiment needs.
pub mod prelude {
    pub use bgpsdn_analyze::{
        check_actions, check_reachability, check_safety, check_safety_clusters, check_timing,
        hunt_depth_bound, hunt_depth_bound_clusters, AnalysisReport, ConnectivityReport, Finding,
        SafetyClustersInput, SafetyInput, Severity, Snapshot, Verifier,
    };
    pub use bgpsdn_bgp::{
        pfx, Asn, BgpRouter, NeighborConfig, PolicyMode, Prefix, Relationship, RouterCommand,
        RouterConfig, TimingConfig,
    };
    pub use bgpsdn_collector::{ConvergenceReport, UpdateLog};
    pub use bgpsdn_core::{
        run_campaign, run_campaign_scratch, run_job_scratch, AsKind, CampaignGrid, CampaignJob,
        CampaignRunReport, ClusterHandle, Controller, DeploymentStrategy, EventKind, Experiment,
        FaultClasses, FaultSpec, HybridNetwork, JobResult, JobScratch, JobSpec, NetworkBuilder,
        Placement, Router, ScenarioOutcome, Script, ScriptAction, Speaker, Switch, Topology,
    };
    pub use bgpsdn_netsim::{
        Activity, DataPacket, LatencyModel, SimDuration, SimRng, SimTime, Simulator, TraceCategory,
        TraceEvent,
    };
    pub use bgpsdn_obs::{
        canonicalize_jsonl, Artifact, ArtifactKind, CausalAnalysis, CausalPhase, Json,
        PhaseBreakdown, RunAnalysis, Summary,
    };
    pub use bgpsdn_sdn::{ClusterMsg, FlowAction, SpeakerCmd, SpeakerEvent};
    pub use bgpsdn_topology::{caida, gen, plan, AsGraph, TopologyPlan};
}
