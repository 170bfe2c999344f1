//! The hybrid BGP-SDN experiment framework: network assembly
//! ([`network`]), cluster deployment strategies ([`deploy`]), experiment
//! lifecycle ([`experiment`]), chaos fault injection ([`faults`]), the one
//! job description and its runner ([`job`]), multi-threaded parameter-sweep
//! campaigns ([`campaign`]), and static pre-flight analysis gates
//! ([`preflight`]).

pub mod campaign;
pub mod deploy;
pub mod experiment;
pub mod faults;
pub mod job;
pub mod network;
pub mod preflight;
pub mod script;
pub mod traffic;
pub mod verify;

pub use campaign::{
    pool_workers, render_job_artifact_into, run_campaign, run_campaign_scratch, run_job_scratch,
    CampaignGrid, CampaignJob, CampaignRunReport, CliqueRunOptions, CliqueScenario, JobOutcome,
    JobResult, JobScratch,
};
pub use deploy::{DeploymentStrategy, Placement};
pub use experiment::Experiment;
pub use faults::{FaultClasses, FaultSpec};
pub use job::{EventKind, JobSpec, ScenarioOutcome, Topology};
pub use network::{
    AsHandle, AsKind, ClusterHandle, Collector, Controller, HybridNetwork, NetworkBuilder, Router,
    Sim, Speaker, Switch, COLLECTOR_ASN,
};
pub use script::{Script, ScriptAction, ScriptReport, StepOutcome};
pub use traffic::ProbeReport;
