//! The hybrid BGP-SDN experiment framework: network assembly
//! ([`network`]), cluster deployment strategies ([`deploy`]), experiment
//! lifecycle ([`experiment`]), chaos fault injection ([`faults`]), canned
//! evaluation scenarios ([`scenarios`]), multi-threaded parameter-sweep
//! campaigns ([`campaign`]), and static pre-flight analysis gates
//! ([`preflight`]).

pub mod campaign;
pub mod deploy;
pub mod experiment;
pub mod faults;
pub mod network;
pub mod preflight;
pub mod scenarios;
pub mod script;
pub mod traffic;
pub mod verify;

pub use campaign::{
    fold_deployment_seed, job_seed, loss_ppm, render_job_artifact_into, run_campaign,
    run_campaign_scratch, run_job, run_job_scratch, CampaignGrid, CampaignJob, CampaignRunReport,
    JobOutcome, JobResult, JobScratch,
};
pub use deploy::{validate_clusters, DeploymentStrategy};
pub use experiment::Experiment;
pub use faults::{FaultClasses, FaultSpec};
pub use network::{
    AsHandle, AsKind, ClusterHandle, Collector, Controller, HybridNetwork, NetworkBuilder, Router,
    Sim, Speaker, Switch, COLLECTOR_ASN,
};
pub use preflight::check_plan;
pub use scenarios::{
    event_phase_name, run_clique, run_clique_traced, run_clique_with, run_scale_instrumented,
    CliqueRunOptions, CliqueScenario, EventKind, ScaleOutcome, ScaleScenario, ScenarioOutcome,
    SCALE_UPDATE_PHASE,
};
pub use script::{Script, ScriptAction, ScriptReport, StepOutcome};
pub use traffic::ProbeReport;
pub use verify::capture_snapshot;
