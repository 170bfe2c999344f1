//! One Fig. 2 clique job, stage by stage.
//!
//! `run_job_scratch` is what users run and what the timed passes call; it
//! is closed, so nothing can be timed or counted inside it. This module
//! makes the same public calls in the same order — synthesize → plan →
//! pre-flight → build → bring-up → withdrawal → audit → finish → verify →
//! phase totals → artifact — with a span around each, optionally with the
//! harness driving `Simulator::step()`. Every pass checks that its job
//! record is byte-identical to the library's, so the two cannot drift
//! apart silently.

use bgpsdn_bgp::{PolicyMode, TimingConfig};
use bgpsdn_core::{
    render_job_artifact_into, CampaignJob, EventKind, Experiment, JobOutcome, JobResult,
    NetworkBuilder, ScenarioOutcome,
};
use bgpsdn_netsim::TraceCategory;
use bgpsdn_obs::CausalAnalysis;
use bgpsdn_topology::{gen, plan, AsGraph, TopologyPlan};

use super::{add_program_spans, Layers, Sizes, PHASE_DEADLINE};
use crate::kernels;
use crate::spans::SpanLog;
use crate::stepper::{node_kinds, stepped_start, StepProfile};

/// How much telemetry a staged job records.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Telemetry {
    /// Causal lineage only — what an untraced campaign job records.
    Causal,
    /// Every trace category plus in-program wall-clock profiling spans.
    Profiled,
}

/// Events each phase of a job processes; known from an unstepped pass,
/// needed by a stepped one.
#[derive(Debug, Clone, Copy, Default)]
pub struct Budget {
    /// Events from time zero to bring-up quiescence.
    pub bringup: u64,
    /// Events from the withdrawal to re-convergence.
    pub trigger: u64,
}

/// A finished staged job, experiment still alive for harvesting.
pub struct Staged {
    /// What `run_job_scratch` would have returned.
    pub outcome: JobOutcome,
    /// Events per phase.
    pub budget: Budget,
    /// The finished experiment.
    pub exp: Experiment,
}

impl Staged {
    /// The job's campaign record line (wall-clock free, so comparable).
    pub fn record_line(&self, job: &CampaignJob) -> String {
        record_line(job, &self.outcome)
    }
}

/// The campaign record line of an outcome.
pub fn record_line(job: &CampaignJob, outcome: &JobOutcome) -> String {
    JobResult {
        job: job.clone(),
        outcome: Ok(JobOutcome {
            artifact: None,
            ..outcome.clone()
        }),
        wall_ns: 0,
    }
    .record()
    .to_line()
}

/// The 16-AS all-peer clique plan a job runs on.
pub fn clique_plan(job: &CampaignJob, spans: &mut SpanLog) -> TopologyPlan {
    let opts = job.run_options();
    let graph = spans.time("topology.synthesize", || {
        AsGraph::all_peer(&gen::clique(job.n), 65000)
    });
    let mut timing = TimingConfig::with_mrai(job.mrai);
    timing.hold_time_secs = opts.hold_secs;
    timing.graceful_restart_secs = opts.graceful_restart_secs;
    spans.time("topology.plan", || {
        plan(graph, PolicyMode::AllPermit, timing).expect("address plan of the clique")
    })
}

/// After a traced job: fold its in-program wall spans into `layers`, replay
/// the kernels on its converged state when it is the job chosen for that
/// (`harvest`), and drop it under a teardown span.
pub fn finish_traced(
    exp: Experiment,
    harvest: bool,
    sizes: &Sizes,
    layers: &mut Layers,
    spans: &mut SpanLog,
) {
    let h = spans.enter("harness.harvest");
    add_program_spans(&exp, layers);
    if harvest {
        kernels::analyze_spans(&exp.net.plan, &exp.net.clusters[0].members, spans);
        kernels::replay(&exp, sizes, layers);
    }
    spans.exit(h);
    spans.time("core.framework.teardown", || drop(exp));
}

/// Run one withdrawal job stage by stage. With `render`, the job's JSONL
/// artifact is rendered as a traced campaign job would. With `stepped`, the harness
/// drives exactly the budgeted number of `step()` calls per phase and the
/// framework's own waits must then find nothing left to do.
pub fn run_staged(
    job: &CampaignJob,
    telemetry: Telemetry,
    render: bool,
    stepped: Option<(Budget, &mut StepProfile)>,
    spans: &mut SpanLog,
) -> Staged {
    let scenario = job.scenario();
    let opts = job.run_options();
    assert!(
        job.event == EventKind::Withdrawal
            && opts.fault_plan.is_none()
            && opts.default_deployment(),
        "the staged pipeline covers the Fig. 2 withdrawal job only"
    );

    let tp = clique_plan(job, spans);
    let mut builder = NetworkBuilder::new(tp, scenario.seed)
        .with_recompute_delay(scenario.recompute_delay)
        .with_control_loss(scenario.control_loss)
        .with_sdn_members(scenario.members());
    if let Some(model) = &opts.ctl_latency {
        builder = builder.with_ctl_latency(model.clone());
    }
    if opts.verification {
        builder = builder.with_verification();
    }
    let report = spans.time("analyze.preflight", || builder.preflight());
    assert!(
        report.ok(),
        "pre-flight rejected a Fig. 2 job:\n{}",
        report.render()
    );
    let net = spans.time("core.framework.build", || builder.build());
    let mut exp = Experiment::new(net);
    match telemetry {
        Telemetry::Causal => exp.net.sim.trace_mut().enable(TraceCategory::Causal),
        Telemetry::Profiled => {
            exp.net.sim.trace_mut().enable_all();
            exp.net.sim.set_profiling(true);
        }
    }
    let kinds = node_kinds(&exp.net);
    let (budget_in, mut steps) = match stepped {
        Some((b, s)) => (b, Some(s)),
        None => (Budget::default(), None),
    };

    // Bring-up.
    let s = spans.enter("core.framework.bringup");
    let up = match steps.as_deref_mut() {
        None => exp.start(PHASE_DEADLINE),
        Some(steps) => stepped_start(&mut exp, budget_in.bringup, steps, &kinds, spans),
    };
    spans.exit(s);
    assert!(up.converged, "clique bring-up did not converge");
    let bringup = exp.net.sim.stats().events_processed;

    // The routing event and its convergence.
    let origin_prefix = exp.net.ases[0].prefix;
    let s = spans.enter("core.framework.trigger");
    exp.mark_named("withdrawal");
    exp.withdraw(0, None);
    if let Some(steps) = steps.as_deref_mut() {
        steps.drive(&mut exp.net.sim, budget_in.trigger, &kinds, spans);
    }
    let settled = exp.wait_converged(PHASE_DEADLINE);
    spans.exit(s);
    let budget = Budget {
        bringup,
        trigger: exp.net.sim.stats().events_processed - bringup,
    };
    if steps.is_some() {
        assert_eq!(
            budget.trigger, budget_in.trigger,
            "stepped withdrawal processed a different number of events"
        );
    }

    let audit_ok = spans.time("core.framework.audit", || {
        exp.prefix_fully_gone(origin_prefix)
    });
    let outcome = ScenarioOutcome {
        converged: settled.converged,
        convergence: settled.duration,
        collector_convergence: exp.collector_convergence(),
        updates: exp.updates_sent(),
        flow_mods: exp.flows_installed(),
        audit_ok,
    };
    spans.time("core.framework.finish", || {
        exp.finish();
    });
    let verify_violations = if job.verify {
        let violations = spans.time("verify.verify", || exp.verify_now().violations.len());
        exp.finish();
        violations as u64
    } else {
        0
    };

    let phase_start = exp.phase_start();
    let phases = spans.time("obs.causal.phases", || {
        CausalAnalysis::from_events(
            exp.net
                .sim
                .trace()
                .records()
                .filter(|r| r.time >= phase_start)
                .map(|r| (r.time.as_nanos(), r.node.map(|n| n.0), &r.event)),
        )
        .phase_totals()
    });
    let artifact = render.then(|| {
        spans.time("obs.artifact.render", || {
            let mut text = String::new();
            render_job_artifact_into(job, &exp, &mut text);
            text
        })
    });

    Staged {
        outcome: JobOutcome {
            outcome,
            verify_violations,
            phases,
            artifact,
        },
        budget,
        exp,
    }
}
