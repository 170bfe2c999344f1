//! End-to-end tests of the static data-plane verifier against live
//! simulations: converged networks must verify clean, and deliberately
//! corrupted state (flow mutations, dropped rules, stale headless tables)
//! must produce exactly the expected violations with usable witnesses.

use bgpsdn_analyze::{AnalysisReport, Finding, Severity};
use bgpsdn_bgp::{PolicyMode, Prefix, TimingConfig};
use bgpsdn_core::{
    DeploymentStrategy, Experiment, JobSpec, NetworkBuilder, Placement, ScriptAction, Switch,
    Topology,
};
use bgpsdn_netsim::{Counter, NodeId, SimDuration};
use bgpsdn_sdn::{ClusterMsg, FlowAction, FlowModOp, FlowRule, OfEnvelope, OfMessage, SdnApp};
use bgpsdn_topology::caida::SynthesisParams;
use bgpsdn_topology::{gen, plan, AsGraph, TopologyPlan};

const HOUR: SimDuration = SimDuration::from_secs(3600);

/// The violations one check found: its error findings.
fn errors<'a>(report: &'a AnalysisReport, code: &str) -> Vec<&'a Finding> {
    report
        .findings
        .iter()
        .filter(|f| f.severity == Severity::Error && f.code == code)
        .collect()
}

/// Change a member's flow table out from under the controller's intent, as
/// a stray FlowMod on its control channel would.
fn flow_mod(exp: &mut Experiment, node: NodeId, op: FlowModOp, rule: FlowRule) {
    let env = OfEnvelope::new(&OfMessage::FlowMod { op, rule });
    exp.net.sim.inject(node, ClusterMsg::from_of(env));
    exp.net.sim.run_for(SimDuration::from_millis(1));
}

/// A member's installed rule for `prefix`.
fn rule_for(exp: &Experiment, node: NodeId, prefix: Prefix) -> FlowRule {
    exp.net
        .sim
        .node_ref::<Switch>(node)
        .table()
        .iter()
        .find(|r| r.prefix == prefix)
        .cloned()
        .expect("converged member has a rule for every prefix")
}

fn clique_plan(n: usize) -> TopologyPlan {
    plan(
        AsGraph::all_peer(&gen::clique(n), 65000),
        PolicyMode::AllPermit,
        TimingConfig::with_mrai(SimDuration::ZERO),
    )
    .unwrap()
}

fn converged_clique(n: usize, members: std::ops::Range<usize>, seed: u64) -> Experiment {
    let net = NetworkBuilder::new(clique_plan(n), seed)
        .with_sdn_members(members.collect::<Vec<_>>())
        .build();
    let mut exp = Experiment::new(net);
    assert!(exp.start(HOUR).converged, "bring-up did not converge");
    exp
}

#[test]
fn converged_clique_verifies_clean() {
    let mut exp = converged_clique(8, 4..8, 21);
    let report = exp.verify_now().report;
    assert!(
        report.ok(),
        "violations on a converged clique:\n{}",
        report.render()
    );
    let prefixes_checked = exp.net.sim.counter(None, Counter::VerifyPrefixesChecked);
    assert!(prefixes_checked >= 8, "{}", report.render());
    assert!(
        report
            .findings
            .iter()
            .all(|f| f.severity == Severity::Error),
        "stale notes while synced: {}",
        report.render()
    );
    assert_eq!(exp.net.sim.counter(None, Counter::VerifyViolations), 0);
    assert!(exp.net.sim.counter(None, Counter::VerifyChecks) > 0);
}

#[test]
fn auto_verify_runs_at_convergence_checkpoints() {
    let net = NetworkBuilder::new(clique_plan(6), 22)
        .with_sdn_members([3, 4, 5])
        .with_verification()
        .build();
    let mut exp = Experiment::new(net);
    assert!(exp.start(HOUR).converged);
    exp.apply(&ScriptAction::Withdraw {
        as_index: 0,
        prefix: None,
    });
    assert!(exp.wait_converged(HOUR).converged);
    let m = &exp.net.sim;
    assert!(
        m.counter(None, Counter::VerifyChecks) > 0,
        "auto checkpoints must run the verifier"
    );
    assert_eq!(
        m.counter(None, Counter::VerifyViolations),
        0,
        "converged checkpoints must be violation-free"
    );
}

#[test]
fn scale_scenario_verifies_clean() {
    // A tiered hierarchy, tier-1 mesh centralized, four extra /24s per
    // stub, then one more from the first stub.
    const PER_STUB: u64 = 4;
    let params = SynthesisParams {
        tier1: 3,
        mid: 6,
        stubs: 12,
        ..SynthesisParams::default()
    };
    let spec = JobSpec {
        policy: PolicyMode::GaoRexford,
        deployment: DeploymentStrategy::Placed {
            placement: Placement::Tier,
            clusters: 1,
            total: 3,
        },
        timing: TimingConfig::with_mrai(SimDuration::ZERO),
        seed: 23,
        ..JobSpec::new(Topology::Hierarchy { params, seed: 23 })
    };
    let sub24 = |base: Prefix, j: u64| Prefix::new(base.nth(j << 8), 24).unwrap();
    let mut exp = Experiment::new(spec.builder().build());
    assert!(exp.start(HOUR).converged);
    exp.mark_named("seeding");
    for i in 9..21 {
        for j in 0..PER_STUB {
            exp.apply(&ScriptAction::Announce {
                as_index: i,
                prefix: Some(sub24(exp.net.ases[i].prefix, j)),
            });
        }
    }
    let seeding = exp.wait_converged(HOUR);
    let update = sub24(exp.net.ases[9].prefix, PER_STUB);
    exp.mark_named("single-update");
    exp.apply(&ScriptAction::Announce {
        as_index: 9,
        prefix: Some(update),
    });
    assert!(seeding.converged && exp.wait_converged(HOUR).converged);
    assert!(exp.prefix_reachable_from_all(update, 9));
    let before = exp.net.sim.counter(None, Counter::VerifyPrefixesChecked);
    let report = exp.verify_now().report;
    assert!(
        report.ok(),
        "violations at scale steady state:\n{}",
        report.render()
    );
    let prefixes_checked = exp.net.sim.counter(None, Counter::VerifyPrefixesChecked) - before;
    let expected_prefixes = 21 + 12 * PER_STUB;
    assert!(
        prefixes_checked >= expected_prefixes,
        "checked {prefixes_checked} of {expected_prefixes} prefixes",
    );
}

#[test]
fn live_flow_loop_is_caught_with_witness() {
    let mut exp = converged_clique(8, 4..8, 24);
    let p0 = exp.net.ases[0].prefix;
    let (m4, m5) = (exp.net.ases[4].node, exp.net.ases[5].node);
    let link = exp.net.link_between(4, 5).expect("intra-cluster link");
    // Point both members' rules for AS0's prefix at each other: a
    // two-switch forwarding loop the control plane never intended.
    for node in [m4, m5] {
        let old = rule_for(&exp, node, p0);
        flow_mod(&mut exp, node, FlowModOp::Delete, old.clone());
        let looping = FlowRule {
            action: FlowAction::Output(link.0),
            ..old
        };
        flow_mod(&mut exp, node, FlowModOp::Add, looping);
    }
    exp.net.sim.trace_mut().enable_all();
    let report = exp.verify_now().report;
    assert!(!report.ok());
    assert!(!errors(&report, "loop").is_empty(), "{}", report.render());
    let lp = errors(&report, "loop")[0];
    assert_eq!(lp.prefix, Some(p0));
    let (n4, n5) = (exp.net.sim.node_name(m4), exp.net.sim.node_name(m5));
    let witness = lp.witness.as_deref().unwrap_or_default();
    assert!(
        witness.contains(n4) && witness.contains(n5),
        "loop witness must name both switches: {witness}"
    );
    // The corruption is also intent drift: installed rules no longer match
    // the controller's computed routes.
    assert!(
        errors(&report, "intent_drift").len() >= 2,
        "{}",
        report.render()
    );
    // And the violation reached the trace buffer as a typed event.
    let mut jsonl = String::new();
    exp.net.sim.trace().export_jsonl_into(&mut jsonl);
    assert!(
        jsonl.contains("verify_violation"),
        "violations must be recorded as trace events"
    );
}

#[test]
fn removed_rule_is_caught_as_intent_drift() {
    let mut exp = converged_clique(8, 4..8, 25);
    let p0 = exp.net.ases[0].prefix;
    let m4 = exp.net.ases[4].node;
    let old = rule_for(&exp, m4, p0);
    flow_mod(&mut exp, m4, FlowModOp::Delete, old);
    let report = exp.verify_now().report;
    assert!(
        !errors(&report, "intent_drift").is_empty(),
        "{}",
        report.render()
    );
    let d = errors(&report, "intent_drift")[0];
    let name = exp.net.sim.node_name(m4);
    assert_eq!(d.subject, name, "drift must name the offending switch");
    assert!(d.message.contains("missing"), "{}", d.message);
}

#[test]
fn dead_link_is_caught_as_blackhole() {
    let mut exp = converged_clique(8, 4..8, 26);
    // Fail the edge member 4 uses to reach AS0's prefix, then verify
    // BEFORE reconvergence: the installed rule now points out a dead port.
    let t = exp.net.sim.now();
    exp.apply(&ScriptAction::FailEdge(0, 4));
    // Step just far enough for the link-admin event to apply, but well
    // inside the controller's recompute delay so the stale rule survives.
    exp.net.sim.run_until(t + SimDuration::from_micros(1));
    let report = exp.verify_now().report;
    assert!(
        !errors(&report, "blackhole").is_empty(),
        "{}",
        report.render()
    );
    let b = errors(&report, "blackhole")[0];
    assert!(
        b.message.contains("down") || b.witness.as_deref().unwrap_or_default().contains("down"),
        "blackhole should blame the dead link: {b}"
    );
}

#[test]
fn headless_staleness_resolves_after_recovery() {
    let mut exp = converged_clique(8, 4..8, 27);
    exp.apply(&ScriptAction::CrashController);
    // Withdraw a legacy prefix while the cluster is headless: the legacy
    // world reconverges but member flow tables are frozen stale, so the
    // data plane blackholes traffic for the withdrawn prefix at the
    // cluster boundary.
    exp.apply(&ScriptAction::Withdraw {
        as_index: 0,
        prefix: None,
    });
    let deadline = exp.net.sim.now() + SimDuration::from_secs(120);
    exp.net.sim.run_until(deadline);
    let mid = exp.verify_now().report;
    assert!(
        !errors(&mid, "blackhole").is_empty(),
        "stale member flows must blackhole the withdrawn prefix:\n{}",
        mid.render()
    );
    assert_eq!(
        errors(&mid, "intent_drift").len(),
        0,
        "headless mismatches are stale notes, not drift violations:\n{}",
        mid.render()
    );

    // Recovery: controller restarts, resyncs, recomputes; clean again.
    exp.apply(&ScriptAction::RestoreController);
    assert!(exp.wait_converged(HOUR).converged);
    let after = exp.verify_now().report;
    assert!(after.ok(), "post-recovery violations:\n{}", after.render());
}
