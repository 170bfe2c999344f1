//! End-to-end tests of the static data-plane verifier against live
//! simulations: converged networks must verify clean, and deliberately
//! corrupted state (flow mutations, dropped rules, stale headless tables)
//! must produce exactly the expected violations with usable witnesses.

use bgpsdn_bgp::{PolicyMode, TimingConfig};
use bgpsdn_core::{run_scale_instrumented, Experiment, NetworkBuilder, ScaleScenario, Switch};
use bgpsdn_netsim::SimDuration;
use bgpsdn_sdn::FlowAction;
use bgpsdn_topology::{gen, plan, AsGraph, TopologyPlan};
use bgpsdn_verify::ViolationKind;

const HOUR: SimDuration = SimDuration::from_secs(3600);

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
    let report = exp.verify_now();
    assert!(report.ok(), "violations on a converged clique:\n{report}");
    assert!(report.prefixes_checked >= 8, "{report}");
    assert!(
        report.stale.is_empty(),
        "stale notes while synced: {report}"
    );
    assert_eq!(exp.net.sim.metrics().counter(None, "verify.violations"), 0);
    assert!(exp.net.sim.metrics().counter(None, "verify.checks") > 0);
}

#[test]
fn auto_verify_runs_at_convergence_checkpoints() {
    let net = NetworkBuilder::new(clique_plan(6), 22)
        .with_sdn_members([3, 4, 5])
        .with_verification()
        .build();
    let mut exp = Experiment::new(net);
    assert!(exp.start(HOUR).converged);
    exp.withdraw(0, None);
    assert!(exp.wait_converged(HOUR).converged);
    let m = exp.net.sim.metrics();
    assert!(
        m.counter(None, "verify.checks") > 0,
        "auto checkpoints must run the verifier"
    );
    assert_eq!(
        m.counter(None, "verify.violations"),
        0,
        "converged checkpoints must be violation-free"
    );
}

#[test]
fn scale_scenario_verifies_clean() {
    let scenario = ScaleScenario {
        tier1: 3,
        mid: 6,
        stubs: 12,
        cluster_size: 3,
        ..ScaleScenario::tbl_s7(23)
    };
    let (out, mut exp) = run_scale_instrumented(&scenario, |_| {});
    assert!(out.converged && out.audit_ok);
    let report = exp.verify_now();
    assert!(report.ok(), "violations at scale steady state:\n{report}");
    assert!(
        report.prefixes_checked >= scenario.expected_prefixes(),
        "checked {} of {} prefixes",
        report.prefixes_checked,
        scenario.expected_prefixes()
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
        exp.net.sim.with_node::<Switch, _>(node, |sw| {
            let old = sw
                .table()
                .iter()
                .find(|r| r.prefix == p0)
                .cloned()
                .expect("converged member has a rule for every prefix");
            sw.table_mut().remove(old.priority, p0);
            sw.table_mut().install(bgpsdn_sdn::FlowRule {
                action: FlowAction::Output(link.0),
                ..old
            });
        });
    }
    exp.net.sim.trace_mut().enable_all();
    let report = exp.verify_now();
    assert!(!report.ok());
    assert!(report.count_of(ViolationKind::Loop) >= 1, "{report}");
    let lp = report
        .violations
        .iter()
        .find(|v| v.kind == ViolationKind::Loop)
        .unwrap();
    assert_eq!(lp.prefix, Some(p0));
    let (n4, n5) = (exp.net.sim.node_name(m4), exp.net.sim.node_name(m5));
    assert!(
        lp.witness.contains(n4) && lp.witness.contains(n5),
        "loop witness must name both switches: {}",
        lp.witness
    );
    // The corruption is also intent drift: installed rules no longer match
    // the controller's computed routes.
    assert!(report.count_of(ViolationKind::IntentDrift) >= 2, "{report}");
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
    exp.net.sim.with_node::<Switch, _>(m4, |sw| {
        let old = sw
            .table()
            .iter()
            .find(|r| r.prefix == p0)
            .cloned()
            .expect("rule for p0");
        sw.table_mut().remove(old.priority, p0);
    });
    let report = exp.verify_now();
    assert!(report.count_of(ViolationKind::IntentDrift) >= 1, "{report}");
    let d = report
        .violations
        .iter()
        .find(|v| v.kind == ViolationKind::IntentDrift)
        .unwrap();
    let name = exp.net.sim.node_name(m4);
    assert_eq!(d.node, name, "drift must name the offending switch");
    assert!(d.detail.contains("missing"), "{}", d.detail);
}

#[test]
fn dead_link_is_caught_as_blackhole() {
    let mut exp = converged_clique(8, 4..8, 26);
    // Fail the edge member 4 uses to reach AS0's prefix, then verify
    // BEFORE reconvergence: the installed rule now points out a dead port.
    let t = exp.net.sim.now();
    exp.fail_edge(0, 4);
    // Step just far enough for the link-admin event to apply, but well
    // inside the controller's recompute delay so the stale rule survives.
    exp.net.sim.run_until(t + SimDuration::from_micros(1));
    let report = exp.verify_now();
    assert!(report.count_of(ViolationKind::Blackhole) >= 1, "{report}");
    let b = report
        .violations
        .iter()
        .find(|v| v.kind == ViolationKind::Blackhole)
        .unwrap();
    assert!(
        b.detail.contains("down") || b.witness.contains("down"),
        "blackhole should blame the dead link: {b}"
    );
}

#[test]
fn headless_staleness_resolves_after_recovery() {
    let mut exp = converged_clique(8, 4..8, 27);
    exp.crash_controller();
    // Withdraw a legacy prefix while the cluster is headless: the legacy
    // world reconverges but member flow tables are frozen stale, so the
    // data plane blackholes traffic for the withdrawn prefix at the
    // cluster boundary.
    exp.withdraw(0, None);
    let deadline = exp.net.sim.now() + SimDuration::from_secs(120);
    exp.net.sim.run_until(deadline);
    let mid = exp.verify_now();
    assert!(
        mid.count_of(ViolationKind::Blackhole) >= 1,
        "stale member flows must blackhole the withdrawn prefix:\n{mid}"
    );
    assert_eq!(
        mid.count_of(ViolationKind::IntentDrift),
        0,
        "headless mismatches are stale notes, not drift violations:\n{mid}"
    );

    // Recovery: controller restarts, resyncs, recomputes; clean again.
    exp.restore_controller();
    assert!(exp.wait_converged(HOUR).converged);
    let after = exp.verify_now();
    assert!(after.ok(), "post-recovery violations:\n{after}");
}
