use bgpsdn_core::{
    run_clique, run_clique_traced, run_scale_instrumented, CliqueScenario, EventKind, ScaleScenario,
};
use bgpsdn_netsim::SimDuration;
use bgpsdn_obs::{Json, RunArtifact};

#[test]
fn smoke_hybrid_withdrawal() {
    for &k in &[0usize, 3, 6] {
        let s = CliqueScenario {
            n: 6,
            sdn_count: k,
            mrai: SimDuration::from_secs(10),
            recompute_delay: SimDuration::from_millis(100),
            seed: 42,
            control_loss: 0.0,
        };
        let out = run_clique(&s, EventKind::Withdrawal);
        eprintln!(
            "k={k}: conv={} updates={} flows={} audit={} converged={}",
            out.convergence, out.updates, out.flow_mods, out.audit_ok, out.converged
        );
        assert!(out.converged, "k={k}");
        assert!(out.audit_ok, "k={k}");
    }
}

#[test]
fn smoke_scale_incremental_and_full() {
    for &incremental in &[true, false] {
        let s = ScaleScenario {
            tier1: 3,
            mid: 4,
            stubs: 8,
            cluster_size: 3,
            prefixes_per_stub: 2,
            incremental,
            ..ScaleScenario::tbl_s7(11)
        };
        let out = run_scale_instrumented(&s, |_| {}).0;
        eprintln!(
            "incremental={incremental}: seeded={} seed_conv={} update_conv={} audit={}",
            out.seeded_prefixes, out.seed_convergence, out.update_convergence, out.audit_ok
        );
        assert!(out.converged, "incremental={incremental}");
        assert!(out.audit_ok, "incremental={incremental}");
        assert_eq!(out.seeded_prefixes, 16);
    }
}

#[test]
#[should_panic(expected = "budget 9 exceeds topology size 6")]
fn more_members_than_ases_is_rejected_not_wrapped() {
    let s = CliqueScenario {
        n: 6,
        sdn_count: 9,
        mrai: SimDuration::from_secs(10),
        recompute_delay: SimDuration::from_millis(100),
        seed: 42,
        control_loss: 0.0,
    };
    run_clique(&s, EventKind::Withdrawal);
}

#[test]
fn rendered_artifact_parses_back() {
    let scenario = CliqueScenario {
        n: 5,
        sdn_count: 2,
        mrai: SimDuration::from_secs(1),
        recompute_delay: SimDuration::from_millis(100),
        seed: 11,
        control_loss: 0.0,
    };
    let (out, exp) = run_clique_traced(&scenario, EventKind::Withdrawal);
    assert!(out.converged);
    let info = Json::Obj(vec![("bench".into(), Json::Str("test".into()))]);
    let mut text = String::new();
    exp.render_artifact_into(&info, &mut text);
    assert!(text.contains("\n{\"type\":\"snapshot\","));
    let artifact = RunArtifact::parse(&text).unwrap();
    assert!(!artifact.events.is_empty());
    assert_eq!(artifact.snapshots.len(), 2, "bring-up + withdrawal phases");
    assert_eq!(artifact.snapshots[0].0, "bring-up");
    assert_eq!(artifact.snapshots[1].0, "withdrawal");
}
