use bgpsdn_bgp::{PolicyMode, Prefix, TimingConfig};
use bgpsdn_core::{DeploymentStrategy, Experiment, JobSpec, Placement, ScriptAction, Topology};
use bgpsdn_netsim::SimDuration;
use bgpsdn_obs::Artifact;
use bgpsdn_topology::caida::SynthesisParams;

#[test]
fn smoke_hybrid_withdrawal() {
    for &k in &[0usize, 3, 6] {
        let s = JobSpec {
            timing: TimingConfig::with_mrai(SimDuration::from_secs(10)),
            seed: 42,
            ..JobSpec::clique(6, k)
        };
        let out = s.run(|_| {}).0;
        eprintln!(
            "k={k}: conv={} updates={} flows={} audit={} converged={}",
            out.convergence, out.updates, out.flow_mods, out.audit_ok, out.converged
        );
        assert!(out.converged, "k={k}");
        assert!(out.audit_ok, "k={k}");
    }
}

/// A tiered hierarchy with its tier-1 mesh centralized: seed two extra /24s
/// per stub, then probe with one more from the first stub.
#[test]
fn smoke_scale_seed_then_probe() {
    const PER_STUB: u64 = 2;
    let params = SynthesisParams {
        tier1: 3,
        mid: 4,
        stubs: 8,
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
        seed: 11,
        ..JobSpec::new(Topology::Hierarchy { params, seed: 11 })
    };
    let sub24 = |base: Prefix, j: u64| Prefix::new(base.nth(j << 8), 24).unwrap();
    let hour = SimDuration::from_secs(3600);
    let mut exp = Experiment::new(spec.builder().build());
    assert!(exp.start(hour).converged);
    exp.mark_named("seeding");
    let mut seeded = 0;
    for i in 7..15 {
        for j in 0..PER_STUB {
            exp.apply(&ScriptAction::Announce {
                as_index: i,
                prefix: Some(sub24(exp.net.ases[i].prefix, j)),
            });
            seeded += 1;
        }
    }
    let seeding = exp.wait_converged(hour);
    let update = sub24(exp.net.ases[7].prefix, PER_STUB);
    exp.mark_named("single-update");
    exp.apply(&ScriptAction::Announce {
        as_index: 7,
        prefix: Some(update),
    });
    let probe = exp.wait_converged(hour);
    eprintln!(
        "seeded={seeded} seed_conv={} update_conv={}",
        seeding.duration, probe.duration
    );
    assert!(seeding.converged && probe.converged);
    assert!(exp.prefix_reachable_from_all(update, 7));
    assert_eq!(seeded, 16);
}

#[test]
#[should_panic(expected = "budget 9 exceeds topology size 6")]
fn more_members_than_ases_is_rejected_not_wrapped() {
    let s = JobSpec {
        timing: TimingConfig::with_mrai(SimDuration::from_secs(10)),
        seed: 42,
        ..JobSpec::clique(6, 9)
    };
    s.run(|_| {});
}

#[test]
fn rendered_artifact_parses_back() {
    let scenario = JobSpec {
        timing: TimingConfig::with_mrai(SimDuration::from_secs(1)),
        seed: 11,
        ..JobSpec::clique(5, 2)
    };
    let (out, exp) = scenario.run(|sim| {
        sim.trace_mut().enable_all();
        sim.set_profiling(true);
    });
    assert!(out.converged);
    let mut text = String::new();
    scenario.render_artifact_into(None, &exp, &mut text);
    assert!(text.contains("\n{\"type\":\"snapshot\","));
    let artifact = Artifact::parse(&text).unwrap();
    assert!(!artifact.events.is_empty());
    assert!(artifact.snapshot.is_some());
    assert_eq!(artifact.metrics.len(), 2, "bring-up + withdrawal phases");
    assert_eq!(artifact.metrics[0].phase, "bring-up");
    assert_eq!(artifact.metrics[1].phase, "withdrawal");
}
