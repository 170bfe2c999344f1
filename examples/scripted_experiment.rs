//! Scripted experiment lifecycle — the framework's replacement for the
//! paper's Python experiment setups: declare the scenario as data, replay
//! it, get a verified transcript.
//!
//! ```sh
//! cargo run --release --example scripted_experiment
//! ```

use bgp_sdn_emu::prelude::*;

fn main() {
    let topo = plan(
        AsGraph::all_peer(&gen::clique(8), 65000),
        PolicyMode::AllPermit,
        TimingConfig::with_mrai(SimDuration::from_secs(5)),
    )
    .expect("plan");
    let net = NetworkBuilder::new(topo, 3)
        .with_sdn_members([4, 5, 6, 7])
        .build();
    let mut exp = Experiment::new(net);
    assert!(exp.start(SimDuration::from_secs(3600)).converged);

    let hour = SimDuration::from_secs(3600);
    let p0 = exp.net.ases[0].prefix;

    use ScriptAction::*;
    let converge = WaitConverged { max: hour };
    let script = Script {
        steps: vec![
            ExpectFullConnectivity,
            // Withdrawal round-trip.
            Mark,
            Withdraw {
                as_index: 0,
                prefix: None,
            },
            converge,
            ExpectGone { prefix: p0 },
            Mark,
            Announce {
                as_index: 0,
                prefix: None,
            },
            converge,
            ExpectReachable {
                prefix: p0,
                origin: 0,
            },
            // A link failure and repair, with connectivity verified throughout.
            Mark,
            FailEdge(0, 1),
            converge,
            ExpectReachable {
                prefix: p0,
                origin: 0,
            },
            Mark,
            RestoreEdge(0, 1),
            converge,
            ExpectFullConnectivity,
        ],
    };

    let report = exp.run_script(&script);
    print!("{}", report.render());
    if report.ok() {
        println!(
            "\nscript completed: all {} steps passed",
            report.steps.len()
        );
    } else {
        println!(
            "\nscript FAILED at step {:?}",
            report.first_failure().map(|s| s.index)
        );
        std::process::exit(1);
    }

    // `run_script` hands every step to `Experiment::apply`, the one
    // executor; a run can also drive it one action at a time.
    exp.mark();
    exp.apply(&FailEdge(0, 1));
    let (converged, report) = exp.apply(&converge);
    let report = report.expect("a convergence wait reports");
    println!(
        "hand-driven fail-over: converged={converged} in {}",
        report.duration
    );
}
