//! **Table S6** (route-flap damping ablation): RFC 2439 damping is the
//! *distributed* answer to route flaps; the paper's controller answers the
//! same problem centrally with delayed recomputation. This bench measures
//! what happens when a prefix flaps and then stabilizes:
//!
//! * with damping enabled, legacy routers suppress the flapping route and
//!   recovery waits for the penalty to decay (the classic "damping
//!   exacerbates convergence" effect);
//! * with a cluster whose recompute window is wider than the flap period,
//!   the controller absorbs the burst, legacy routers accumulate less
//!   penalty, and recovery is faster.

use bgpsdn_bench::{write_json, RUNS};
use bgpsdn_bgp::{DampingConfig, PolicyMode, TimingConfig};
use bgpsdn_core::{Experiment, NetworkBuilder, ScriptAction};
use bgpsdn_netsim::{Counter, SimDuration};
use bgpsdn_obs::{impl_to_json, Summary};
use bgpsdn_topology::{gen, plan, AsGraph};

struct Row {
    damping: bool,
    sdn_count: usize,
    recovery_median_s: f64,
    suppressed_mean: f64,
}

impl_to_json!(Row {
    damping,
    sdn_count,
    recovery_median_s,
    suppressed_mean
});

const N: usize = 10;
const FLAPS: usize = 6;
const FLAP_GAP: SimDuration = SimDuration::from_millis(1500);

fn run_once(damping: bool, sdn_count: usize, seed: u64) -> (SimDuration, u64) {
    let ag = AsGraph::all_peer(&gen::clique(N), 65000);
    let tp = plan(
        ag,
        PolicyMode::AllPermit,
        TimingConfig::with_mrai(SimDuration::from_secs(2)),
    )
    .unwrap();
    let members: Vec<usize> = (N - sdn_count..N).collect();
    let mut builder = NetworkBuilder::new(tp, seed)
        .with_sdn_members(members)
        // Wider than the flap period: the cluster can absorb the burst.
        .with_recompute_delay(SimDuration::from_secs(4));
    if damping {
        builder = builder.with_damping(DampingConfig {
            half_life: SimDuration::from_secs(60),
            ..Default::default()
        });
    }
    let net = builder.build();
    let mut exp = Experiment::new(net);
    assert!(exp.start(SimDuration::from_secs(3600)).converged);

    // Flap the origin's prefix, ending in the announced state.
    let origin = 0usize;
    let p = exp.net.ases[origin].prefix;
    for _ in 0..FLAPS {
        exp.apply(&ScriptAction::Withdraw {
            as_index: origin,
            prefix: None,
        });
        exp.net.sim.run_for(FLAP_GAP);
        exp.apply(&ScriptAction::Announce {
            as_index: origin,
            prefix: None,
        });
        exp.net.sim.run_for(FLAP_GAP);
    }
    let t_stable = exp.net.sim.now();

    // Poll until every AS holds the route again.
    let cap = t_stable + SimDuration::from_secs(900);
    while !exp.prefix_reachable_from_all(p, origin) && exp.net.sim.now() < cap {
        exp.net.sim.run_for(SimDuration::from_millis(500));
    }
    assert!(
        exp.prefix_reachable_from_all(p, origin),
        "route never recovered (damping={damping}, sdn={sdn_count})"
    );
    let recovery = exp.net.sim.now().saturating_since(t_stable);

    // How much suppression the legacy world experienced.
    let suppressed: u64 = exp
        .net
        .legacy()
        .map(|a| exp.net.sim.counter(a.node, Counter::DampedSuppressed))
        .sum();
    (recovery, suppressed)
}

fn main() {
    println!("== Table S6: route-flap damping vs centralized rate-limiting ==");
    println!("{N}-AS clique, origin flaps {FLAPS}x then stabilizes; MRAI 2 s,");
    println!("damping half-life 60 s, controller recompute window 4 s, {RUNS} runs/point\n");
    println!(
        "{:>9} {:>6} {:>16} {:>12}",
        "damping", "SDN", "recovery median", "suppressions"
    );

    let mut rows = Vec::new();
    for &(damping, sdn_count) in &[(false, 0usize), (true, 0), (true, N / 2)] {
        let mut times = Vec::new();
        let mut sup = Vec::new();
        for r in 0..RUNS {
            let (t, s) = run_once(damping, sdn_count, 11_000 + r * 7919);
            times.push(t.as_secs_f64());
            sup.push(s as f64);
        }
        let median = Summary::of(times).unwrap().median;
        let sup_mean = sup.iter().sum::<f64>() / sup.len() as f64;
        println!(
            "{:>9} {:>4}/{N} {:>15.2}s {:>12.1}",
            if damping { "on" } else { "off" },
            sdn_count,
            median,
            sup_mean
        );
        rows.push(Row {
            damping,
            sdn_count,
            recovery_median_s: median,
            suppressed_mean: sup_mean,
        });
    }

    assert!(
        rows[1].recovery_median_s > rows[0].recovery_median_s + 30.0,
        "damping must delay post-flap recovery: {} vs {}",
        rows[1].recovery_median_s,
        rows[0].recovery_median_s
    );
    assert!(
        rows[2].recovery_median_s < rows[1].recovery_median_s,
        "the cluster's rate-limiting must soften the damping penalty: {} vs {}",
        rows[2].recovery_median_s,
        rows[1].recovery_median_s
    );
    println!("\nshape check: PASS (damping exacerbates recovery; centralized");
    println!("rate-limiting absorbs the burst and reduces suppression)");

    write_json("tblS6_damping", &[], &rows);
}
