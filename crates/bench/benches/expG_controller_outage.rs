//! **Experiment G** (robustness extension): the data-plane cost of a
//! controller outage versus its duration. A 4-AS diamond — legacy AS 0
//! homed on member AS 1, members 1/2/3 forming the cluster — carries a
//! periodic echo stream 0→3 while the controller crashes, the primary
//! edge 1–3 fails *during* the outage (fail-static switches keep
//! blackholing it — nobody is alive to reroute), and the controller comes
//! back after `D` seconds. The stream's loss and the post-restore
//! reconvergence time measure what centralization costs when the central
//! point is down: data-plane loss grows linearly with the outage, while
//! recovery after restart is a quick resync + recompute, not a full
//! BGP-style reconvergence.

use bgpsdn_bench::write_json;
use bgpsdn_bgp::{PolicyMode, TimingConfig};
use bgpsdn_core::{Experiment, NetworkBuilder, ScriptAction};
use bgpsdn_netsim::{Counter, SimDuration};
use bgpsdn_obs::impl_to_json;
use bgpsdn_topology::{plan, AsGraph, Graph};

struct Row {
    outage_s: f64,
    loss_ratio: f64,
    longest_outage_s: f64,
    reconverge_s: f64,
    resyncs: u64,
    retransmits: u64,
    headless: u64,
}

impl_to_json!(Row {
    outage_s,
    loss_ratio,
    longest_outage_s,
    reconverge_s,
    resyncs,
    retransmits,
    headless
});

/// Probe cadence; all tick arithmetic below is in these 500 ms units.
const INTERVAL: SimDuration = SimDuration::from_millis(500);
/// Controller crashes at t = 2 s.
const CRASH_TICK: u64 = 4;
/// Primary edge 1–3 fails at t = 6 s — the speaker's 3 s hold timer has
/// long expired, so the failure happens into a truly headless cluster.
const FAIL_TICK: u64 = 12;
/// Ticks of post-restore tail to observe recovery (20 s).
const TAIL_TICKS: u64 = 40;

fn run_outage(outage_s: u64) -> Row {
    // The diamond: 0—1, 1—2, 1—3, 2—3. Shortest path 0→3 rides edge 1–3;
    // the detour 1→2→3 exists but takes a recompute to install.
    let mut g = Graph::new(4);
    g.add_edge(0, 1);
    g.add_edge(1, 2);
    g.add_edge(1, 3);
    g.add_edge(2, 3);
    let tp = plan(
        AsGraph::all_peer(&g, 65000),
        PolicyMode::AllPermit,
        TimingConfig::with_mrai(SimDuration::ZERO),
    )
    .expect("address plan");
    let net = NetworkBuilder::new(tp, 4200 + outage_s)
        .with_sdn_members(vec![1, 2, 3])
        .with_recompute_delay(SimDuration::from_millis(50))
        .build();
    let mut exp = Experiment::new(net);
    let up = exp.start(SimDuration::from_secs(3600));
    assert!(up.converged, "bring-up did not converge");
    assert!(
        exp.connectivity_audit().fully_connected(),
        "bring-up must leave full connectivity"
    );

    let dst = exp.net.ases[3].router_ip;
    let restore_tick = FAIL_TICK + outage_s * 1000 / INTERVAL.as_millis();
    let count = restore_tick + TAIL_TICKS;
    let report = exp.ping_stream(0, dst, INTERVAL, count, |e, tick| {
        if tick == CRASH_TICK {
            e.apply(&ScriptAction::CrashController);
        } else if tick == FAIL_TICK {
            e.apply(&ScriptAction::FailEdge(1, 3));
        } else if tick == restore_tick {
            e.apply(&ScriptAction::RestoreController);
        }
    });

    // Reconvergence: restore-to-first-reply, in probe intervals.
    let reconverge_ticks = report
        .timeline
        .iter()
        .skip(restore_tick as usize)
        .position(|&got| got)
        .unwrap_or(TAIL_TICKS as usize) as u64;
    let speaker = exp.net.clusters[0].speaker;
    let counter = |id| exp.net.sim.counter(speaker, id);
    assert!(
        exp.connectivity_audit().fully_connected(),
        "outage D={outage_s}s must end fully reconverged"
    );
    Row {
        outage_s: outage_s as f64,
        loss_ratio: report.loss_ratio,
        longest_outage_s: report.longest_outage.as_secs_f64(),
        reconverge_s: INTERVAL.saturating_mul(reconverge_ticks).as_secs_f64(),
        resyncs: counter(Counter::SpeakerResyncs),
        retransmits: counter(Counter::CtrlRetransmits),
        headless: counter(Counter::HeadlessEntered),
    }
}

fn main() {
    println!("== Experiment G: controller outage vs data-plane damage ==");
    println!("4-AS diamond, ping 0->3 @500ms; crash, fail edge 1-3 headless,");
    println!("restore after D; loss and reconvergence vs outage duration\n");
    println!(
        "{:>6} {:>8} {:>10} {:>11} {:>8} {:>8} {:>9}",
        "D", "loss", "longest_s", "reconv_s", "resyncs", "retx", "headless"
    );

    let mut rows = Vec::new();
    for &outage_s in &[2u64, 5, 10, 20] {
        let row = run_outage(outage_s);
        println!(
            "{:>5}s {:>8.3} {:>10.1} {:>11.2} {:>8} {:>8} {:>9}",
            outage_s,
            row.loss_ratio,
            row.longest_outage_s,
            row.reconverge_s,
            row.resyncs,
            row.retransmits,
            row.headless
        );
        rows.push(row);
    }

    // Shape: the data plane blackholes for as long as the controller is
    // away (loss grows with D), every run goes headless exactly once and
    // rejoins with exactly one resync, and recovery after restore is a
    // bounded resync + recompute — seconds, not another outage.
    let first = rows.first().unwrap();
    let last = rows.last().unwrap();
    assert!(
        last.loss_ratio > first.loss_ratio,
        "loss must grow with outage duration: {:.3} -> {:.3}",
        first.loss_ratio,
        last.loss_ratio
    );
    for row in &rows {
        assert!(
            row.headless >= 1,
            "D={}: cluster must go headless",
            row.outage_s
        );
        assert!(row.resyncs >= 1, "D={}: restart must resync", row.outage_s);
        assert!(
            row.reconverge_s <= 10.0,
            "D={}: recovery must be a quick resync, took {:.1}s",
            row.outage_s,
            row.reconverge_s
        );
    }
    println!("\nshape check: PASS (loss grows with D; recovery is a bounded resync)");

    write_json("expG_controller_outage", &[], &rows);
}
