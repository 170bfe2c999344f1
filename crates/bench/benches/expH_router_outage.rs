//! **Experiment H** (robustness extension): the cost of a *router* outage
//! versus its duration, across SDN centralization levels, with and without
//! RFC 4724 graceful restart. A 16-AS clique carries a periodic echo
//! stream AS 2 → AS 1 while AS 1's device crashes (it stops processing —
//! peers only notice through hold-timer expiry) and restarts after `D`
//! seconds. Loss tracks the outage, reconvergence tracks the post-restart
//! session/table rebuild, and churn (UPDATEs sent by the surviving legacy
//! routers) is what graceful restart is supposed to suppress: with GR the
//! peers retain the dead router's paths as stale instead of withdrawing
//! and path-hunting, so GR-on churn must come in measurably below GR-off
//! at every outage duration. At full centralization (sdn 16) there are no
//! BGP sessions left to churn — the outage is pure data-plane loss.

use bgpsdn_bench::write_json;
use bgpsdn_bgp::{PolicyMode, TimingConfig};
use bgpsdn_core::{Experiment, NetworkBuilder, ScriptAction};
use bgpsdn_netsim::{Counter, SimDuration};
use bgpsdn_obs::impl_to_json;
use bgpsdn_topology::{gen, plan, AsGraph};

/// Clique size (the paper's Figure 2 topology).
const N: usize = 16;
/// SDN centralization levels under test.
const SDN_LEVELS: [usize; 3] = [0, 8, 16];
/// Outage durations in seconds; all exceed worst-case hold detection
/// (hold 9 s) and stay inside the 60 s graceful-restart window.
const OUTAGES: [u64; 3] = [12, 20, 30];
/// Hold time: short enough that detection fits the outage windows.
const HOLD_SECS: u16 = 9;
/// GR window when enabled: outlives every outage under test.
const GR_SECS: u16 = 60;
/// Probe cadence; tick arithmetic below is in these 500 ms units.
const INTERVAL: SimDuration = SimDuration::from_millis(500);
/// The router crashes at t = 2 s into the stream.
const CRASH_TICK: u64 = 4;
/// Ticks of post-restore tail to observe recovery (30 s).
const TAIL_TICKS: u64 = 60;

struct Row {
    sdn: u64,
    gr: bool,
    outage_s: f64,
    loss_ratio: f64,
    longest_outage_s: f64,
    reconverge_s: f64,
    churn_updates: u64,
    sessions_dropped: u64,
    sessions_reestablished: u64,
    stale_retained: u64,
}

impl_to_json!(Row {
    sdn,
    gr,
    outage_s,
    loss_ratio,
    longest_outage_s,
    reconverge_s,
    churn_updates,
    sessions_dropped,
    sessions_reestablished,
    stale_retained
});

/// Sum a router counter over the surviving legacy routers (every legacy
/// AS except the crash target AS 1).
fn legacy_sum(exp: &Experiment, sdn: usize, id: Counter) -> u64 {
    (0..N - sdn)
        .filter(|&i| i != 1)
        .map(|i| exp.net.sim.counter(exp.net.ases[i].node, id))
        .sum()
}

fn run_outage(sdn: usize, gr: bool, outage_s: u64) -> Row {
    let ag = AsGraph::all_peer(&gen::clique(N), 65000);
    let mut timing = TimingConfig::with_mrai(SimDuration::from_secs(2));
    timing.hold_time_secs = HOLD_SECS;
    timing.graceful_restart_secs = if gr { GR_SECS } else { 0 };
    let tp = plan(ag, PolicyMode::AllPermit, timing).expect("address plan");
    let mut builder = NetworkBuilder::new(tp, 7100 + sdn as u64 * 97 + outage_s);
    if sdn > 0 {
        builder = builder
            .with_sdn_members(N - sdn..N)
            .with_recompute_delay(SimDuration::from_millis(100));
    }
    let mut exp = Experiment::new(builder.build());
    let up = exp.start(SimDuration::from_secs(3600));
    assert!(up.converged, "bring-up did not converge");
    assert!(
        exp.connectivity_audit().fully_connected(),
        "bring-up must leave full connectivity"
    );

    let churn_before = legacy_sum(&exp, sdn, Counter::UpdatesSent);
    let dst = exp.net.ases[1].router_ip;
    let restore_tick = CRASH_TICK + outage_s * 1000 / INTERVAL.as_millis();
    let count = restore_tick + TAIL_TICKS;
    let report = exp.ping_stream(2, dst, INTERVAL, count, |e, tick| {
        if tick == CRASH_TICK {
            e.apply(&ScriptAction::CrashRouter(1));
        } else if tick == restore_tick {
            e.apply(&ScriptAction::RestoreRouter(1));
        }
    });
    let stale_retained = legacy_sum(&exp, sdn, Counter::StaleRetained);

    // Let the rebuild finish (GR stale-flush and reconnect supervision are
    // Progress-class, so quiescence waits for them) before the final audit
    // and churn accounting.
    let deadline = exp.net.sim.now() + SimDuration::from_secs(3600);
    let q = exp.net.sim.run_until_quiescent(deadline);
    assert!(q.quiescent, "post-restart rebuild did not quiesce");
    assert!(
        exp.connectivity_audit().fully_connected(),
        "sdn={sdn} gr={gr} D={outage_s}s must end fully reconverged"
    );

    // Reconvergence: restore-to-first-reply, in probe intervals.
    let reconverge_ticks = report
        .timeline
        .iter()
        .skip(restore_tick as usize)
        .position(|&got| got)
        .unwrap_or(TAIL_TICKS as usize) as u64;
    Row {
        sdn: sdn as u64,
        gr,
        outage_s: outage_s as f64,
        loss_ratio: report.loss_ratio,
        longest_outage_s: report.longest_outage.as_secs_f64(),
        reconverge_s: INTERVAL.saturating_mul(reconverge_ticks).as_secs_f64(),
        churn_updates: legacy_sum(&exp, sdn, Counter::UpdatesSent) - churn_before,
        sessions_dropped: legacy_sum(&exp, sdn, Counter::SessionsDropped),
        sessions_reestablished: legacy_sum(&exp, sdn, Counter::SessionsReestablished),
        stale_retained,
    }
}

fn main() {
    println!("== Experiment H: router outage vs loss, reconvergence and churn ==");
    println!("16-AS clique, ping 2->1 @500ms; crash AS 1, restore after D;");
    println!("sdn 0/8/16 x GR on/off x D {OUTAGES:?}s\n");
    println!(
        "{:>4} {:>4} {:>4} {:>8} {:>10} {:>9} {:>7} {:>6} {:>7} {:>6}",
        "sdn", "gr", "D", "loss", "longest_s", "reconv_s", "churn", "drop", "reest", "stale"
    );

    let mut rows = Vec::new();
    for &sdn in &SDN_LEVELS {
        for gr in [false, true] {
            for &outage_s in &OUTAGES {
                let row = run_outage(sdn, gr, outage_s);
                println!(
                    "{:>4} {:>4} {:>3}s {:>8.3} {:>10.1} {:>9.2} {:>7} {:>6} {:>7} {:>6}",
                    row.sdn,
                    if row.gr { "on" } else { "off" },
                    outage_s,
                    row.loss_ratio,
                    row.longest_outage_s,
                    row.reconverge_s,
                    row.churn_updates,
                    row.sessions_dropped,
                    row.sessions_reestablished,
                    row.stale_retained
                );
                rows.push(row);
            }
        }
    }

    // Shape checks.
    let find = |sdn: u64, gr: bool, d: f64| {
        rows.iter()
            .find(|r| r.sdn == sdn && r.gr == gr && r.outage_s == d)
            .unwrap()
    };
    // (1) Loss grows with the outage duration everywhere: the crashed
    // device blackholes its own prefix for as long as it is down.
    for &sdn in &SDN_LEVELS {
        for gr in [false, true] {
            let short = find(sdn as u64, gr, OUTAGES[0] as f64);
            let long = find(sdn as u64, gr, *OUTAGES.last().unwrap() as f64);
            assert!(
                long.loss_ratio > short.loss_ratio,
                "sdn={sdn} gr={gr}: loss must grow with D: {:.3} -> {:.3}",
                short.loss_ratio,
                long.loss_ratio
            );
        }
    }
    // (2) Graceful restart measurably cuts reconvergence churn wherever
    // BGP sessions exist: retained-stale beats withdraw-and-path-hunt.
    let mut ratios = Vec::new();
    for &sdn in &[0u64, 8] {
        for &d in &OUTAGES {
            let off = find(sdn, false, d as f64);
            let on = find(sdn, true, d as f64);
            assert!(
                on.churn_updates < off.churn_updates,
                "sdn={sdn} D={d}s: GR must cut churn ({} with GR vs {} without)",
                on.churn_updates,
                off.churn_updates
            );
            assert!(on.stale_retained > 0, "sdn={sdn} D={d}s: GR must retain");
            ratios.push(off.churn_updates as f64 / on.churn_updates as f64);
        }
    }
    // (3) Full centralization has no BGP sessions left to churn: the
    // outage is pure data-plane loss, invisible to routing.
    for gr in [false, true] {
        for &d in &OUTAGES {
            let row = find(16, gr, d as f64);
            assert_eq!(
                row.churn_updates, 0,
                "sdn=16 gr={gr} D={d}s: no legacy routers, no churn"
            );
        }
    }
    // Headline: worst-case (minimum) churn reduction factor across all
    // BGP-bearing cells — how much louder reconvergence gets when graceful
    // restart is switched off.
    let gr_churn_ratio = ratios.iter().cloned().fold(f64::INFINITY, f64::min);
    println!(
        "\nshape check: PASS (loss grows with D; GR cuts churn >= {gr_churn_ratio:.2}x; \
         sdn 16 churn-free)"
    );

    write_json(
        "expH_router_outage",
        &[("gr_churn_ratio", gr_churn_ratio)],
        &rows,
    );
}
