//! The demo's end-to-end application check: a "video stream" (periodic
//! probes) from a legacy AS to a server inside an SDN member AS, while the
//! direct link between them fails and later recovers — the scenario the
//! paper demonstrates visually with a video application.
//!
//! ```sh
//! cargo run --release --example video_failover
//! ```

use bgp_sdn_emu::prelude::*;

fn main() {
    // 6-AS clique; ASes 3..5 form the SDN cluster. The viewer is legacy
    // AS 1 (index 1), the video server lives inside member AS 5's prefix.
    let topo = plan(
        AsGraph::all_peer(&gen::clique(6), 65000),
        PolicyMode::AllPermit,
        TimingConfig::with_mrai(SimDuration::from_secs(5)),
    )
    .expect("plan");
    let net = NetworkBuilder::new(topo, 7)
        .with_sdn_members([3, 4, 5])
        .build();
    let mut exp = Experiment::new(net);
    let up = exp.start(SimDuration::from_secs(3600));
    assert!(up.converged, "bring-up failed");

    let viewer = 1usize;
    let server = 5usize;
    let server_ip = exp.net.ases[server].prefix.nth(0x77);

    println!(
        "video stream: AS{} -> {} (inside SDN member AS{})",
        65001, server_ip, 65005
    );
    println!("probe every 100 ms; direct link fails at t=+2.0s, heals at t=+6.0s\n");

    let step = SimDuration::from_millis(100);
    let report = exp.ping_stream(viewer, server_ip, step, 100, |exp, tick| {
        if tick == 20 {
            exp.apply(&ScriptAction::FailEdge(viewer, server));
        }
        if tick == 60 {
            exp.apply(&ScriptAction::RestoreEdge(viewer, server));
        }
    });
    let timeline: String = report
        .timeline
        .iter()
        .map(|&ok| if ok { '#' } else { '.' })
        .collect();

    println!("reply timeline (100 ms per column, '#'=stream alive, '.'=outage):");
    for (i, chunk) in timeline.as_bytes().chunks(50).enumerate() {
        println!(
            "  t+{:>4.1}s  {}",
            i as f64 * 5.0,
            String::from_utf8_lossy(chunk)
        );
    }
    println!(
        "\nprobes sent: {}, outage intervals: {}",
        report.sent, report.outage_intervals
    );
    println!(
        "outage ≈ {} ms (failover re-routes the stream through the cluster's",
        report.outage_intervals * 100
    );
    println!("alternative announcements; healing brings the direct path back)");

    let audit = exp.connectivity_audit();
    assert!(audit.fully_connected(), "network should be whole again");
    println!(
        "\nfinal connectivity audit: {} pairs delivered, 0 failures",
        audit.delivered
    );
}
