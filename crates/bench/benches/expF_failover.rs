//! **Experiment F** (paper §4, prose): route *fail-over* convergence on the
//! 16-AS clique versus SDN fraction. The origin's link to one neighbor
//! fails; that neighbor (and everyone routing through the failed edge) must
//! settle on an alternative path. Like the announcement case, the paper
//! reports "smaller reductions" than the withdrawal experiment.

use bgpsdn_bench::{print_sweep, sweep, write_json, RUNS};
use bgpsdn_core::{CampaignGrid, EventKind};

fn main() {
    println!("== Experiment F: fail-over convergence vs SDN fraction ==");
    println!("16-AS clique, MRAI 30 s, fail link origin<->AS1, {RUNS} runs/point (seconds)\n");
    let rows = sweep(&CampaignGrid {
        name: "expF".to_string(),
        event: EventKind::Failover,
        // At 16 members the failed edge is intra-cluster, a different
        // experiment (see tblS3); the sweep stops at 14 like the paper's
        // partial-deployment focus.
        cluster_sizes: (0..=14).step_by(2).collect(),
        ..CampaignGrid::fig2(RUNS)
    });
    print_sweep("SDN %", "%", &rows);

    let first = rows.first().unwrap().median;
    let last = rows.last().unwrap().median;
    assert!(
        last <= first * 1.05,
        "centralization must not hurt fail-over: {first} -> {last}"
    );
    println!("\nshape check: PASS (fail-over settles to an existing alternate;");
    println!("reductions are smaller than the withdrawal case)");

    write_json("expF_failover", &[], &rows);
}
