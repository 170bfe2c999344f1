//! **Experiment A** (paper §4, prose): route *announcement* convergence on
//! the 16-AS clique versus SDN fraction. "Route fail-over and announcement
//! experiments did not show this linear improvement, but smaller
//! reductions" — announcements converge in one propagation wave regardless
//! of centralization, so the reduction is far smaller than Figure 2's.

use bgpsdn_bench::{print_sweep, sweep, write_json, RUNS};
use bgpsdn_core::{CampaignGrid, EventKind};

fn main() {
    println!("== Experiment A: announcement convergence vs SDN fraction ==");
    println!("16-AS clique, MRAI 30 s, {RUNS} runs/point (seconds)\n");
    let rows = sweep(&CampaignGrid {
        name: "expA".to_string(),
        event: EventKind::Announcement,
        cluster_sizes: (0..=16).step_by(2).collect(),
        ..CampaignGrid::fig2(RUNS)
    });
    print_sweep("SDN %", "%", &rows);

    // Shape: reductions exist but are much smaller than the withdrawal
    // case — the 0 %-to-takeover ratio stays moderate.
    let first = rows.first().unwrap().median;
    let last = rows.last().unwrap().median;
    assert!(last <= first, "centralization must not hurt announcements");
    assert!(
        first < 60.0,
        "announcement convergence is propagation-bound, not exploration-bound: {first}"
    );
    println!("\nshape check: PASS (small reductions; no exploration blow-up at 0%)");

    write_json("expA_announcement", &[], &rows);
}
