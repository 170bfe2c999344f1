//! **Figure 2**: IDR convergence time of a route withdrawal on a 16-AS
//! clique topology versus the fraction of ASes with centralized route
//! control. The remaining ASes use standard BGP. Boxplots over 10 runs.
//!
//! This is `CampaignGrid::fig2` — the grid `bgpsdn sweep --fig2` runs — so
//! the medians here, in the CLI's cell table and in EXPERIMENTS.md are the
//! same numbers.
//!
//! Paper-shape expectations: a roughly linear decrease of the median as the
//! SDN fraction grows, collapsing to ~0 at full deployment.

use bgpsdn_bench::{print_sweep, sweep, write_json, RUNS};
use bgpsdn_core::CampaignGrid;

fn main() {
    println!("== Figure 2: withdrawal convergence vs SDN fraction ==");
    println!("16-AS clique, full transit, MRAI 30 s, recompute delay 100 ms, {RUNS} runs/point");
    println!("(seconds)\n");
    let rows = sweep(&CampaignGrid::fig2(RUNS));
    print_sweep("SDN %", "%", &rows);

    // Shape assertions: monotone decrease of the median, collapse at 100 %.
    for w in rows.windows(2) {
        assert!(
            w[1].median <= w[0].median,
            "median must not grow with centralization: {} -> {}",
            w[0].median,
            w[1].median
        );
    }
    assert!(
        rows.first().unwrap().median > 60.0,
        "pure BGP shows long path exploration"
    );
    assert!(
        rows.last().unwrap().median < 1.0,
        "full deployment converges immediately"
    );
    println!("\nshape check: PASS (monotone decrease, collapse at 100%)");

    write_json("fig2_withdrawal", &[], &rows);
}
