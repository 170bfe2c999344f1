//! Reproduce the paper's Figure 2: IDR convergence time of a route
//! withdrawal on a 16-AS clique versus the number of ASes with centralized
//! route control, 10 seeded runs per point — the grid `bgpsdn sweep --fig2`
//! runs, as a library call.
//!
//! ```sh
//! cargo run --release --example fig2_withdrawal
//! ```

use bgp_sdn_emu::prelude::*;

fn main() {
    let grid = CampaignGrid::fig2(10);
    let workers = std::thread::available_parallelism().map_or(1, |p| p.get());
    let report = run_campaign(&grid, workers, false);
    let artifact = Artifact::parse(&report.render_artifact(&grid)).expect("own artifact");
    // One line per cluster size: a roughly linear decrease of the median,
    // collapsing at full deployment.
    print!("{}", artifact.render_report());
}
