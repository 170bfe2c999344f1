//! **Table S2** (MRAI ablation): withdrawal convergence across MRAI values,
//! pure BGP versus a half-centralized clique. The slow Tdown of standard
//! BGP scales with the advertisement interval (path exploration happens in
//! MRAI-paced rounds); the SDN-assisted network is far flatter because the
//! cluster explores as a single decision point.

use bgpsdn_bench::{sweep, write_json, RUNS};
use bgpsdn_core::CampaignGrid;
use bgpsdn_netsim::SimDuration;
use bgpsdn_obs::impl_to_json;

struct Row {
    mrai_s: u64,
    pure_bgp_median_s: f64,
    half_sdn_median_s: f64,
    speedup: f64,
}

impl_to_json!(Row {
    mrai_s,
    pure_bgp_median_s,
    half_sdn_median_s,
    speedup
});

fn main() {
    println!("== Table S2: MRAI sensitivity, pure BGP vs 50% SDN ==");
    println!("16-AS clique withdrawal, {RUNS} runs/point (medians, seconds)\n");
    println!(
        "{:>8} {:>12} {:>12} {:>9}",
        "MRAI", "pure BGP", "50% SDN", "speedup"
    );

    let mut rows = Vec::new();
    for &mrai_s in &[0u64, 5, 15, 30] {
        // The Figure 2 grid at this MRAI, cut down to its 0 % and 50 % cells.
        let cells = sweep(&CampaignGrid {
            name: "tblS2".to_string(),
            cluster_sizes: vec![0, 8],
            mrai: SimDuration::from_secs(mrai_s),
            ..CampaignGrid::fig2(RUNS)
        });
        let (pure, half) = (cells[0].median, cells[1].median);
        let speedup = if half > 0.0 {
            pure / half
        } else {
            f64::INFINITY
        };
        println!("{mrai_s:>7}s {pure:>12.2} {half:>12.2} {speedup:>8.1}x");
        rows.push(Row {
            mrai_s,
            pure_bgp_median_s: pure,
            half_sdn_median_s: half,
            speedup,
        });
    }

    // Shape: both configurations scale linearly with MRAI (path exploration
    // among the remaining legacy ASes is still MRAI-paced), but the cluster
    // removes a constant fraction of the exploration rounds: a steady >2x
    // speedup whose absolute gap grows with MRAI.
    for row in rows.iter().filter(|r| r.mrai_s >= 5) {
        assert!(
            row.speedup >= 1.8,
            "SDN speedup must hold at MRAI {}s: {:.1}x",
            row.mrai_s,
            row.speedup
        );
    }
    let gap_small = rows[1].pure_bgp_median_s - rows[1].half_sdn_median_s;
    let gap_large = rows.last().unwrap().pure_bgp_median_s - rows.last().unwrap().half_sdn_median_s;
    assert!(
        gap_large > gap_small,
        "absolute saving must grow with MRAI: {gap_small:.1}s -> {gap_large:.1}s"
    );
    println!("\nshape check: PASS (steady >2x speedup; absolute saving grows with MRAI)");

    write_json("tblS2_mrai", &[], &rows);
}
