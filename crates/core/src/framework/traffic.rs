//! Data-plane traffic probes — the framework's "monitoring end-to-end
//! connectivity with tools like ping" and loss measurement.
//!
//! [`Experiment::ping_stream`] drives a periodic echo stream between two
//! ASes through the *real* simulated data plane (legacy FIBs, flow tables,
//! relays) while the caller injects scenario events mid-stream, and reports
//! delivery, loss and outage statistics — what the paper's video demo shows
//! visually.

use std::net::Ipv4Addr;

use bgpsdn_netsim::{Counter, DataPacket, SimDuration};
use bgpsdn_sdn::ClusterMsg;

use super::experiment::Experiment;

/// Outcome of a probe stream.
#[derive(Debug, Clone, PartialEq)]
pub struct ProbeReport {
    /// Echo requests sent.
    pub sent: u64,
    /// Echo replies received back at the source.
    pub received: u64,
    /// `1 - received/sent`.
    pub loss_ratio: f64,
    /// Number of probe intervals with no reply (excluding the very first,
    /// which races the first probe's RTT).
    pub outage_intervals: u64,
    /// Longest run of reply-less intervals, as a duration.
    pub longest_outage: SimDuration,
    /// Reply timeline, one flag per interval.
    pub timeline: Vec<bool>,
}

impl Experiment {
    /// Replies delivered so far at the source AS device.
    fn replies_at(&self, src: usize) -> u64 {
        let node = self.net.ases[src].node;
        self.net.sim.counter(node, Counter::DataDelivered)
    }

    /// Run a periodic echo stream from AS `src` to `dst_addr` for `count`
    /// intervals of `interval` each. Each interval injects its probe, then
    /// runs `on_tick(exp, tick)`, where the scenario injects failures and
    /// recoveries, so a fault at tick k meets probe k on its way.
    pub fn ping_stream(
        &mut self,
        src: usize,
        dst_addr: Ipv4Addr,
        interval: SimDuration,
        count: u64,
        mut on_tick: impl FnMut(&mut Experiment, u64),
    ) -> ProbeReport {
        let src_ip = self.net.ases[src].router_ip;
        let src_node = self.net.ases[src].node;
        let mut last_seen = self.replies_at(src);
        let mut timeline = Vec::with_capacity(count as usize);
        let mut sent = 0u64;
        let mut received = 0u64;
        let t0 = self.net.sim.now();

        for tick in 0..count {
            sent += 1;
            self.net.sim.inject(
                src_node,
                ClusterMsg::Data(DataPacket::echo_request(src_ip, dst_addr, tick)),
            );
            on_tick(self, tick);
            let deadline = t0 + interval.saturating_mul(tick + 1);
            self.net.sim.run_until(deadline);
            let now_seen = self.replies_at(src);
            let got = now_seen > last_seen;
            received += now_seen - last_seen;
            last_seen = now_seen;
            timeline.push(got);
        }

        // Outage accounting: consecutive reply-less intervals after the
        // stream has warmed up.
        let mut outage_intervals = 0u64;
        let mut longest_run = 0u64;
        let mut run = 0u64;
        for &got in timeline.iter().skip(1) {
            if got {
                run = 0;
            } else {
                run += 1;
                outage_intervals += 1;
                longest_run = longest_run.max(run);
            }
        }
        ProbeReport {
            sent,
            received,
            loss_ratio: if sent == 0 {
                0.0
            } else {
                1.0 - received as f64 / sent as f64
            },
            outage_intervals,
            longest_outage: interval.saturating_mul(longest_run),
            timeline,
        }
    }
}
