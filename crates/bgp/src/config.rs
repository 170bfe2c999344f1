//! Router configuration.
//!
//! Defaults follow the Quagga configuration the paper's framework generates:
//! 30 s eBGP MRAI (advertisement-interval) with RFC 4271 §9.2.1.1 jitter,
//! millisecond-scale update processing delays, keepalives disabled in
//! experiments (hold negotiation still works when enabled).

use std::net::Ipv4Addr;

use bgpsdn_netsim::{LinkId, NodeId, SimDuration};

use crate::decision::DecisionConfig;
use crate::policy::{PolicyMode, Relationship, RouteMap};
use crate::types::{Asn, Prefix, RouterId};

/// Protocol timing knobs.
#[derive(Debug, Clone)]
pub struct TimingConfig {
    /// Minimum Route Advertisement Interval for eBGP sessions. It paces
    /// advertisements only: explicit withdrawals bypass a running timer
    /// (RFC 4271 §9.2.1.1).
    pub mrai: SimDuration,
    /// Uniform per-UPDATE processing delay window (router CPU model).
    pub processing_delay: (SimDuration, SimDuration),
    /// Proposed hold time in seconds; 0 disables keepalive/hold entirely.
    pub hold_time_secs: u16,
    /// RFC 4724 graceful restart: advertise the capability with this
    /// restart time and retain a dead peer's routes as stale for the
    /// negotiated window (min of both sides) after a hold-timer expiry.
    /// 0 disables GR entirely (the default).
    pub graceful_restart_secs: u16,
}

impl Default for TimingConfig {
    fn default() -> Self {
        TimingConfig {
            mrai: SimDuration::from_secs(30),
            processing_delay: (SimDuration::from_millis(1), SimDuration::from_millis(10)),
            hold_time_secs: 0,
            graceful_restart_secs: 0,
        }
    }
}

impl TimingConfig {
    /// Timing with a specific MRAI and everything else default.
    pub fn with_mrai(mrai: SimDuration) -> Self {
        TimingConfig {
            mrai,
            ..Default::default()
        }
    }
}

/// One configured neighbor.
#[derive(Debug, Clone)]
pub struct NeighborConfig {
    /// Logical session endpoint (the peer's node id).
    pub peer: NodeId,
    /// Physical link the session runs over.
    pub link: LinkId,
    /// Expected remote ASN.
    pub remote_asn: Asn,
    /// Business relationship of the neighbor relative to this router. A
    /// [`Relationship::Monitor`] session is not MRAI-throttled.
    pub relationship: Relationship,
    /// Extra import policy applied after relationship defaults.
    pub import_map: Option<RouteMap>,
    /// Extra export policy applied after relationship filtering.
    pub export_map: Option<RouteMap>,
    /// Maximum-prefix guardrail: tear the session down (NOTIFICATION
    /// Cease) when the peer advertises more prefixes than this.
    pub max_prefixes: Option<usize>,
}

impl NeighborConfig {
    /// A neighbor with default policy hooks.
    pub fn new(peer: NodeId, link: LinkId, remote_asn: Asn, relationship: Relationship) -> Self {
        NeighborConfig {
            peer,
            link,
            remote_asn,
            relationship,
            import_map: None,
            export_map: None,
            max_prefixes: None,
        }
    }

    /// A monitoring session toward a route collector: export-only and not
    /// MRAI-throttled, so measurements see updates promptly.
    pub fn monitor(peer: NodeId, link: LinkId, remote_asn: Asn) -> Self {
        NeighborConfig::new(peer, link, remote_asn, Relationship::Monitor)
    }
}

/// Complete configuration of one BGP router (one AS in the paper's
/// one-device-per-AS abstraction).
#[derive(Debug, Clone)]
pub struct RouterConfig {
    /// This router's AS number.
    pub asn: Asn,
    /// BGP identifier.
    pub router_id: RouterId,
    /// NEXT_HOP address used in advertisements.
    pub next_hop: Ipv4Addr,
    /// Policy regime.
    pub mode: PolicyMode,
    /// Decision-process knobs.
    pub decision: DecisionConfig,
    /// Timers.
    pub timing: TimingConfig,
    /// Sessions to run.
    pub neighbors: Vec<NeighborConfig>,
    /// Prefixes originated at startup.
    pub originate: Vec<Prefix>,
    /// Route-flap damping (RFC 2439); `None` disables it (the default, as
    /// in modern deployments — enable for the damping ablation).
    pub damping: Option<crate::damping::DampingConfig>,
}

impl RouterConfig {
    /// Minimal config: derive router-id and next-hop from the ASN
    /// (`10.255.x.y` scheme), no neighbors yet.
    pub fn new(asn: Asn) -> Self {
        let ip = Ipv4Addr::new(10, 255, (asn.0 >> 8) as u8, asn.0 as u8);
        RouterConfig {
            asn,
            router_id: RouterId::from_ip(ip),
            next_hop: ip,
            mode: PolicyMode::AllPermit,
            decision: DecisionConfig::default(),
            timing: TimingConfig::default(),
            neighbors: Vec::new(),
            originate: Vec::new(),
            damping: None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::router::{effective_mrai, MRAI_JITTER};
    use crate::session::{CONNECT_RETRY, CONNECT_STAGGER, KEEPALIVE_DIVISOR, MAX_CONNECT_RETRIES};

    #[test]
    fn default_timing_matches_quagga_profile() {
        let t = TimingConfig::default();
        assert_eq!(t.mrai, SimDuration::from_secs(30));
        assert_eq!(MRAI_JITTER, (0.75, 1.0));
        assert_eq!(KEEPALIVE_DIVISOR, 3);
        assert_eq!(CONNECT_STAGGER, SimDuration::from_millis(100));
        assert_eq!(CONNECT_RETRY, SimDuration::from_secs(1));
        assert_eq!(MAX_CONNECT_RETRIES, 5);
        assert_eq!(t.hold_time_secs, 0, "keepalives off by default");
        assert_eq!(t.graceful_restart_secs, 0, "GR off by default");
    }

    #[test]
    fn router_config_derives_identity() {
        let c = RouterConfig::new(Asn(0x0102));
        assert_eq!(c.next_hop, Ipv4Addr::new(10, 255, 1, 2));
        assert_eq!(Ipv4Addr::from(c.router_id.0), Ipv4Addr::new(10, 255, 1, 2));
    }

    #[test]
    fn monitor_neighbor_unthrottled() {
        let n = NeighborConfig::monitor(NodeId(9), LinkId(3), Asn(65535));
        assert_eq!(n.relationship, Relationship::Monitor);
        assert_eq!(
            effective_mrai(&n, SimDuration::from_secs(30)),
            SimDuration::ZERO
        );
        let peer = NeighborConfig::new(NodeId(9), LinkId(3), Asn(65535), Relationship::Peer);
        assert_eq!(
            effective_mrai(&peer, SimDuration::from_secs(30)),
            SimDuration::from_secs(30)
        );
    }
}
