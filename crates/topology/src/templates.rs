//! BGP configuration templates.
//!
//! Turns an annotated [`AsGraph`] plus an [`AddressPlan`] into per-AS
//! [`RouterConfig`] skeletons (neighbors are wired by the framework once
//! simulator node/link ids exist) and renders human-readable Quagga-style
//! configuration text — the "BGP policy templates" and configuration
//! management the paper's framework generates for its Quagga daemons.

use bgpsdn_bgp::{PolicyMode, Relationship, RouterConfig, RouterId, TimingConfig};

use crate::ipalloc::{AddressPlan, AllocError};
use crate::relationships::AsGraph;

/// Everything needed to instantiate the routers of a topology except the
/// simulator's node/link ids.
#[derive(Debug, Clone)]
pub struct TopologyPlan {
    /// The annotated AS graph.
    pub as_graph: AsGraph,
    /// The address plan (AS prefixes, router ips, link transfer nets).
    pub addresses: AddressPlan,
    /// Per-AS router configuration skeleton (no neighbors yet).
    pub routers: Vec<RouterConfig>,
}

/// Build the plan: allocate addresses, derive identities and originated
/// prefixes, set mode and timing.
pub fn plan(
    as_graph: AsGraph,
    mode: PolicyMode,
    timing: TimingConfig,
) -> Result<TopologyPlan, AllocError> {
    let addresses = AddressPlan::build(as_graph.len(), as_graph.edges.len())?;
    let mut routers = Vec::with_capacity(as_graph.len());
    for i in 0..as_graph.len() {
        let mut cfg = RouterConfig::new(as_graph.asns[i]);
        cfg.router_id = RouterId::from_ip(addresses.router_ips[i]);
        cfg.next_hop = addresses.router_ips[i];
        cfg.mode = mode;
        cfg.timing = timing.clone();
        cfg.originate = vec![addresses.as_prefixes[i]];
        routers.push(cfg);
    }
    Ok(TopologyPlan {
        as_graph,
        addresses,
        routers,
    })
}

impl TopologyPlan {
    /// Render the Quagga-style `bgpd.conf` for AS index `i` — purely for
    /// inspection/export; the simulator consumes [`RouterConfig`] directly.
    pub fn render_quagga(&self, i: usize) -> String {
        let cfg = &self.routers[i];
        let mut out = String::new();
        out.push_str(&format!("! bgpd.conf for {} (generated)\n", cfg.asn));
        out.push_str("hostname bgpd\npassword zebra\n!\n");
        out.push_str(&format!("router bgp {}\n", cfg.asn.0));
        out.push_str(&format!(" bgp router-id {}\n", cfg.router_id));
        for p in &cfg.originate {
            out.push_str(&format!(" network {p}\n"));
        }
        for (k, e) in self.as_graph.edges.iter().enumerate() {
            let (me, them) = if e.a == i {
                (e.a, e.b)
            } else if e.b == i {
                (e.b, e.a)
            } else {
                continue;
            };
            let (_, ip_a, ip_b) = self.addresses.link_nets[k];
            // Endpoint a of the edge gets the .1 address.
            let their_ip = if me == e.a { ip_b } else { ip_a };
            let rel = e.relationship_from(me);
            let remote_asn = self.as_graph.asns[them];
            out.push_str(&format!(
                " neighbor {their_ip} remote-as {}\n",
                remote_asn.0
            ));
            out.push_str(&format!(
                " neighbor {their_ip} description {:?}-session to {}\n",
                rel, remote_asn
            ));
            out.push_str(&format!(
                " neighbor {their_ip} advertisement-interval {}\n",
                self.routers[me].timing.mrai.as_nanos() / 1_000_000_000
            ));
            if self.routers[me].mode == PolicyMode::GaoRexford {
                out.push_str(&format!(
                    " neighbor {their_ip} route-map rm-{}-in in\n neighbor {their_ip} route-map rm-{}-out out\n",
                    rel_slug(rel), rel_slug(rel)
                ));
            }
        }
        out.push_str("!\n");
        if self.routers[i].mode == PolicyMode::GaoRexford {
            out.push_str(
                "route-map rm-customer-in permit 10\n set local-preference 130\n!\n\
                 route-map rm-peer-in permit 10\n set local-preference 110\n!\n\
                 route-map rm-provider-in permit 10\n set local-preference 90\n!\n",
            );
        }
        out
    }
}

fn rel_slug(r: Relationship) -> &'static str {
    match r {
        Relationship::Customer => "customer",
        Relationship::Peer => "peer",
        Relationship::Provider => "provider",
        Relationship::Monitor => "monitor",
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen;
    use crate::relationships::{AsEdge, EdgeKind};
    use bgpsdn_bgp::Asn;
    use bgpsdn_netsim::SimDuration;

    fn sample_plan(mode: PolicyMode) -> TopologyPlan {
        let ag = AsGraph {
            asns: vec![Asn(65001), Asn(65002), Asn(65003)],
            edges: vec![
                AsEdge {
                    a: 0,
                    b: 1,
                    kind: EdgeKind::ProviderCustomer,
                },
                AsEdge {
                    a: 1,
                    b: 2,
                    kind: EdgeKind::PeerPeer,
                },
            ],
        };
        plan(ag, mode, TimingConfig::default()).unwrap()
    }

    #[test]
    fn plan_assigns_identity_and_origin() {
        let tp = sample_plan(PolicyMode::GaoRexford);
        assert_eq!(tp.routers.len(), 3);
        assert_eq!(tp.routers[0].asn, Asn(65001));
        assert_eq!(tp.routers[1].originate, vec![tp.addresses.as_prefixes[1]]);
        assert_eq!(
            std::net::Ipv4Addr::from(tp.routers[2].router_id.0),
            tp.addresses.router_ips[2]
        );
        assert_eq!(tp.routers[0].mode, PolicyMode::GaoRexford);
    }

    #[test]
    fn quagga_rendering_contains_the_essentials() {
        let tp = sample_plan(PolicyMode::GaoRexford);
        let conf = tp.render_quagga(1);
        assert!(conf.contains("router bgp 65002"), "{conf}");
        assert!(conf.contains("network 10.1.0.0/16"), "{conf}");
        assert!(conf.contains("remote-as 65001"), "{conf}");
        assert!(conf.contains("remote-as 65003"), "{conf}");
        assert!(conf.contains("route-map rm-provider-in"), "{conf}");
        assert!(conf.contains("advertisement-interval 30"), "{conf}");
    }

    #[test]
    fn all_permit_render_has_no_route_maps() {
        let tp = sample_plan(PolicyMode::AllPermit);
        let conf = tp.render_quagga(0);
        assert!(!conf.contains("route-map"), "{conf}");
    }

    #[test]
    fn plan_scales_to_clique16() {
        let ag = AsGraph::all_peer(&gen::clique(16), 65000);
        let tp = plan(
            ag,
            PolicyMode::AllPermit,
            TimingConfig::with_mrai(SimDuration::from_secs(30)),
        )
        .unwrap();
        assert_eq!(tp.routers.len(), 16);
        assert_eq!(tp.addresses.link_nets.len(), 120);
        // Every router's config renders without panicking.
        for i in 0..16 {
            let c = tp.render_quagga(i);
            assert!(c.contains(&format!("router bgp {}", 65000 + i)));
        }
    }
}
