//! Snapshot extraction: freeze a running [`HybridNetwork`] into a
//! [`Snapshot`] the static verifier can analyze.
//!
//! This is the only place that knows how to read every device's live
//! state — legacy Loc-RIBs, switch flow tables and port maps, the
//! speaker's per-session adj-out, and the controller's compiled intent —
//! and how to map simulator node ids back onto topology-plan vertices.
//! The verifier itself (`bgpsdn-analyze`) never sees a simulator type.

use std::collections::BTreeMap;

use bgpsdn_analyze::{
    ControlHealth, Device, LegacyRoute, NextHop, NodeState, PortState, SessionSnap, Snapshot,
    SwitchRule,
};
use bgpsdn_bgp::PolicyMode;
use bgpsdn_netsim::NodeId;

use super::network::{AsKind, Controller, HybridNetwork, Router, Speaker, Switch};
use crate::controller::FLOW_PRIORITY;

/// Freeze the network's forwarding and control state into a [`Snapshot`].
///
/// The snapshot is self-contained: node indices are topology-plan vertex
/// indices, ports are simulator link ids, and link/node liveness is baked
/// into the port map and next-hop entries.
pub(crate) fn capture_snapshot(net: &HybridNetwork) -> Snapshot {
    let vert_of: BTreeMap<NodeId, usize> = net.ases.iter().map(|a| (a.node, a.index)).collect();

    let policy = net
        .plan
        .routers
        .first()
        .map_or(PolicyMode::AllPermit, |r| r.mode);

    // Cluster-originated prefixes, attributed to the owning member's vertex
    // (each controller reports cluster-local member indices; the cluster
    // handle's sorted member list maps them back to plan vertices).
    let mut member_originated: BTreeMap<usize, Vec<bgpsdn_bgp::Prefix>> = BTreeMap::new();
    for handle in &net.clusters {
        let ctl = net.sim.node_ref::<Controller>(handle.controller);
        for (p, m) in ctl.owned_prefixes() {
            if let Some(&v) = handle.members.get(m) {
                member_originated.entry(v).or_default().push(p);
            }
        }
    }

    let mut nodes = Vec::with_capacity(net.ases.len());
    for a in &net.ases {
        let (originated, device) = match a.kind {
            AsKind::Legacy => {
                let r = net.sim.node_ref::<Router>(a.node);
                let mut routes = Vec::new();
                for (prefix, entry) in r.loc_rib().iter() {
                    let next = match r.next_hop_node(prefix) {
                        None => NextHop::Deliver,
                        Some(peer_node) => match vert_of.get(&peer_node) {
                            Some(&pv) => {
                                let up = net
                                    .link_between(a.index, pv)
                                    .map(|l| net.sim.link(l).up)
                                    .unwrap_or(false)
                                    && net.sim.node_is_up(peer_node);
                                NextHop::Via { peer: pv, up }
                            }
                            // Next hop is not an AS device (e.g. the
                            // collector); not part of the data plane.
                            None => continue,
                        },
                    };
                    routes.push(LegacyRoute {
                        prefix,
                        next,
                        as_path: entry.attrs.as_path.flatten(),
                        stale: r.route_is_gr_stale(prefix),
                    });
                }
                (r.originated().collect(), Device::Legacy { routes })
            }
            AsKind::SdnMember => {
                let sw = net.sim.node_ref::<Switch>(a.node);
                let mut rules: Vec<SwitchRule> = sw
                    .table()
                    .iter()
                    .map(|r| SwitchRule {
                        priority: r.priority,
                        prefix: r.prefix,
                        action: r.action.repr(),
                    })
                    .collect();
                // Canonical order: a flow table is a set keyed by
                // (priority, prefix) — install order is an implementation
                // detail (e.g. a rule deleted and reinstalled after a
                // fault moves to the end) and must not leak into
                // snapshot comparisons.
                rules.sort_by(|x, y| y.priority.cmp(&x.priority).then(x.prefix.cmp(&y.prefix)));
                // Port map: every incident plan edge, with live state.
                let mut ports = Vec::new();
                for (k, e) in net.plan.as_graph.edges.iter().enumerate() {
                    if e.a != a.index && e.b != a.index {
                        continue;
                    }
                    let peer = if e.a == a.index { e.b } else { e.a };
                    let link = net.edge_links[k];
                    let up = net.sim.link(link).up && net.sim.node_is_up(net.ases[peer].node);
                    ports.push(PortState {
                        port: link.0,
                        peer,
                        up,
                    });
                }
                let member = net.member_index.get(&a.index).copied().unwrap_or(0);
                (
                    member_originated.remove(&a.index).unwrap_or_default(),
                    Device::Member {
                        member,
                        rules,
                        ports,
                    },
                )
            }
        };
        nodes.push(NodeState {
            name: net.sim.node_name(a.node).to_string(),
            asn: a.asn,
            originated,
            device,
        });
    }

    let edges = net.plan.as_graph.edges.clone();

    // Control health is the worst state across all deployed clusters
    // (Headless > Resyncing > Synced); with one cluster this is exactly
    // the historical single-triple classification.
    let control = net
        .clusters
        .iter()
        .map(|handle| {
            let ctl = net.sim.node_ref::<Controller>(handle.controller);
            let spk = net.sim.node_ref::<Speaker>(handle.speaker);
            if !net.sim.node_is_up(handle.controller) || spk.is_headless() {
                ControlHealth::Headless
            } else if ctl.epoch() == 0 || ctl.resync_pending() {
                ControlHealth::Resyncing
            } else {
                ControlHealth::Synced
            }
        })
        .max()
        .unwrap_or(ControlHealth::NoCluster);

    // Intent flows run in global member order (cluster-major — the same
    // order `member_index` assigns); sessions are concatenated in cluster
    // order, so a single cluster reproduces the historical layout exactly.
    let mut intent_flows = Vec::new();
    let mut sessions = Vec::new();
    let flow_priority = if net.clusters.is_empty() {
        0
    } else {
        FLOW_PRIORITY
    };
    for handle in &net.clusters {
        let ctl = net.sim.node_ref::<Controller>(handle.controller);
        let spk = net.sim.node_ref::<Speaker>(handle.speaker);
        for m in 0..ctl.member_count() {
            intent_flows.push(
                ctl.installed_table(m)
                    .iter()
                    .map(|(p, action)| (*p, action.repr()))
                    .collect(),
            );
        }
        for s in 0..spk.session_count() {
            let cfg = spk.session_config(s);
            let (Some(&member), Some(&ext_peer)) =
                (vert_of.get(&cfg.alias), vert_of.get(&cfg.ext_peer))
            else {
                continue;
            };
            let intent = ctl
                .adj_out_table(s)
                .iter()
                .map(|(p, path)| (*p, path.as_slice().to_vec()))
                .collect();
            let actual = spk
                .adj_out_table(s)
                .into_iter()
                .map(|(p, path, _med)| (p, path.as_slice().to_vec()))
                .collect();
            sessions.push(SessionSnap {
                member,
                ext_peer,
                established: spk.session_established(s),
                ctrl_up: ctl.session_is_up(s),
                intent,
                actual,
            });
        }
    }

    Snapshot {
        nodes,
        edges,
        policy,
        control,
        flow_priority,
        intent_flows,
        sessions,
    }
}
