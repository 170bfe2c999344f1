//! The hybrid network builder.
//!
//! Takes a [`TopologyPlan`] (annotated AS graph + addresses + per-AS router
//! configs) and a set of SDN member indices, and assembles the complete
//! simulation the paper's Figure 1 shows: legacy BGP routers on the left,
//! the SDN cluster (switches, cluster BGP speaker, IDR controller) on the
//! right, a route collector peering with every legacy router, and all the
//! links and relay/control wiring in between. "The framework automatically
//! assigns IP addresses and configures network devices" — this module is
//! that configuration management.

use std::collections::BTreeMap;
use std::net::Ipv4Addr;

use bgpsdn_bgp::{Asn, BgpRouter, DampingConfig, NeighborConfig, Prefix, RouterId};
use bgpsdn_collector::RouteCollector;
use bgpsdn_netsim::{LatencyModel, LinkId, NodeId, SimDuration, Simulator};
use bgpsdn_sdn::{AliasSessionConfig, ClusterMsg, ClusterSpeaker, SdnSwitch};
use bgpsdn_topology::TopologyPlan;

use crate::controller::{ControllerConfig, IdrController, MemberConfig, SessionConfig};

use super::deploy::DeploymentStrategy;

/// Concrete node types instantiated by the framework.
pub type Router = BgpRouter<ClusterMsg>;
/// The switch type used by the framework.
pub type Switch = SdnSwitch<ClusterMsg>;
/// The speaker type used by the framework.
pub type Speaker = ClusterSpeaker<ClusterMsg>;
/// The controller type used by the framework.
pub type Controller = IdrController<ClusterMsg>;
/// The collector type used by the framework.
pub type Collector = RouteCollector<ClusterMsg>;
/// The simulator type used by the framework.
pub type Sim = Simulator<ClusterMsg>;

/// The collector's private ASN.
pub const COLLECTOR_ASN: Asn = Asn(64512);

/// Whether an AS runs legacy BGP or is a cluster member.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AsKind {
    /// Standard BGP router.
    Legacy,
    /// SDN cluster member (switch; sessions terminated by the speaker).
    SdnMember,
}

/// One AS in the built network.
#[derive(Debug, Clone)]
pub struct AsHandle {
    /// Index in the topology plan.
    pub index: usize,
    /// The simulator node emulating this AS.
    pub node: NodeId,
    /// Legacy or member.
    pub kind: AsKind,
    /// The AS number.
    pub asn: Asn,
    /// The prefix this AS originates.
    pub prefix: Prefix,
    /// The AS device's identity address.
    pub router_ip: Ipv4Addr,
}

/// One deployed SDN cluster: its control-plane triple plus membership.
#[derive(Debug, Clone)]
pub struct ClusterHandle {
    /// This cluster's BGP speaker node.
    pub speaker: NodeId,
    /// This cluster's IDR controller node.
    pub controller: NodeId,
    /// This cluster's controller↔speaker control channel.
    pub speaker_link: LinkId,
    /// Member AS indices, sorted ascending; positions are the cluster-local
    /// member indices the controller and speaker use.
    pub members: Vec<usize>,
}

/// A fully wired hybrid network, ready to run.
pub struct HybridNetwork {
    /// The simulator.
    pub sim: Sim,
    /// Per-AS handles, aligned with the plan's vertex indices.
    pub ases: Vec<AsHandle>,
    /// Inter-AS links, aligned with the plan's edge indices.
    pub edge_links: Vec<LinkId>,
    /// The route collector. Every built network has one; the `Option`
    /// stays only because the benchmark harness (`stepper.rs`,
    /// `workloads/mod.rs`) matches on it. ROADMAP item 2 settles it.
    pub collector: Option<NodeId>,
    /// Every deployed cluster, in deployment order. Empty for a pure
    /// legacy network.
    pub clusters: Vec<ClusterHandle>,
    /// The topology plan the network was built from.
    pub plan: TopologyPlan,
    /// AS index → global member index (cluster-major order) for cluster
    /// members. With one cluster this is the member's index in the
    /// controller's configuration.
    pub member_index: BTreeMap<usize, usize>,
    /// AS index → owning cluster index for cluster members.
    pub cluster_of: BTreeMap<usize, usize>,
    /// Auto-run the static verifier at experiment checkpoints (after
    /// convergence waits and after each fault-plan action).
    pub auto_verify: bool,
}

impl HybridNetwork {
    /// The link between two AS indices, if adjacent in the plan.
    pub fn link_between(&self, a: usize, b: usize) -> Option<LinkId> {
        self.plan
            .as_graph
            .edges
            .iter()
            .position(|e| (e.a == a && e.b == b) || (e.a == b && e.b == a))
            .map(|k| self.edge_links[k])
    }

    /// Handles of all legacy ASes.
    pub fn legacy(&self) -> impl Iterator<Item = &AsHandle> {
        self.ases.iter().filter(|a| a.kind == AsKind::Legacy)
    }

    /// Handles of all cluster members.
    pub fn members(&self) -> impl Iterator<Item = &AsHandle> {
        self.ases.iter().filter(|a| a.kind == AsKind::SdnMember)
    }

    /// The cluster handle owning an AS index, if it is a member.
    pub(crate) fn cluster_for(&self, as_index: usize) -> Option<&ClusterHandle> {
        self.cluster_of.get(&as_index).map(|&c| &self.clusters[c])
    }
}

/// Builder with the framework's configuration-management defaults.
pub struct NetworkBuilder {
    plan: TopologyPlan,
    deployment: Option<DeploymentStrategy>,
    seed: u64,
    data_latency: Option<LatencyModel>,
    ctl_latency: LatencyModel,
    recompute_delay: SimDuration,
    edge_latencies: Option<Vec<SimDuration>>,
    control_loss: f64,
    auto_verify: bool,
    damping: Option<DampingConfig>,
}

impl NetworkBuilder {
    /// Start from a plan and an experiment seed.
    pub fn new(plan: TopologyPlan, seed: u64) -> Self {
        NetworkBuilder {
            plan,
            deployment: None,
            seed,
            data_latency: None,
            ctl_latency: LatencyModel::Fixed(SimDuration::from_millis(1)),
            recompute_delay: SimDuration::from_millis(100),
            edge_latencies: None,
            control_loss: 0.0,
            auto_verify: false,
            damping: None,
        }
    }

    /// The pre-flight report [`build`](Self::build) will gate on: static
    /// policy safety of the plan plus cluster-membership and timer
    /// consistency — a deployment that cannot be resolved is one
    /// `cluster.deployment` error. Inspect it without building anything.
    pub fn preflight(&self) -> bgpsdn_analyze::AnalysisReport {
        match self.resolved_clusters() {
            Ok(clusters) => super::preflight::check_plan(&self.plan, &clusters),
            Err(e) => {
                let mut report = bgpsdn_analyze::AnalysisReport::new();
                report.checked();
                report.error("cluster.deployment", e);
                report
            }
        }
    }

    /// The cluster membership this builder will deploy, with any
    /// [`DeploymentStrategy`] resolved against the plan's topology.
    ///
    /// # Errors
    ///
    /// Propagates the strategy's fail-fast validation (infeasible budget,
    /// out-of-range or overlapping members).
    fn resolved_clusters(&self) -> Result<Vec<Vec<usize>>, String> {
        match &self.deployment {
            Some(strategy) => strategy.assign(&self.plan.as_graph, self.seed),
            None => Ok(Vec::new()),
        }
    }

    /// Enable RFC 2439 route-flap damping on every legacy router (the
    /// distributed ablation baseline to the controller's delayed
    /// recomputation).
    pub fn with_damping(mut self, cfg: DampingConfig) -> Self {
        self.damping = Some(cfg);
        self
    }

    /// Run the static data-plane verifier automatically at experiment
    /// checkpoints (after `wait_converged` and after each fault action).
    /// Violations are emitted as `VerifyViolation` trace events and
    /// `verify.*` counters; they never panic.
    pub fn with_verification(mut self) -> Self {
        self.auto_verify = true;
        self
    }

    /// Put these AS indices under centralized control, as one cluster.
    pub fn with_sdn_members(mut self, members: impl IntoIterator<Item = usize>) -> Self {
        let mut members: Vec<usize> = members.into_iter().collect();
        members.sort_unstable();
        members.dedup();
        self.deployment =
            (!members.is_empty()).then(|| DeploymentStrategy::Explicit(vec![members]));
        self
    }

    /// Choose cluster membership through a [`DeploymentStrategy`], resolved
    /// against the plan's AS graph (and the experiment seed, for the random
    /// strategy) when the network is built.
    pub fn with_deployment(mut self, strategy: DeploymentStrategy) -> Self {
        self.deployment = Some(strategy);
        self
    }

    /// Override the inter-AS link latency model (default: 5 ms + up to 5 ms
    /// jitter).
    pub fn with_data_latency(mut self, model: LatencyModel) -> Self {
        self.data_latency = Some(model);
        self
    }

    /// Per-edge fixed latencies (e.g. from an iPlane-derived topology),
    /// aligned with the plan's edge order. Overrides the latency model.
    pub fn with_edge_latencies(mut self, latencies: Vec<SimDuration>) -> Self {
        assert_eq!(latencies.len(), self.plan.as_graph.edges.len());
        self.edge_latencies = Some(latencies);
        self
    }

    /// Override the control-plane link latency model (relay, OF control and
    /// speaker↔controller links; default: fixed 1 ms).
    pub fn with_ctl_latency(mut self, model: LatencyModel) -> Self {
        self.ctl_latency = model;
        self
    }

    /// Random per-message loss probability on the speaker↔controller
    /// channel. The reliable control protocol must mask this; it is the
    /// knob the controller-outage experiments turn.
    pub fn with_control_loss(mut self, loss: f64) -> Self {
        assert!((0.0..=1.0).contains(&loss));
        self.control_loss = loss;
        self
    }

    /// Set the controller's delayed-recomputation window.
    pub fn with_recompute_delay(mut self, d: SimDuration) -> Self {
        self.recompute_delay = d;
        self
    }

    /// Assemble the network.
    ///
    /// # Panics
    ///
    /// Panics with the analyzer's rendered report if the static pre-flight
    /// check finds any error (out-of-range cluster member, policy-unsafe
    /// provider hierarchy, cluster boundary conflict, inconsistent timers).
    pub fn build(self) -> HybridNetwork {
        let clusters = self
            .resolved_clusters()
            .unwrap_or_else(|e| panic!("invalid cluster deployment: {e}"));
        let report = super::preflight::check_plan(&self.plan, &clusters);
        assert!(report.ok(), "pre-flight check failed:\n{}", report.render());
        let plan = self.plan;
        let n = plan.as_graph.len();
        let k = clusters.len();
        // Membership maps: global member indices run cluster-major, so a
        // single cluster reproduces the historical ascending-AS numbering.
        let mut member_index: BTreeMap<usize, usize> = BTreeMap::new();
        let mut cluster_of: BTreeMap<usize, usize> = BTreeMap::new();
        let mut local_index: BTreeMap<usize, usize> = BTreeMap::new();
        for (c, members) in clusters.iter().enumerate() {
            for (mi, &asi) in members.iter().enumerate() {
                let global = member_index.len();
                member_index.insert(asi, global);
                cluster_of.insert(asi, c);
                local_index.insert(asi, mi);
            }
        }
        // Pre-size the event heap: steady state carries roughly one in-flight
        // event per link (delivery or timer) plus per-node timers, so nodes +
        // links is a good floor that avoids growth reallocations mid-dispatch.
        let n_edges = plan.as_graph.edges.len();
        let n_members = member_index.len();
        let approx_nodes = n + 2 * k + 1; // ASes + per-cluster speaker/controller + collector
        let approx_links = n_edges + 2 * n_members + k.max(1) + n;
        let mut sim = Sim::with_event_capacity(self.seed, 2 * (approx_nodes + approx_links));

        // 1. AS nodes, sharing one attribute table that dies with the network.
        let attr_table = bgpsdn_bgp::attrs::AttrTable::default();
        let mut ases: Vec<AsHandle> = Vec::with_capacity(n);
        for i in 0..n {
            let asn = plan.as_graph.asns[i];
            let prefix = plan.addresses.as_prefixes[i];
            let router_ip = plan.addresses.router_ips[i];
            let (node, kind) = if member_index.contains_key(&i) {
                let node = sim.add_node(format!("sw{}", asn.0), |_| Switch::new(asn.0 as u64));
                (node, AsKind::SdnMember)
            } else {
                let mut cfg = plan.routers[i].clone();
                cfg.damping = self.damping.clone();
                let node = sim.add_node(format!("as{}", asn.0), |id| {
                    Router::new(id, cfg).with_attr_table(attr_table.clone())
                });
                (node, AsKind::Legacy)
            };
            ases.push(AsHandle {
                index: i,
                node,
                kind,
                asn,
                prefix,
                router_ip,
            });
        }

        // One speaker/controller pair per cluster, named by cluster index.
        // Node names reach no trace or artifact (snapshots name AS devices).
        let mut ctl_nodes: Vec<(NodeId, NodeId)> = Vec::with_capacity(k);
        for c in 0..k {
            let sp = sim.add_node(format!("speaker{c}"), |_| Speaker::default());
            let ct = sim.add_node(format!("controller{c}"), |id| {
                Controller::new(id, ControllerConfig::new(vec![], vec![], vec![], LinkId(0)))
            });
            ctl_nodes.push((sp, ct));
        }
        let collector_node = sim.add_node("collector", |id| {
            Collector::new(id, COLLECTOR_ASN, RouterId(1))
        });

        // 2. Inter-AS links.
        let default_latency = self.data_latency.unwrap_or(LatencyModel::Jittered {
            base: SimDuration::from_millis(5),
            jitter: SimDuration::from_millis(5),
        });
        let mut edge_links = Vec::with_capacity(plan.as_graph.edges.len());
        for (k, e) in plan.as_graph.edges.iter().enumerate() {
            let latency = match &self.edge_latencies {
                Some(l) => LatencyModel::Fixed(l[k]),
                None => default_latency.clone(),
            };
            let link = sim.add_link(ases[e.a].node, ases[e.b].node, latency);
            edge_links.push(link);
        }

        // 3. Cluster wiring: relay links, control links, control channels —
        // one independent triple per cluster.
        let mut relay_links: BTreeMap<usize, LinkId> = BTreeMap::new(); // AS idx → link
        let mut ctl_links: BTreeMap<usize, LinkId> = BTreeMap::new(); // AS idx → link
        let mut cluster_handles: Vec<ClusterHandle> = Vec::with_capacity(k);
        for (c, members) in clusters.iter().enumerate() {
            let (speaker_node, controller_node) = ctl_nodes[c];
            for &asi in members {
                let relay = sim.add_link(speaker_node, ases[asi].node, self.ctl_latency.clone());
                relay_links.insert(asi, relay);
                let ctl = sim.add_link(controller_node, ases[asi].node, self.ctl_latency.clone());
                ctl_links.insert(asi, ctl);
            }
            let speaker_link =
                sim.add_link(controller_node, speaker_node, self.ctl_latency.clone());
            if self.control_loss > 0.0 {
                sim.set_link_loss(speaker_link, self.control_loss);
            }
            cluster_handles.push(ClusterHandle {
                speaker: speaker_node,
                controller: controller_node,
                speaker_link,
                members: members.clone(),
            });
        }

        // 4. Per-edge configuration. Alias sessions exist for edges
        // crossing a cluster boundary — toward the legacy world, or toward
        // another cluster (where both speakers impersonate their border
        // member and the session runs speaker↔speaker over the two border
        // switches' relays).
        let mut sessions: Vec<Vec<SessionConfig>> = vec![Vec::new(); k];
        for (ei, e) in plan.as_graph.edges.iter().enumerate() {
            let link = edge_links[ei];
            let (a, b) = (e.a, e.b);
            let a_cluster = cluster_of.get(&a).copied();
            let b_cluster = cluster_of.get(&b).copied();
            match (a_cluster, b_cluster) {
                (None, None) => {
                    // Legacy ↔ legacy: ordinary eBGP both ways.
                    let rel_a = e.relationship_from(a);
                    let (na, nb) = (ases[a].node, ases[b].node);
                    let (asn_a, asn_b) = (ases[a].asn, ases[b].asn);
                    sim.with_node::<Router, _>(na, |r| {
                        r.add_neighbor(NeighborConfig::new(nb, link, asn_b, rel_a));
                    });
                    sim.with_node::<Router, _>(nb, |r| {
                        r.add_neighbor(NeighborConfig::new(na, link, asn_a, rel_a.inverse()));
                    });
                }
                (None, Some(mc)) | (Some(mc), None) => {
                    // Legacy ↔ member: alias session via the member's
                    // cluster speaker.
                    let (legacy_i, member_i) = if a_cluster.is_none() { (a, b) } else { (b, a) };
                    let rel_legacy = e.relationship_from(legacy_i);
                    let (ln, mn) = (ases[legacy_i].node, ases[member_i].node);
                    let member_asn = ases[member_i].asn;
                    sim.with_node::<Router, _>(ln, |r| {
                        r.add_neighbor(NeighborConfig::new(mn, link, member_asn, rel_legacy));
                    });
                    let relay = relay_links[&member_i];
                    sim.with_node::<Switch, _>(mn, |s| {
                        s.add_relay(mn, relay);
                        s.add_relay(ln, link);
                    });
                    let speaker_node = cluster_handles[mc].speaker;
                    let legacy_asn = ases[legacy_i].asn;
                    let alias_id = RouterId::from_ip(ases[member_i].router_ip);
                    let alias_nh = ases[member_i].router_ip;
                    let sess_idx = sim.with_node::<Speaker, _>(speaker_node, |s| {
                        s.add_session(AliasSessionConfig {
                            alias: mn,
                            alias_asn: member_asn,
                            alias_router_id: alias_id,
                            alias_next_hop: alias_nh,
                            ext_peer: ln,
                            remote_asn: legacy_asn,
                            via_link: relay,
                        })
                    });
                    assert_eq!(sess_idx, sessions[mc].len(), "session order must align");
                    sessions[mc].push(SessionConfig {
                        member: local_index[&member_i],
                        ext_peer: ln,
                        ext_asn: legacy_asn,
                        ext_link: link,
                    });
                }
                (Some(ca), Some(cb)) if ca == cb => {
                    // Member ↔ member inside one cluster: intra-cluster
                    // link, wired into the controller config below; no BGP.
                }
                (Some(ca), Some(cb)) => {
                    // Inter-cluster boundary: each side's speaker runs an
                    // alias session as its border member, peering with the
                    // remote border switch like an external router. The
                    // switches relay by envelope destination, so the
                    // speaker↔speaker session transits both borders.
                    for (this_i, other_i, tc) in [(a, b, ca), (b, a, cb)] {
                        let (tn, on) = (ases[this_i].node, ases[other_i].node);
                        let relay = relay_links[&this_i];
                        sim.with_node::<Switch, _>(tn, |s| {
                            s.add_relay(tn, relay);
                            s.add_relay(on, link);
                        });
                        let speaker_node = cluster_handles[tc].speaker;
                        let (this_asn, other_asn) = (ases[this_i].asn, ases[other_i].asn);
                        let sess_idx = sim.with_node::<Speaker, _>(speaker_node, |s| {
                            s.add_session(AliasSessionConfig {
                                alias: tn,
                                alias_asn: this_asn,
                                alias_router_id: RouterId::from_ip(ases[this_i].router_ip),
                                alias_next_hop: ases[this_i].router_ip,
                                ext_peer: on,
                                remote_asn: other_asn,
                                via_link: relay,
                            })
                        });
                        assert_eq!(sess_idx, sessions[tc].len(), "session order must align");
                        sessions[tc].push(SessionConfig {
                            member: local_index[&this_i],
                            ext_peer: on,
                            ext_asn: other_asn,
                            ext_link: link,
                        });
                    }
                }
            }
        }

        // 5. Finalize per-cluster configuration.
        for (c, members) in clusters.iter().enumerate() {
            let handle = &cluster_handles[c];
            let speaker_link = handle.speaker_link;
            sim.with_node::<Speaker, _>(handle.speaker, |s| {
                s.set_controller_link(speaker_link);
            });
            for &asi in members {
                let ctl = ctl_links[&asi];
                sim.with_node::<Switch, _>(ases[asi].node, |s| {
                    s.set_controller_link(ctl);
                });
            }
            let member_cfgs: Vec<MemberConfig> = members
                .iter()
                .map(|&asi| MemberConfig {
                    switch: ases[asi].node,
                    asn: ases[asi].asn,
                    prefix: ases[asi].prefix,
                    ctl_link: ctl_links[&asi],
                })
                .collect();
            let intra: Vec<(usize, usize, LinkId)> = plan
                .as_graph
                .edges
                .iter()
                .enumerate()
                .filter_map(|(ei, e)| {
                    let (ca, cb) = (cluster_of.get(&e.a)?, cluster_of.get(&e.b)?);
                    if *ca != c || *cb != c {
                        return None;
                    }
                    Some((local_index[&e.a], local_index[&e.b], edge_links[ei]))
                })
                .collect();
            let mut cfg = ControllerConfig::new(
                member_cfgs,
                intra,
                std::mem::take(&mut sessions[c]),
                speaker_link,
            );
            cfg.recompute_delay = self.recompute_delay;
            sim.with_node::<Controller, _>(handle.controller, |ctrl| ctrl.set_config(cfg));
        }

        // 6. Collector peering with every legacy router.
        let legacy: Vec<usize> = (0..n).filter(|i| !member_index.contains_key(i)).collect();
        for i in legacy {
            let link = sim.add_link(ases[i].node, collector_node, self.ctl_latency.clone());
            let rn = ases[i].node;
            sim.with_node::<Router, _>(rn, |r| {
                r.add_neighbor(NeighborConfig::monitor(collector_node, link, COLLECTOR_ASN));
            });
            let asn = ases[i].asn;
            sim.with_node::<Collector, _>(collector_node, |c| {
                c.add_monitored(rn, asn, link);
            });
        }

        HybridNetwork {
            sim,
            ases,
            edge_links,
            collector: Some(collector_node),
            clusters: cluster_handles,
            plan,
            member_index,
            cluster_of,
            auto_verify: self.auto_verify,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::framework::Placement;
    use bgpsdn_bgp::{PolicyMode, TimingConfig};
    use bgpsdn_topology::{gen, plan, AsGraph};

    fn clique_plan(n: usize) -> TopologyPlan {
        plan(
            AsGraph::all_peer(&gen::clique(n), 65000),
            PolicyMode::AllPermit,
            TimingConfig::with_mrai(SimDuration::ZERO),
        )
        .unwrap()
    }

    #[test]
    fn pure_legacy_network_has_no_cluster() {
        let net = NetworkBuilder::new(clique_plan(4), 1).build();
        assert!(net.clusters.is_empty());
        assert!(net.collector.is_some());
        assert_eq!(net.ases.len(), 4);
        assert_eq!(net.edge_links.len(), 6);
        assert_eq!(net.legacy().count(), 4);
        // 6 AS links + 4 collector links.
        assert_eq!(net.sim.link_count(), 10);
    }

    #[test]
    fn hybrid_network_wires_cluster() {
        let net = NetworkBuilder::new(clique_plan(4), 1)
            .with_sdn_members([2, 3])
            .build();
        assert_eq!(net.clusters.len(), 1);
        assert_eq!(net.members().count(), 2);
        assert_eq!(net.legacy().count(), 2);
        assert_eq!(net.member_index[&2], 0);
        assert_eq!(net.member_index[&3], 1);
        // Links: 6 AS + 2 relay + 2 ctl + 1 speaker-ctl + 2 collector = 13.
        assert_eq!(net.sim.link_count(), 13);
        assert!(net.link_between(0, 1).is_some());
        assert!(net.link_between(0, 0).is_none());
    }

    #[test]
    #[should_panic]
    fn member_out_of_range_panics() {
        let _ = NetworkBuilder::new(clique_plan(3), 1)
            .with_sdn_members([7])
            .build();
    }

    #[test]
    fn two_clusters_get_independent_control_planes() {
        let net = NetworkBuilder::new(clique_plan(6), 1)
            .with_deployment(DeploymentStrategy::Explicit(vec![vec![0, 1], vec![4, 5]]))
            .build();
        assert_eq!(net.clusters.len(), 2);
        assert_eq!(net.members().count(), 4);
        assert_ne!(net.clusters[0].controller, net.clusters[1].controller);
        assert_ne!(net.clusters[0].speaker_link, net.clusters[1].speaker_link);
        // Global member indices run cluster-major.
        assert_eq!(net.member_index[&0], 0);
        assert_eq!(net.member_index[&5], 3);
        assert_eq!(net.cluster_of[&4], 1);
        assert_eq!(net.cluster_for(4).unwrap().members, vec![4, 5]);
        // Links: 15 AS edges + 2 clusters x (2 relay + 2 ctl + 1 channel)
        // + 2 collector links for the two legacy ASes.
        assert_eq!(net.sim.link_count(), 15 + 10 + 2);
    }

    #[test]
    fn deployment_strategy_resolves_at_build() {
        let net = NetworkBuilder::new(clique_plan(8), 3)
            .with_deployment(DeploymentStrategy::Placed {
                placement: Placement::Tail,
                clusters: 2,
                total: 4,
            })
            .build();
        assert_eq!(net.clusters.len(), 2);
        assert_eq!(net.clusters[0].members, vec![4, 5]);
        assert_eq!(net.clusters[1].members, vec![6, 7]);
    }

    #[test]
    #[should_panic(expected = "invalid cluster deployment")]
    fn overlapping_clusters_panic() {
        let _ = NetworkBuilder::new(clique_plan(6), 1)
            .with_deployment(DeploymentStrategy::Explicit(vec![vec![0, 1], vec![1, 2]]))
            .build();
    }
}
