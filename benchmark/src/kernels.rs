//! Kernel replays (source C): one public function of each layer, timed in
//! isolation on inputs harvested from a workload's converged state — every
//! sampled router's Adj-RIB-In and Loc-RIB, the switches' flow tables, the
//! controller's switch graph and the external routes its neighbours
//! advertise, the run's own trace records. Reported as host ns per op.
//!
//! A kernel is what the layer costs when nothing else runs; multiplied by
//! the exact count of that operation it gives `attribution.kernel_share`,
//! the part of the measured wall the kernels explain.

use std::collections::{BTreeMap, BTreeSet};
use std::hint::black_box;
use std::time::Instant;

use bgpsdn_analyze::{check_safety, SafetyInput, SppCaps, SppInstance};
use bgpsdn_bgp::decision::select;
use bgpsdn_bgp::wire::Writer;
use bgpsdn_bgp::{
    export_allowed, import_allowed, import_local_pref, AdjRibIn, Asn, BgpMessage, Candidate,
    PeerIdx, PolicyMode, Prefix, RibInEntry, RouteSource, UpdateMsg,
};
use bgpsdn_collector::measure;
use bgpsdn_core::{
    accept_route, compute_into, ComputeScratch, Controller, Experiment, ExternalRoute,
    PrefixComputation, Router, Switch,
};
use bgpsdn_netsim::{EventBody, EventQueue, NodeId, SimRng, SimTime, TimerClass, TimerToken};
use bgpsdn_obs::event_line;
use bgpsdn_sdn::{ClusterMsg, FlowModOp, FlowRule, FlowTable, OfMessage};
use bgpsdn_topology::{AsGraph, TopologyPlan};

use crate::spans::SpanLog;
use crate::stats::{median, ratio};
use crate::workloads::{Layers, Sizes};

/// Timed passes per kernel; the median pass is reported.
const PASSES: usize = 3;

/// Routers whose state is harvested, spread evenly over the legacy ASes.
const SAMPLED_ROUTERS: usize = 16;

/// Median host nanoseconds per op over [`PASSES`] passes of `pass`, each
/// doing `ops` operations; 0 when there is nothing to replay.
fn ns_per_op(ops: usize, mut pass: impl FnMut()) -> f64 {
    if ops == 0 {
        return 0.0;
    }
    let mut samples = Vec::with_capacity(PASSES);
    for _ in 0..PASSES {
        let t0 = Instant::now();
        pass();
        samples.push(t0.elapsed().as_nanos() as f64 / ops as f64);
    }
    median(&mut samples)
}

/// Legacy routers to harvest from: every k-th one, at most
/// [`SAMPLED_ROUTERS`].
fn sampled_routers(exp: &Experiment) -> Vec<&Router> {
    let legacy: Vec<NodeId> = exp.net.legacy().map(|a| a.node).collect();
    let stride = legacy.len().div_ceil(SAMPLED_ROUTERS).max(1);
    legacy
        .iter()
        .step_by(stride)
        .map(|&n| exp.net.sim.node_ref::<Router>(n))
        .collect()
}

/// One accepted route as a router stores it, with where it was stored.
struct Route<'a> {
    router: &'a Router,
    prefix: Prefix,
    peer: PeerIdx,
    entry: &'a RibInEntry,
}

fn harvest_routes<'a>(routers: &[&'a Router], cap: usize) -> Vec<Route<'a>> {
    let per_router = cap.div_ceil(routers.len().max(1));
    let mut routes = Vec::new();
    for &router in routers {
        let rib = router.adj_in();
        routes.extend(
            rib.prefixes()
                .flat_map(|prefix| {
                    rib.candidates(prefix).map(move |(peer, entry)| Route {
                        router,
                        prefix,
                        peer,
                        entry,
                    })
                })
                .take(per_router),
        );
    }
    routes
}

/// `netsim.queue.push_pop_ns`: the classic hold model — pop the earliest
/// event, push one a link latency later — at the population the workload
/// grew its event slab to.
fn queue_hold(exp: &Experiment, sizes: &Sizes) -> f64 {
    let grown = usize::try_from(exp.net.sim.pool_stats().allocs_hot).unwrap_or(usize::MAX);
    let population = grown.clamp(1024, 1 << 20);
    let mut rng = SimRng::seed_from_u64(population as u64);
    let mut queue: EventQueue<ClusterMsg> = EventQueue::with_capacity(population);
    let timer = |i: u64| EventBody::Timer {
        node: NodeId((i % 1024) as u32),
        token: TimerToken(i),
        class: TimerClass::Progress,
        gen: 0,
    };
    for i in 0..population as u64 {
        queue.push(SimTime::from_nanos(rng.below(10_000_000)), timer(i));
    }
    let holds = sizes.kernel_items * 4;
    ns_per_op(holds, || {
        for i in 0..holds as u64 {
            let ev = queue.pop().expect("hold model never drains the queue");
            let later = ev.at.as_nanos() + 5_000_000 + rng.below(5_000_000);
            queue.push(SimTime::from_nanos(later), timer(i));
            black_box(&ev.body);
        }
    })
}

fn bgp_kernels(exp: &Experiment, sizes: &Sizes, layers: &mut Layers) {
    let routers = sampled_routers(exp);
    let routes = harvest_routes(&routers, sizes.kernel_items);

    // Wire codec on the UPDATEs that would carry the harvested routes.
    let messages: Vec<BgpMessage> = routes
        .iter()
        .map(|r| BgpMessage::Update(UpdateMsg::announce(vec![r.prefix], r.entry.attrs.clone())))
        .collect();
    let mut writer = Writer::with_capacity(128);
    let encode = ns_per_op(messages.len(), || {
        for m in &messages {
            m.encode_into(&mut writer);
            black_box(writer.len());
        }
    });
    let encoded: Vec<Vec<u8>> = messages.iter().map(BgpMessage::encode).collect();
    let decode = ns_per_op(encoded.len(), || {
        for bytes in &encoded {
            black_box(BgpMessage::decode(bytes).is_ok());
        }
    });
    layers.set("bgp.wire.encode_ns", encode);
    layers.set("bgp.wire.decode_ns", decode);

    // Decision process over every prefix each sampled router holds.
    let decisions: usize = routers.iter().map(|r| r.adj_in().prefixes().count()).sum();
    let select_ns = ns_per_op(decisions, || {
        for r in &routers {
            let rib = r.adj_in();
            for prefix in rib.prefixes() {
                let candidates = rib.candidates(prefix).map(|(peer, e)| Candidate {
                    attrs: &e.attrs,
                    source: RouteSource::Peer(peer),
                    peer_router_id: e.peer_router_id,
                });
                black_box(select(candidates, &r.config().decision).map(|c| c.source));
            }
        }
    });
    layers.set("bgp.decision.select_ns", select_ns);

    // Adj-RIB-In churn: insert every harvested route, then remove it.
    let rib_ns = ns_per_op(routes.len() * 2, || {
        let mut rib = AdjRibIn::default();
        for r in &routes {
            black_box(rib.insert(r.prefix, r.peer, r.entry.clone()));
        }
        for r in &routes {
            black_box(rib.remove(r.prefix, r.peer));
        }
    });
    layers.set("bgp.rib.insert_remove_ns", rib_ns);

    // Longest-prefix match of every AS's address in each sampled Loc-RIB.
    let addresses: Vec<std::net::Ipv4Addr> = exp.net.ases.iter().map(|a| a.router_ip).collect();
    let lpm_ns = ns_per_op(routers.len() * addresses.len(), || {
        for r in &routers {
            for ip in &addresses {
                black_box(r.loc_rib().lpm(*ip).map(|(p, _)| p));
            }
        }
    });
    layers.set("bgp.rib.lpm_ns", lpm_ns);

    // Import policy on each route, export policy toward each neighbour.
    let policy_ns = ns_per_op(routes.len(), || {
        for r in &routes {
            let cfg = r.router.config();
            let rel = cfg.neighbors[r.peer].relationship;
            if !import_allowed(rel) {
                continue;
            }
            let mut attrs = r.entry.attrs.clone();
            if let Some(lp) = import_local_pref(cfg.mode, rel) {
                attrs.local_pref = Some(lp);
            }
            let exported = cfg
                .neighbors
                .iter()
                .filter(|n| export_allowed(cfg.mode, Some(rel), n.relationship))
                .count();
            black_box((attrs, exported));
        }
    });
    layers.set("bgp.policy.apply_ns", policy_ns);
}

fn sdn_kernels(exp: &Experiment, sizes: &Sizes, layers: &mut Layers) {
    let switches: Vec<&Switch> = exp
        .net
        .members()
        .map(|a| exp.net.sim.node_ref::<Switch>(a.node))
        .collect();
    let rules: Vec<FlowRule> = switches
        .iter()
        .flat_map(|s| s.table().iter().cloned())
        .take(sizes.kernel_items)
        .collect();
    let install = ns_per_op(rules.len(), || {
        let mut table = FlowTable::new();
        for r in &rules {
            black_box(table.install(r.clone()));
        }
    });
    let addresses: Vec<std::net::Ipv4Addr> = exp.net.ases.iter().map(|a| a.router_ip).collect();
    let lookup = ns_per_op(switches.len() * addresses.len(), || {
        for s in &switches {
            for ip in &addresses {
                black_box(s.table().lookup(*ip).map(|r| r.action));
            }
        }
    });
    let codec = ns_per_op(rules.len(), || {
        for r in &rules {
            let msg = OfMessage::FlowMod {
                op: FlowModOp::Add,
                rule: r.clone(),
            };
            black_box(OfMessage::decode(&msg.encode()).is_ok());
        }
    });
    layers.set("sdn.flowtable.install_ns", install);
    layers.set("sdn.flowtable.lookup_ns", lookup);
    layers.set("sdn.openflow.codec_ns", codec);
}

/// The per-prefix inputs of one cluster's controller, rebuilt from outside:
/// the owner (if cluster-originated) and the external routes its legacy
/// neighbours currently advertise into the cluster, filtered by the
/// cluster loop-avoidance rule exactly as the controller filters them.
fn controller_inputs(
    exp: &Experiment,
    cluster: usize,
) -> Vec<(Prefix, Option<usize>, Vec<ExternalRoute>)> {
    let handle = &exp.net.clusters[cluster];
    let ctl = exp.net.sim.node_ref::<Controller>(handle.controller);
    let member_asns: BTreeSet<Asn> = handle
        .members
        .iter()
        .map(|&m| exp.net.ases[m].asn)
        .collect();
    let owners: BTreeMap<Prefix, usize> = ctl.owned_prefixes().collect();

    // Sessions are numbered in plan-edge order over the edges that cross
    // this cluster's boundary toward a legacy AS (see NetworkBuilder).
    let mut sessions: Vec<(usize, &Router, NodeId)> = Vec::new();
    for e in &exp.net.plan.as_graph.edges {
        let (legacy, member) = match (exp.net.cluster_of.get(&e.a), exp.net.cluster_of.get(&e.b)) {
            (None, Some(&c)) if c == cluster => (e.a, e.b),
            (Some(&c), None) if c == cluster => (e.b, e.a),
            _ => continue,
        };
        let local = handle
            .members
            .binary_search(&member)
            .expect("member lists are sorted");
        let router = exp.net.sim.node_ref::<Router>(exp.net.ases[legacy].node);
        sessions.push((local, router, exp.net.ases[member].node));
    }

    let mut inputs = Vec::new();
    for a in &exp.net.ases {
        let mut ext = Vec::new();
        for (session, (member, router, alias)) in sessions.iter().enumerate() {
            let Some(attrs) = router.advertised_to(*alias, a.prefix) else {
                continue;
            };
            let path = attrs.as_path.flatten();
            if accept_route(&path, &member_asns) {
                ext.push(ExternalRoute {
                    session,
                    member: *member,
                    as_path: path.into(),
                    med: attrs.med,
                });
            }
        }
        let owner = owners.get(&a.prefix).copied();
        if owner.is_some() || !ext.is_empty() {
            inputs.push((a.prefix, owner, ext));
        }
    }
    inputs
}

/// `core.controller.compute_ns_per_prefix`: `compute_into` with one reused
/// scratch over every prefix each controller tracks.
fn controller_kernel(exp: &Experiment, layers: &mut Layers) {
    let per_cluster: Vec<_> = (0..exp.net.clusters.len())
        .map(|c| controller_inputs(exp, c))
        .collect();
    let prefixes: usize = per_cluster.iter().map(Vec::len).sum();
    let mut scratch = ComputeScratch::default();
    let mut out = PrefixComputation::default();
    let ns = ns_per_op(prefixes, || {
        for (c, inputs) in per_cluster.iter().enumerate() {
            let ctl = exp
                .net
                .sim
                .node_ref::<Controller>(exp.net.clusters[c].controller);
            for (_, owner, ext) in inputs {
                compute_into(ctl.switch_graph(), *owner, ext, &mut scratch, &mut out);
                black_box(out.decisions.len());
            }
        }
    });
    layers.set("core.controller.compute_ns_per_prefix", ns);
}

/// Time the static analyzer's two entry points (source B) on a workload's
/// own plan: the safety pass as the builder's pre-flight runs it, and the
/// explicit SPP solver on the largest leading part of the AS graph that
/// fits its enumeration caps.
pub fn analyze_spans(plan: &TopologyPlan, members: &[usize], spans: &mut SpanLog) {
    let mode = plan
        .routers
        .first()
        .map_or(PolicyMode::AllPermit, |r| r.mode);
    let graph = &plan.as_graph;
    spans.time("analyze.check_safety", || {
        let input = SafetyInput {
            graph,
            mode,
            members,
            rules: &[],
        };
        black_box(check_safety(&input).ok())
    });
    let caps = SppCaps::default();
    let k = graph.len().min(caps.max_nodes);
    let head = AsGraph {
        asns: graph.asns[..k].to_vec(),
        edges: graph
            .edges
            .iter()
            .filter(|e| e.a < k && e.b < k)
            .cloned()
            .collect(),
    };
    spans.time("analyze.spp_solve", || {
        black_box(SppInstance::build(&head, mode, 0, &[], caps).map(|spp| spp.solve()))
    });
}

/// Replay every kernel on the converged state of `exp`.
pub fn replay(exp: &Experiment, sizes: &Sizes, layers: &mut Layers) {
    layers.set("netsim.queue.push_pop_ns", queue_hold(exp, sizes));
    bgp_kernels(exp, sizes, layers);
    sdn_kernels(exp, sizes, layers);
    controller_kernel(exp, layers);

    let board = exp.net.sim.board();
    let start = exp.phase_start();
    let measures = sizes.kernel_items;
    layers.set(
        "collector.measure_ns",
        ns_per_op(measures, || {
            for _ in 0..measures {
                black_box(measure(black_box(board), start, true).duration);
            }
        }),
    );

    let trace = exp.net.sim.trace();
    let records = trace.len().min(sizes.kernel_items);
    layers.set(
        "obs.event.encode_ns",
        ns_per_op(records, || {
            for r in trace.records().take(records) {
                black_box(event_line(r.time.as_nanos(), r.node.map(|n| n.0), &r.event).len());
            }
        }),
    );
}

/// `attribution.kernel_share`: Σ exact count × kernel ns/op over the
/// measured wall. `rendered` says whether the measured phase also rendered
/// its trace records (only `trace_forensics` does).
pub fn kernel_share(layers: &mut Layers, rendered: bool) {
    let term = |count: &str, kernels: &[&str]| {
        layers.get(count) * kernels.iter().map(|k| layers.get(k)).sum::<f64>()
    };
    let mut explained_ns = term("netsim.events", &["netsim.queue.push_pop_ns"])
        + term("netsim.msgs_delivered", &["bgp.wire.decode_ns"])
        + term("bgp.updates_sent", &["bgp.wire.encode_ns"])
        + term("bgp.decisions", &["bgp.decision.select_ns"])
        + term(
            "aux.updates_received",
            &["bgp.rib.insert_remove_ns", "bgp.policy.apply_ns"],
        )
        + term(
            "sdn.flow_mods",
            &["sdn.flowtable.install_ns", "sdn.openflow.codec_ns"],
        )
        + term(
            "core.controller.prefixes_recomputed",
            &["core.controller.compute_ns_per_prefix"],
        );
    if rendered {
        explained_ns += term("obs.trace_records", &["obs.event.encode_ns"]);
    }
    let wall_ns = layers.get("aux.measured_wall_s") * 1e9;
    layers.set("attribution.kernel_share", ratio(explained_ns, wall_ns));
}
