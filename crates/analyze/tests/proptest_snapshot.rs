//! The snapshot is the verifier's one outside input: `bgpsdn verify`
//! reads it back from any artifact. Its JSON form must round-trip every
//! snapshot exactly, and no index field, whatever its value, may make
//! parsing, verifying or a connectivity query panic.

use std::net::Ipv4Addr;

use bgpsdn_analyze::{
    ControlHealth, Device, LegacyRoute, NextHop, NodeState, PortState, SessionSnap, Snapshot,
    SwitchRule, Verifier,
};
use bgpsdn_bgp::{Asn, PolicyMode, Prefix};
use bgpsdn_netsim::SimRng;
use bgpsdn_obs::{FlowActionRepr, Json};
use bgpsdn_topology::{AsEdge, EdgeKind};
use proptest::prelude::*;

const CONTROL: [ControlHealth; 4] = [
    ControlHealth::NoCluster,
    ControlHealth::Synced,
    ControlHealth::Headless,
    ControlHealth::Resyncing,
];

fn prefix(rng: &mut SimRng) -> Prefix {
    let len = [8, 16, 24, 32][rng.below_usize(4)];
    let addr = Ipv4Addr::new(
        10,
        rng.below(4) as u8,
        rng.below(4) as u8,
        rng.below(4) as u8,
    );
    Prefix::new_masked(addr, len).expect("length in range")
}

fn path(rng: &mut SimRng) -> Vec<Asn> {
    (0..rng.below(4))
        .map(|_| Asn(rng.below(8) as u32))
        .collect()
}

fn action(rng: &mut SimRng) -> FlowActionRepr {
    match rng.below(4) {
        0 => FlowActionRepr::Output(rng.below(6) as u32),
        1 => FlowActionRepr::ToController,
        2 => FlowActionRepr::Drop,
        _ => FlowActionRepr::Local,
    }
}

fn announcements(rng: &mut SimRng) -> Vec<(Prefix, Vec<Asn>)> {
    (0..rng.below(3))
        .map(|_| (prefix(rng), path(rng)))
        .collect()
}

/// A random snapshot whose every index is in range: both device kinds,
/// both next hops, stale routes, every control health, both policies and
/// both edge kinds.
fn snapshot(seed: u64) -> Snapshot {
    let mut rng = SimRng::seed_from_u64(seed);
    let n = 1 + rng.below_usize(6);
    let control = CONTROL[rng.below_usize(4)];
    let mut members = 0;
    let nodes = (0..n)
        .map(|v| {
            let device = if rng.chance(0.5) {
                let routes = (0..rng.below(4))
                    .map(|_| LegacyRoute {
                        prefix: prefix(&mut rng),
                        next: if rng.chance(0.3) {
                            NextHop::Deliver
                        } else {
                            NextHop::Via {
                                peer: rng.below_usize(n),
                                up: rng.chance(0.8),
                            }
                        },
                        as_path: path(&mut rng),
                        stale: rng.chance(0.2),
                    })
                    .collect();
                Device::Legacy { routes }
            } else {
                members += 1;
                let rules = (0..rng.below(4))
                    .map(|_| SwitchRule {
                        priority: [0, 100, u16::MAX][rng.below_usize(3)],
                        prefix: prefix(&mut rng),
                        action: action(&mut rng),
                    })
                    .collect();
                let ports = (0..rng.below(3))
                    .map(|_| PortState {
                        port: rng.below(6) as u32,
                        peer: rng.below_usize(n),
                        up: rng.chance(0.8),
                    })
                    .collect();
                Device::Member {
                    member: members - 1,
                    rules,
                    ports,
                }
            };
            NodeState {
                name: format!("node{v}"),
                asn: Asn(rng.below(8) as u32),
                originated: (0..rng.below(2)).map(|_| prefix(&mut rng)).collect(),
                device,
            }
        })
        .collect();
    let edges = (0..rng.below(2 * n as u64))
        .map(|_| AsEdge {
            a: rng.below_usize(n),
            b: rng.below_usize(n),
            kind: if rng.chance(0.5) {
                EdgeKind::ProviderCustomer
            } else {
                EdgeKind::PeerPeer
            },
        })
        .collect();
    let intent_flows = (0..members)
        .map(|_| {
            (0..rng.below(3))
                .map(|_| (prefix(&mut rng), action(&mut rng)))
                .collect()
        })
        .collect();
    let sessions = (0..rng.below(3))
        .map(|_| SessionSnap {
            member: rng.below_usize(n),
            ext_peer: rng.below_usize(n),
            established: rng.chance(0.8),
            ctrl_up: rng.chance(0.8),
            intent: announcements(&mut rng),
            actual: announcements(&mut rng),
        })
        .collect();
    Snapshot {
        nodes,
        edges,
        policy: if rng.chance(0.5) {
            PolicyMode::GaoRexford
        } else {
            PolicyMode::AllPermit
        },
        control,
        flow_priority: [0, 100][rng.below_usize(2)],
        intent_flows,
        sessions,
    }
}

/// Set the `pick`-th index field of `snap` (counting route next hops,
/// port peers, member indices, edge ends and session ends) to `value`.
fn set_index(snap: &mut Snapshot, pick: usize, value: usize) {
    let mut slots: Vec<&mut usize> = Vec::new();
    let mut next_hops: Vec<&mut NextHop> = Vec::new();
    for node in &mut snap.nodes {
        match &mut node.device {
            Device::Legacy { routes } => next_hops.extend(routes.iter_mut().map(|r| &mut r.next)),
            Device::Member { member, ports, .. } => {
                slots.push(member);
                slots.extend(ports.iter_mut().map(|p| &mut p.peer));
            }
        }
    }
    for e in &mut snap.edges {
        slots.push(&mut e.a);
        slots.push(&mut e.b);
    }
    for s in &mut snap.sessions {
        slots.push(&mut s.member);
        slots.push(&mut s.ext_peer);
    }
    let count = slots.len() + next_hops.len();
    if count == 0 {
        return;
    }
    let pick = pick % count;
    if pick < slots.len() {
        *slots[pick] = value;
    } else {
        *next_hops[pick - slots.len()] = NextHop::Via {
            peer: value,
            up: true,
        };
    }
}

proptest! {
    #[test]
    fn json_round_trips_every_snapshot(seed in any::<u64>()) {
        let snap = snapshot(seed);
        let text = snap.to_json().to_compact();
        let back = Snapshot::from_json(&Json::parse(&text).expect("valid JSON"));
        prop_assert_eq!(back, Ok(snap));
    }

    #[test]
    fn no_index_value_makes_the_checks_panic(
        seed in any::<u64>(),
        pick in any::<usize>(),
        raw in any::<u64>(),
        small in any::<bool>(),
    ) {
        let mut snap = snapshot(seed);
        // Half the values land near the node count, in range or just out.
        let value = if small { raw % (snap.nodes.len() as u64 + 2) } else { raw };
        set_index(&mut snap, pick, usize::try_from(value).unwrap_or(usize::MAX));
        if let Ok(parsed) = Snapshot::from_json(&snap.to_json()) {
            let mut verifier = Verifier::default();
            let _ = verifier.verify(&parsed);
            let targets: Vec<(usize, Ipv4Addr)> = (0..parsed.nodes.len() + 1)
                .map(|v| (v, Ipv4Addr::new(10, (v % 4) as u8, 0, 1)))
                .collect();
            let _ = verifier.connectivity(&parsed, &targets);
        }
    }
}
