//! Property-based test for the Adj-RIB-In's per-peer route counter (the
//! maximum-prefix guardrail's input): whatever sequence of operations the
//! table goes through, the counter must equal a scan of the table.

use std::net::Ipv4Addr;

use proptest::prelude::*;

use bgpsdn_bgp::{pfx, AdjRibIn, PathAttributes, PeerIdx, Prefix, RibInEntry, RouterId};
use bgpsdn_netsim::SimTime;

const PEERS: usize = 5;

#[derive(Debug, Clone)]
enum Op {
    Insert {
        prefix: usize,
        peer: PeerIdx,
        next_hop: u8,
        at: u64,
    },
    Remove {
        prefix: usize,
        peer: PeerIdx,
    },
    RemovePeer(PeerIdx),
    FlushStale {
        peer: PeerIdx,
        cutoff: u64,
    },
}

fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0usize..6, 0..PEERS, 0u8..3, 0u64..20).prop_map(|(prefix, peer, next_hop, at)| {
            Op::Insert {
                prefix,
                peer,
                next_hop,
                at,
            }
        }),
        (0usize..6, 0..PEERS).prop_map(|(prefix, peer)| Op::Remove { prefix, peer }),
        (0..PEERS).prop_map(Op::RemovePeer),
        (0..PEERS, 0u64..20).prop_map(|(peer, cutoff)| Op::FlushStale { peer, cutoff }),
    ]
}

fn prefix_of(i: usize) -> Prefix {
    pfx(&format!("10.{i}.0.0/16"))
}

fn scan(rib: &AdjRibIn, peer: PeerIdx) -> usize {
    rib.prefixes()
        .filter(|p| rib.get(*p, peer).is_some())
        .count()
}

proptest! {
    #[test]
    fn per_peer_counter_equals_a_table_scan(ops in prop::collection::vec(arb_op(), 0..60)) {
        let mut rib = AdjRibIn::default();
        for op in ops {
            match op {
                Op::Insert { prefix, peer, next_hop, at } => {
                    let entry = RibInEntry {
                        attrs: PathAttributes::originate(Ipv4Addr::new(10, 0, 0, next_hop)).into(),
                        peer_router_id: RouterId(peer as u32),
                        learned_at: SimTime::from_secs(at),
                    };
                    rib.insert(prefix_of(prefix), peer, entry);
                }
                Op::Remove { prefix, peer } => {
                    rib.remove(prefix_of(prefix), peer);
                }
                Op::RemovePeer(peer) => {
                    rib.remove_peer(peer);
                }
                Op::FlushStale { peer, cutoff } => {
                    rib.flush_stale(peer, SimTime::from_secs(cutoff));
                }
            }
            for peer in 0..PEERS {
                prop_assert_eq!(rib.count_for_peer(peer), scan(&rib, peer), "peer {}", peer);
            }
            let total: usize = (0..PEERS).map(|p| rib.count_for_peer(p)).sum();
            prop_assert_eq!(total, rib.route_count());
        }
    }
}
