//! Property-based tests for the RIBs. The Adj-RIB-In (a flat, peer-sorted
//! row per prefix) against the obvious nested map: whatever sequence of
//! operations the table goes through, every return value, every reader and
//! every iteration order must match, and the per-peer route counter (the
//! maximum-prefix guardrail's input) must equal a scan of the table. And the
//! change detection of Loc-RIB and Adj-RIB-Out must compare attributes, not
//! handles.

use std::collections::BTreeMap;
use std::net::Ipv4Addr;

use proptest::prelude::*;

use bgpsdn_bgp::{
    pfx, AdjRibIn, AdjRibOut, LocRib, LocRibEntry, PathAttributes, PeerIdx, Prefix, RibInEntry,
    RouteSource, RouterId, SharedAttrs,
};
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

/// The reference Adj-RIB-In: prefix → peer → route.
type Model = BTreeMap<Prefix, BTreeMap<PeerIdx, RibInEntry>>;

/// Drop `peer`'s routes for which `goes` holds; the affected prefixes in
/// prefix order.
fn model_remove_peer(
    model: &mut Model,
    peer: PeerIdx,
    goes: impl Fn(&RibInEntry) -> bool,
) -> Vec<Prefix> {
    let mut affected = Vec::new();
    model.retain(|prefix, slot| {
        if slot.get(&peer).is_some_and(&goes) {
            slot.remove(&peer);
            affected.push(*prefix);
        }
        !slot.is_empty()
    });
    affected
}

fn attrs(next_hop: u8) -> SharedAttrs {
    PathAttributes::originate(Ipv4Addr::new(10, 0, 0, next_hop)).into()
}

proptest! {
    #[test]
    fn adj_rib_in_matches_a_nested_map(ops in prop::collection::vec(arb_op(), 0..60)) {
        let mut rib = AdjRibIn::default();
        let mut model = Model::new();
        for op in ops {
            match op {
                Op::Insert { prefix, peer, next_hop, at } => {
                    let entry = RibInEntry {
                        attrs: attrs(next_hop),
                        peer_router_id: RouterId(peer as u32 + at as u32),
                        learned_at: SimTime::from_secs(at),
                    };
                    let old = model.entry(prefix_of(prefix)).or_default().insert(peer, entry.clone());
                    let changed = old.is_none_or(|old| old.attrs != entry.attrs);
                    prop_assert_eq!(rib.insert(prefix_of(prefix), peer, entry), changed);
                }
                Op::Remove { prefix, peer } => {
                    let slot = model.entry(prefix_of(prefix)).or_default();
                    let removed = slot.remove(&peer).is_some();
                    if slot.is_empty() {
                        model.remove(&prefix_of(prefix));
                    }
                    prop_assert_eq!(rib.remove(prefix_of(prefix), peer), removed);
                }
                Op::RemovePeer(peer) => {
                    let affected = model_remove_peer(&mut model, peer, |_| true);
                    prop_assert_eq!(rib.remove_peer(peer).into_iter().collect::<Vec<_>>(), affected);
                }
                Op::FlushStale { peer, cutoff } => {
                    let cutoff = SimTime::from_secs(cutoff);
                    let affected = model_remove_peer(&mut model, peer, |e| e.learned_at < cutoff);
                    prop_assert_eq!(
                        rib.flush_stale(peer, cutoff).into_iter().collect::<Vec<_>>(),
                        affected
                    );
                }
            }
            prop_assert_eq!(
                rib.prefixes().collect::<Vec<_>>(),
                model.keys().copied().collect::<Vec<_>>()
            );
            prop_assert_eq!(rib.route_count(), model.values().map(BTreeMap::len).sum::<usize>());
            for i in 0..6 {
                let p = prefix_of(i);
                let slot = model.get(&p);
                let expected: Vec<(PeerIdx, &RibInEntry)> =
                    slot.into_iter().flatten().map(|(peer, e)| (*peer, e)).collect();
                prop_assert_eq!(rib.candidates(p).collect::<Vec<_>>(), expected, "{}", p);
                for peer in 0..PEERS {
                    prop_assert_eq!(rib.get(p, peer), slot.and_then(|s| s.get(&peer)));
                }
            }
            for peer in 0..PEERS {
                let count = model.values().filter(|s| s.contains_key(&peer)).count();
                prop_assert_eq!(rib.count_for_peer(peer), count, "peer {}", peer);
            }
        }
    }

    /// Equal attributes behind a different handle are not a change, in the
    /// Loc-RIB (same source) and in an Adj-RIB-Out; different attributes or
    /// a different source are.
    #[test]
    fn change_detection_compares_attributes_not_handles(
        first in 0u8..3,
        second in 0u8..3,
        peers in (0..PEERS, 0..PEERS),
    ) {
        let p = prefix_of(0);
        let entry = |next_hop, peer| LocRibEntry {
            source: RouteSource::Peer(peer),
            attrs: attrs(next_hop),
            since: SimTime::ZERO,
        };
        let mut loc = LocRib::default();
        prop_assert!(loc.set(p, entry(first, peers.0)));
        let again = entry(second, peers.1);
        prop_assert!(!SharedAttrs::ptr_eq(&again.attrs, &loc.get(p).unwrap().attrs));
        prop_assert_eq!(loc.set(p, again), first != second || peers.0 != peers.1);
        prop_assert_eq!(&loc.get(p).unwrap().attrs, &attrs(second));
        prop_assert_eq!(loc.len(), 1);

        let mut out = AdjRibOut::default();
        prop_assert!(out.advertise(p, attrs(first)));
        prop_assert_eq!(out.advertise(p, attrs(second)), first != second);
        prop_assert_eq!(out.get(p), Some(&attrs(second)));
        prop_assert_eq!(out.len(), 1);
    }

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
