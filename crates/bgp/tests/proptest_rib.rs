//! Property-based tests for the RIBs: the slot-indexed tables against the
//! prefix-keyed `BTreeMap` tables they replaced, kept here as `mod
//! reference`. Whatever sequence of operations a table goes through, every
//! return value, every reader and every iteration order must match — over
//! prefixes from /0 to /32 that nest, so longest-prefix match has choices,
//! and over prefixes cleared and set again, so slots are reused. The
//! per-peer route counter (the maximum-prefix guardrail's input) must equal
//! a scan of the table, and the change detection of Loc-RIB and Adj-RIB-Out
//! must compare attributes, not handles.

use std::collections::BTreeMap;
use std::net::Ipv4Addr;

use proptest::prelude::*;

use bgpsdn_bgp::{
    AdjRibIn, AdjRibOut, LocRib, LocRibEntry, PathAttributes, PeerIdx, Prefix, RibInEntry,
    RouteSource, RouterId, SharedAttrs,
};
use bgpsdn_netsim::SimTime;

/// The tables as they were before slots: one `BTreeMap` each, keyed by
/// prefix.
mod reference {
    use std::collections::btree_map::{BTreeMap, Entry};
    use std::net::Ipv4Addr;

    use bgpsdn_bgp::{LocRibEntry, PeerIdx, Prefix, RibInEntry, SharedAttrs};
    use bgpsdn_netsim::SimTime;

    /// Prefix → peer-sorted row; no row is empty.
    #[derive(Debug, Default)]
    pub struct AdjRibIn {
        routes: BTreeMap<Prefix, Vec<(PeerIdx, RibInEntry)>>,
        peer_counts: Vec<usize>,
    }

    fn row_slot(row: &[(PeerIdx, RibInEntry)], peer: PeerIdx) -> Result<usize, usize> {
        row.binary_search_by_key(&peer, |(p, _)| *p)
    }

    impl AdjRibIn {
        pub fn insert(&mut self, prefix: Prefix, peer: PeerIdx, entry: RibInEntry) -> bool {
            let row = self.routes.entry(prefix).or_default();
            match row_slot(row, peer) {
                Ok(i) => {
                    let old = &mut row[i].1;
                    if old.attrs == entry.attrs {
                        old.learned_at = entry.learned_at;
                        old.peer_router_id = entry.peer_router_id;
                        false
                    } else {
                        *old = entry;
                        true
                    }
                }
                Err(i) => {
                    row.insert(i, (peer, entry));
                    if self.peer_counts.len() <= peer {
                        self.peer_counts.resize(peer + 1, 0);
                    }
                    self.peer_counts[peer] += 1;
                    true
                }
            }
        }

        pub fn remove(&mut self, prefix: Prefix, peer: PeerIdx) -> bool {
            let Entry::Occupied(mut row) = self.routes.entry(prefix) else {
                return false;
            };
            let Ok(i) = row_slot(row.get(), peer) else {
                return false;
            };
            row.get_mut().remove(i);
            if row.get().is_empty() {
                row.remove();
            }
            self.peer_counts[peer] -= 1;
            true
        }

        fn remove_peer_routes(
            &mut self,
            peer: PeerIdx,
            mut goes: impl FnMut(&RibInEntry) -> bool,
        ) -> Vec<Prefix> {
            let mut affected = Vec::new();
            self.routes.retain(|prefix, row| {
                if let Ok(i) = row_slot(row, peer) {
                    if goes(&row[i].1) {
                        row.remove(i);
                        affected.push(*prefix);
                    }
                }
                !row.is_empty()
            });
            if let Some(count) = self.peer_counts.get_mut(peer) {
                *count -= affected.len();
            }
            affected
        }

        pub fn remove_peer(&mut self, peer: PeerIdx) -> Vec<Prefix> {
            self.remove_peer_routes(peer, |_| true)
        }

        pub fn flush_stale(&mut self, peer: PeerIdx, cutoff: SimTime) -> Vec<Prefix> {
            self.remove_peer_routes(peer, |e| e.learned_at < cutoff)
        }

        pub fn candidates(&self, prefix: Prefix) -> Vec<(PeerIdx, &RibInEntry)> {
            self.routes
                .get(&prefix)
                .map_or(&[][..], Vec::as_slice)
                .iter()
                .map(|(p, e)| (*p, e))
                .collect()
        }

        pub fn get(&self, prefix: Prefix, peer: PeerIdx) -> Option<&RibInEntry> {
            let row = self.routes.get(&prefix)?;
            row_slot(row, peer).ok().map(|i| &row[i].1)
        }

        pub fn prefixes(&self) -> Vec<Prefix> {
            self.routes.keys().copied().collect()
        }

        pub fn route_count(&self) -> usize {
            self.routes.values().map(Vec::len).sum()
        }

        pub fn count_for_peer(&self, peer: PeerIdx) -> usize {
            self.peer_counts.get(peer).copied().unwrap_or(0)
        }
    }

    #[derive(Debug)]
    pub struct LocRib {
        best: BTreeMap<Prefix, LocRibEntry>,
        len_counts: [u32; 33],
    }

    impl Default for LocRib {
        fn default() -> Self {
            LocRib {
                best: BTreeMap::new(),
                len_counts: [0; 33],
            }
        }
    }

    impl LocRib {
        pub fn set(&mut self, prefix: Prefix, entry: LocRibEntry) -> bool {
            match self.best.entry(prefix) {
                Entry::Occupied(mut old) => {
                    let old = old.get_mut();
                    let changed = old.source != entry.source || old.attrs != entry.attrs;
                    if changed {
                        *old = entry;
                    }
                    changed
                }
                Entry::Vacant(slot) => {
                    slot.insert(entry);
                    self.len_counts[prefix.len() as usize] += 1;
                    true
                }
            }
        }

        pub fn clear(&mut self, prefix: Prefix) -> Option<LocRibEntry> {
            let removed = self.best.remove(&prefix);
            if removed.is_some() {
                self.len_counts[prefix.len() as usize] -= 1;
            }
            removed
        }

        pub fn get(&self, prefix: Prefix) -> Option<&LocRibEntry> {
            self.best.get(&prefix)
        }

        pub fn lpm(&self, ip: Ipv4Addr) -> Option<(Prefix, &LocRibEntry)> {
            for len in (0..=32u8).rev() {
                if self.len_counts[len as usize] == 0 {
                    continue;
                }
                let probe = Prefix::new_masked(ip, len).expect("length in range");
                if let Some(e) = self.best.get(&probe) {
                    return Some((probe, e));
                }
            }
            None
        }

        pub fn iter(&self) -> impl Iterator<Item = (Prefix, &LocRibEntry)> {
            self.best.iter().map(|(p, e)| (*p, e))
        }

        pub fn len(&self) -> usize {
            self.best.len()
        }
    }

    #[derive(Debug, Default)]
    pub struct AdjRibOut {
        advertised: BTreeMap<Prefix, SharedAttrs>,
    }

    impl AdjRibOut {
        pub fn advertise(&mut self, prefix: Prefix, attrs: SharedAttrs) -> bool {
            match self.advertised.entry(prefix) {
                Entry::Occupied(mut old) => {
                    let changed = *old.get() != attrs;
                    if changed {
                        old.insert(attrs);
                    }
                    changed
                }
                Entry::Vacant(slot) => {
                    slot.insert(attrs);
                    true
                }
            }
        }

        pub fn withdraw(&mut self, prefix: Prefix) -> bool {
            self.advertised.remove(&prefix).is_some()
        }

        pub fn get(&self, prefix: Prefix) -> Option<&SharedAttrs> {
            self.advertised.get(&prefix)
        }

        pub fn clear(&mut self) {
            self.advertised.clear();
        }
    }
}

const PEERS: usize = 5;
/// Prefixes one case draws its operations from.
const UNIVERSE: usize = 8;

/// A prefix of any length over a small address space, so that prefixes
/// nest and collide: `10.a.b.c/len`, where `/0` is the default route.
fn arb_prefix() -> impl Strategy<Value = Prefix> {
    (0u8..3, 0u8..3, 0u8..4, 0u8..=32).prop_map(|(a, b, c, len)| {
        Prefix::new_masked(Ipv4Addr::new(10, a, b, c), len).expect("len <= 32")
    })
}

fn arb_universe() -> impl Strategy<Value = Vec<Prefix>> {
    prop::collection::vec(arb_prefix(), UNIVERSE..=UNIVERSE)
}

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
        (0..UNIVERSE, 0..PEERS, 0u8..3, 0u64..20).prop_map(|(prefix, peer, next_hop, at)| {
            Op::Insert {
                prefix,
                peer,
                next_hop,
                at,
            }
        }),
        (0..UNIVERSE, 0..PEERS).prop_map(|(prefix, peer)| Op::Remove { prefix, peer }),
        (0..PEERS).prop_map(Op::RemovePeer),
        (0..PEERS, 0u64..20).prop_map(|(peer, cutoff)| Op::FlushStale { peer, cutoff }),
    ]
}

/// An operation on a router's Loc-RIB and one peer's Adj-RIB-Out, which is
/// keyed by the Loc-RIB's slot of the prefix.
#[derive(Debug, Clone)]
enum BestOp {
    Set {
        prefix: usize,
        source: Option<PeerIdx>,
        next_hop: u8,
    },
    Clear(usize),
    Advertise {
        prefix: usize,
        next_hop: u8,
    },
    Withdraw(usize),
    ResetOut,
}

fn arb_best_op() -> impl Strategy<Value = BestOp> {
    prop_oneof![
        (0..UNIVERSE, prop::option::of(0..PEERS), 0u8..3).prop_map(|(prefix, source, next_hop)| {
            BestOp::Set {
                prefix,
                source,
                next_hop,
            }
        }),
        (0..UNIVERSE).prop_map(BestOp::Clear),
        (0..UNIVERSE, 0u8..3).prop_map(|(prefix, next_hop)| BestOp::Advertise { prefix, next_hop }),
        (0..UNIVERSE).prop_map(BestOp::Withdraw),
        Just(BestOp::ResetOut),
    ]
}

/// Total number of stored routes across all prefixes and peers.
fn route_count(rib: &AdjRibIn) -> usize {
    rib.prefixes().map(|p| rib.candidates(p).count()).sum()
}

fn scan(rib: &AdjRibIn, peer: PeerIdx) -> usize {
    rib.prefixes()
        .filter(|p| rib.get(*p, peer).is_some())
        .count()
}

fn attrs(next_hop: u8) -> SharedAttrs {
    PathAttributes::originate(Ipv4Addr::new(10, 0, 0, next_hop)).into()
}

fn loc_entry(source: Option<PeerIdx>, next_hop: u8) -> LocRibEntry {
    LocRibEntry {
        source: source.map_or(RouteSource::Local, RouteSource::Peer),
        attrs: attrs(next_hop),
        since: SimTime::from_secs(u64::from(next_hop)),
    }
}

proptest! {
    #[test]
    fn adj_rib_in_matches_a_nested_map(
        universe in arb_universe(),
        ops in prop::collection::vec(arb_op(), 0..60),
    ) {
        let mut rib = AdjRibIn::default();
        let mut model = reference::AdjRibIn::default();
        for op in ops {
            match op {
                Op::Insert { prefix, peer, next_hop, at } => {
                    let entry = RibInEntry {
                        attrs: attrs(next_hop),
                        peer_router_id: RouterId(peer as u32 + at as u32),
                        learned_at: SimTime::from_secs(at),
                    };
                    let p = universe[prefix];
                    prop_assert_eq!(rib.insert(p, peer, entry.clone()), model.insert(p, peer, entry));
                }
                Op::Remove { prefix, peer } => {
                    let p = universe[prefix];
                    prop_assert_eq!(rib.remove(p, peer), model.remove(p, peer));
                }
                Op::RemovePeer(peer) => {
                    prop_assert_eq!(rib.remove_peer(peer).into_iter().collect::<Vec<_>>(), model.remove_peer(peer));
                }
                Op::FlushStale { peer, cutoff } => {
                    let cutoff = SimTime::from_secs(cutoff);
                    prop_assert_eq!(
                        rib.flush_stale(peer, cutoff).into_iter().collect::<Vec<_>>(),
                        model.flush_stale(peer, cutoff)
                    );
                }
            }
            prop_assert_eq!(rib.prefixes().collect::<Vec<_>>(), model.prefixes());
            prop_assert_eq!(route_count(&rib), model.route_count());
            for &p in &universe {
                prop_assert_eq!(rib.candidates(p).collect::<Vec<_>>(), model.candidates(p), "{}", p);
                for peer in 0..PEERS {
                    prop_assert_eq!(rib.get(p, peer), model.get(p, peer));
                }
            }
            for peer in 0..PEERS {
                prop_assert_eq!(rib.count_for_peer(peer), model.count_for_peer(peer), "peer {}", peer);
            }
        }
    }

    /// The Loc-RIB and an Adj-RIB-Out keyed by its slots, against the
    /// prefix-keyed maps: the same answers from `set`, `clear`, `get`,
    /// `lpm`, `iter` (in prefix order) and `len`, and the same
    /// advertisements. A prefix keeps its slot through a clear, and the
    /// slots are dense.
    #[test]
    fn loc_rib_and_adj_rib_out_match_the_btreemap_tables(
        universe in arb_universe(),
        ops in prop::collection::vec(arb_best_op(), 0..60),
        probes in prop::collection::vec(any::<u32>(), 4..=4),
    ) {
        let mut loc = LocRib::default();
        let mut out = AdjRibOut::default();
        let mut model = reference::LocRib::default();
        let mut model_out = reference::AdjRibOut::default();
        let mut slots: BTreeMap<Prefix, usize> = BTreeMap::new();
        for op in ops {
            match op {
                BestOp::Set { prefix, source, next_hop } => {
                    let p = universe[prefix];
                    let e = loc_entry(source, next_hop);
                    prop_assert_eq!(loc.set(p, e.clone()), model.set(p, e));
                }
                BestOp::Clear(prefix) => {
                    let p = universe[prefix];
                    prop_assert_eq!(loc.clear(p), model.clear(p));
                }
                // A router advertises only what its Loc-RIB has held.
                BestOp::Advertise { prefix, next_hop } => {
                    let p = universe[prefix];
                    if let Some(slot) = loc.slot(p) {
                        prop_assert_eq!(
                            out.advertise(slot, attrs(next_hop)),
                            model_out.advertise(p, attrs(next_hop))
                        );
                    }
                }
                BestOp::Withdraw(prefix) => {
                    let p = universe[prefix];
                    if let Some(slot) = loc.slot(p) {
                        prop_assert_eq!(out.withdraw(slot), model_out.withdraw(p));
                    }
                }
                BestOp::ResetOut => {
                    out.clear();
                    model_out.clear();
                }
            }
            let got: Vec<(Prefix, &LocRibEntry)> = loc.iter().collect();
            let want: Vec<(Prefix, &LocRibEntry)> = model.iter().collect();
            prop_assert_eq!(got, want);
            prop_assert_eq!(loc.len(), model.len());
            prop_assert_eq!(loc.is_empty(), model.len() == 0);
            for &p in &universe {
                prop_assert_eq!(loc.get(p), model.get(p), "{}", p);
                if let Some(slot) = loc.slot(p) {
                    prop_assert_eq!(*slots.entry(p).or_insert(slot), slot, "{} moved", p);
                    prop_assert_eq!(out.get(slot), model_out.get(p), "{}", p);
                } else {
                    prop_assert!(model.get(p).is_none() && model_out.get(p).is_none());
                }
                prop_assert_eq!(loc.lpm(p.network()), model.lpm(p.network()), "{}", p);
            }
            for &ip in &probes {
                let ip = Ipv4Addr::from(ip & 0x0A03_03FF | 0x0A00_0000);
                prop_assert_eq!(loc.lpm(ip), model.lpm(ip), "{}", ip);
            }
            let mut dense: Vec<usize> = slots.values().copied().collect();
            dense.sort_unstable();
            prop_assert_eq!(dense, (0..slots.len()).collect::<Vec<_>>());
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
        p in arb_prefix(),
    ) {
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

        let slot = loc.slot(p).expect("set gives a slot");
        let mut out = AdjRibOut::default();
        prop_assert!(out.advertise(slot, attrs(first)));
        prop_assert_eq!(out.advertise(slot, attrs(second)), first != second);
        prop_assert_eq!(out.get(slot), Some(&attrs(second)));
    }

    #[test]
    fn per_peer_counter_equals_a_table_scan(
        universe in arb_universe(),
        ops in prop::collection::vec(arb_op(), 0..60),
    ) {
        let mut rib = AdjRibIn::default();
        for op in ops {
            match op {
                Op::Insert { prefix, peer, next_hop, at } => {
                    let entry = RibInEntry {
                        attrs: attrs(next_hop),
                        peer_router_id: RouterId(peer as u32),
                        learned_at: SimTime::from_secs(at),
                    };
                    rib.insert(universe[prefix], peer, entry);
                }
                Op::Remove { prefix, peer } => {
                    rib.remove(universe[prefix], peer);
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
            prop_assert_eq!(total, route_count(&rib));
        }
    }
}
