//! Routing Information Bases: Adj-RIB-In, Loc-RIB and Adj-RIB-Out.
//!
//! All maps are `BTreeMap`s so iteration order — and therefore everything
//! downstream of it, including which UPDATE goes out first — is
//! deterministic.

use std::collections::btree_map::{BTreeMap, Entry};

use bgpsdn_netsim::SimTime;

use crate::attrs::SharedAttrs;
use crate::inline::InlineVec;
use crate::types::{Prefix, RouterId};

/// Index of a neighbor in the router's configuration, used as the peer key
/// throughout the RIBs.
pub type PeerIdx = usize;

/// Where a Loc-RIB route came from.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum RouteSource {
    /// Locally originated (configured network statement).
    Local,
    /// Learned from the neighbor with this index.
    Peer(PeerIdx),
}

/// A route as stored in Adj-RIB-In.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RibInEntry {
    /// Path attributes exactly as accepted by import policy; the handle is
    /// shared with every other NLRI of the UPDATE that carried the route.
    pub attrs: SharedAttrs,
    /// Router-id of the advertising peer (decision tie-break).
    pub peer_router_id: RouterId,
    /// When the route was (last) received.
    pub learned_at: SimTime,
}

/// One prefix's accepted routes, sorted by peer index: a flat row, so the
/// decision process reads its candidates from consecutive memory.
type RibInRow = Vec<(PeerIdx, RibInEntry)>;

/// Where `peer`'s route is (`Ok`) or would go (`Err`) in a row.
pub(crate) fn row_slot(row: &[(PeerIdx, RibInEntry)], peer: PeerIdx) -> Result<usize, usize> {
    row.binary_search_by_key(&peer, |(p, _)| *p)
}

/// Per-prefix, per-peer store of accepted routes.
#[derive(Debug, Default)]
pub struct AdjRibIn {
    /// No row is empty.
    routes: BTreeMap<Prefix, RibInRow>,
    /// Routes currently stored per peer (indexed by `PeerIdx`, grown on
    /// demand), so the maximum-prefix guardrail reads a counter instead of
    /// scanning every prefix slot on each UPDATE.
    peer_counts: Vec<usize>,
}

impl AdjRibIn {
    /// Insert or replace the peer's route for a prefix. Returns true when
    /// this changed stored state (new route or different attributes). A
    /// re-advertisement with identical attributes is not a change, but it
    /// still refreshes `learned_at` — graceful restart distinguishes
    /// stale-retained routes from re-announced ones by that timestamp.
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

    /// Remove the peer's route for a prefix. Returns true when a route was
    /// actually removed.
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

    /// Remove every route learned from `peer` for which `goes` holds and
    /// return the affected prefixes in prefix order; sessions carrying few
    /// routes (the common clique case) stay allocation-free.
    fn remove_peer_routes(
        &mut self,
        peer: PeerIdx,
        mut goes: impl FnMut(&RibInEntry) -> bool,
    ) -> InlineVec<Prefix, 8> {
        let mut affected = InlineVec::new();
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

    /// Remove every route learned from `peer` (session reset). Returns the
    /// affected prefixes.
    pub fn remove_peer(&mut self, peer: PeerIdx) -> InlineVec<Prefix, 8> {
        self.remove_peer_routes(peer, |_| true)
    }

    /// Remove every route learned from `peer` that was last received
    /// before `cutoff` — the RFC 4724 stale flush at the end of a graceful
    /// restart window: anything the restarted peer re-announced carries a
    /// fresh `learned_at` and survives; anything it didn't is stale and
    /// goes. Returns the affected prefixes.
    pub fn flush_stale(&mut self, peer: PeerIdx, cutoff: SimTime) -> InlineVec<Prefix, 8> {
        self.remove_peer_routes(peer, |e| e.learned_at < cutoff)
    }

    /// One prefix's routes in peer-index order (empty when there are none).
    pub(crate) fn row(&self, prefix: Prefix) -> &[(PeerIdx, RibInEntry)] {
        self.routes.get(&prefix).map_or(&[], Vec::as_slice)
    }

    /// Candidate routes for one prefix, in peer-index order.
    pub fn candidates(&self, prefix: Prefix) -> impl Iterator<Item = (PeerIdx, &RibInEntry)> {
        self.row(prefix).iter().map(|(p, e)| (*p, e))
    }

    /// The peer's route for a prefix, if accepted.
    pub fn get(&self, prefix: Prefix, peer: PeerIdx) -> Option<&RibInEntry> {
        let row = self.row(prefix);
        row_slot(row, peer).ok().map(|i| &row[i].1)
    }

    /// All prefixes with at least one candidate.
    pub fn prefixes(&self) -> impl Iterator<Item = Prefix> + '_ {
        self.routes.keys().copied()
    }

    /// Total number of stored routes across all prefixes and peers.
    pub fn route_count(&self) -> usize {
        self.routes.values().map(|s| s.len()).sum()
    }

    /// Number of prefixes currently learned from one peer (the
    /// maximum-prefix guardrail's counter).
    pub fn count_for_peer(&self, peer: PeerIdx) -> usize {
        self.peer_counts.get(peer).copied().unwrap_or(0)
    }
}

/// The selected best route for a prefix.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LocRibEntry {
    /// Who supplied the route.
    pub source: RouteSource,
    /// Attributes of the winning route (import-policy view): the winning
    /// Adj-RIB-In entry's own handle, not a copy.
    pub attrs: SharedAttrs,
    /// When this selection was made.
    pub since: SimTime,
}

/// The router's view of best routes.
#[derive(Debug)]
pub struct LocRib {
    best: BTreeMap<Prefix, LocRibEntry>,
    /// Number of stored prefixes per prefix length, so `lpm` probes only
    /// the populated lengths (one exact-match lookup each) instead of
    /// scanning the whole table.
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
    /// Set the best route for a prefix. Returns true when the selection
    /// changed (source or attributes differ).
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

    /// Remove the best route (prefix now unreachable). Returns the removed
    /// entry when there was one.
    pub fn clear(&mut self, prefix: Prefix) -> Option<LocRibEntry> {
        let removed = self.best.remove(&prefix);
        if removed.is_some() {
            self.len_counts[prefix.len() as usize] -= 1;
        }
        removed
    }

    /// Current best route for a prefix.
    pub fn get(&self, prefix: Prefix) -> Option<&LocRibEntry> {
        self.best.get(&prefix)
    }

    /// Longest-prefix match for a destination address (the FIB lookup).
    ///
    /// Walks the populated prefix lengths from most to least specific and
    /// probes each bucket with one exact lookup of the address masked to
    /// that length — O(lengths present × log n) instead of O(table size).
    pub fn lpm(&self, ip: std::net::Ipv4Addr) -> Option<(Prefix, &LocRibEntry)> {
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

    /// All `(prefix, best)` pairs in prefix order.
    pub fn iter(&self) -> impl Iterator<Item = (Prefix, &LocRibEntry)> {
        self.best.iter().map(|(p, e)| (*p, e))
    }

    /// Number of reachable prefixes.
    pub fn len(&self) -> usize {
        self.best.len()
    }

    /// True when no prefix is reachable.
    pub fn is_empty(&self) -> bool {
        self.best.is_empty()
    }
}

/// What was last advertised to one peer (for delta computation), keyed by
/// prefix.
#[derive(Debug, Default)]
pub struct AdjRibOut {
    advertised: BTreeMap<Prefix, SharedAttrs>,
}

impl AdjRibOut {
    /// Record an advertisement. Returns true when it differs from what was
    /// previously advertised (i.e. an UPDATE is warranted).
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

    /// Record a withdrawal. Returns true when the prefix was advertised.
    pub fn withdraw(&mut self, prefix: Prefix) -> bool {
        self.advertised.remove(&prefix).is_some()
    }

    /// Attributes last advertised for a prefix.
    pub fn get(&self, prefix: Prefix) -> Option<&SharedAttrs> {
        self.advertised.get(&prefix)
    }

    /// Everything currently advertised, in prefix order.
    pub fn iter(&self) -> impl Iterator<Item = (Prefix, &SharedAttrs)> {
        self.advertised.iter().map(|(p, a)| (*p, a))
    }

    /// Number of advertised prefixes.
    pub fn len(&self) -> usize {
        self.advertised.len()
    }

    /// True when nothing has been advertised.
    pub fn is_empty(&self) -> bool {
        self.advertised.is_empty()
    }

    /// Drop all state (session reset).
    pub fn clear(&mut self) {
        self.advertised.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attrs::PathAttributes;
    use crate::types::pfx;
    use std::net::Ipv4Addr;

    fn entry(nh: u8) -> RibInEntry {
        RibInEntry {
            attrs: PathAttributes::originate(Ipv4Addr::new(10, 0, 0, nh)).into(),
            peer_router_id: RouterId(nh as u32),
            learned_at: SimTime::ZERO,
        }
    }

    #[test]
    fn adj_in_insert_dedups_identical() {
        let mut rib = AdjRibIn::default();
        let p = pfx("10.0.0.0/8");
        assert!(rib.insert(p, 0, entry(1)));
        assert!(!rib.insert(p, 0, entry(1)), "same attrs: no change");
        assert!(rib.insert(p, 0, entry(2)), "different attrs: change");
        assert_eq!(rib.route_count(), 1);
    }

    #[test]
    fn adj_in_identical_reinsert_refreshes_learned_at() {
        let mut rib = AdjRibIn::default();
        let p = pfx("10.0.0.0/8");
        assert!(rib.insert(p, 0, entry(1)));
        let refreshed = RibInEntry {
            learned_at: SimTime::from_secs(7),
            ..entry(1)
        };
        assert!(!rib.insert(p, 0, refreshed), "no state change reported");
        assert_eq!(rib.get(p, 0).unwrap().learned_at, SimTime::from_secs(7));
    }

    #[test]
    fn adj_in_flush_stale_keeps_refreshed_routes() {
        let mut rib = AdjRibIn::default();
        let old = RibInEntry {
            learned_at: SimTime::from_secs(1),
            ..entry(1)
        };
        let fresh = RibInEntry {
            learned_at: SimTime::from_secs(10),
            ..entry(1)
        };
        rib.insert(pfx("10.0.0.0/8"), 0, old.clone());
        rib.insert(pfx("20.0.0.0/8"), 0, fresh);
        rib.insert(pfx("10.0.0.0/8"), 1, old); // other peer untouched
        let mut flushed: Vec<Prefix> = rib
            .flush_stale(0, SimTime::from_secs(5))
            .into_iter()
            .collect();
        flushed.sort();
        assert_eq!(flushed, vec![pfx("10.0.0.0/8")]);
        assert!(rib.get(pfx("20.0.0.0/8"), 0).is_some(), "re-announced kept");
        assert!(rib.get(pfx("10.0.0.0/8"), 1).is_some(), "other peer kept");
    }

    #[test]
    fn adj_in_remove_and_cleanup() {
        let mut rib = AdjRibIn::default();
        let p = pfx("10.0.0.0/8");
        rib.insert(p, 0, entry(1));
        rib.insert(p, 1, entry(2));
        assert_eq!(rib.candidates(p).count(), 2);
        assert!(rib.remove(p, 0));
        assert!(!rib.remove(p, 0));
        assert_eq!(rib.candidates(p).count(), 1);
        assert!(rib.remove(p, 1));
        assert_eq!(rib.prefixes().count(), 0, "empty slot pruned");
    }

    #[test]
    fn adj_in_remove_peer_returns_affected() {
        let mut rib = AdjRibIn::default();
        rib.insert(pfx("10.0.0.0/8"), 0, entry(1));
        rib.insert(pfx("10.0.0.0/8"), 1, entry(2));
        rib.insert(pfx("20.0.0.0/8"), 0, entry(1));
        let mut affected: Vec<Prefix> = rib.remove_peer(0).into_iter().collect();
        affected.sort();
        assert_eq!(affected, vec![pfx("10.0.0.0/8"), pfx("20.0.0.0/8")]);
        assert_eq!(rib.route_count(), 1);
        assert!(rib.get(pfx("10.0.0.0/8"), 1).is_some());
    }

    #[test]
    fn loc_rib_set_detects_change() {
        let mut rib = LocRib::default();
        let p = pfx("10.0.0.0/8");
        let e = LocRibEntry {
            source: RouteSource::Peer(0),
            attrs: PathAttributes::originate(Ipv4Addr::new(1, 1, 1, 1)).into(),
            since: SimTime::ZERO,
        };
        assert!(rib.set(p, e.clone()));
        assert!(!rib.set(p, e.clone()), "identical selection: no change");
        let e2 = LocRibEntry {
            source: RouteSource::Peer(1),
            ..e
        };
        assert!(rib.set(p, e2));
        assert_eq!(rib.len(), 1);
        assert!(rib.clear(p).is_some());
        assert!(rib.is_empty());
        assert!(rib.clear(p).is_none());
    }

    #[test]
    fn loc_rib_timestamp_change_alone_is_not_a_change() {
        let mut rib = LocRib::default();
        let p = pfx("10.0.0.0/8");
        let mk = |t| LocRibEntry {
            source: RouteSource::Local,
            attrs: PathAttributes::originate(Ipv4Addr::new(1, 1, 1, 1)).into(),
            since: t,
        };
        assert!(rib.set(p, mk(SimTime::ZERO)));
        assert!(!rib.set(p, mk(SimTime::from_secs(5))));
        // Original timestamp preserved? No: we keep the old entry on no-change.
        assert_eq!(rib.get(p).unwrap().since, SimTime::ZERO);
    }

    #[test]
    fn adj_out_delta_logic() {
        let mut out = AdjRibOut::default();
        let p = pfx("10.0.0.0/8");
        let a1 = SharedAttrs::from(PathAttributes::originate(Ipv4Addr::new(1, 1, 1, 1)));
        let a2 = SharedAttrs::from(PathAttributes::originate(Ipv4Addr::new(2, 2, 2, 2)));
        assert!(out.advertise(p, a1.clone()));
        assert!(!out.advertise(p, a1.clone()), "same attrs suppressed");
        assert!(out.advertise(p, a2), "changed attrs re-advertised");
        assert!(out.withdraw(p));
        assert!(!out.withdraw(p), "double withdraw suppressed");
        assert!(out.advertise(p, a1));
        out.clear();
        assert_eq!(out.len(), 0);
    }

    #[test]
    fn loc_rib_lpm_prefers_most_specific() {
        let mut rib = LocRib::default();
        let mk = |nh: u8| LocRibEntry {
            source: RouteSource::Peer(nh as usize),
            attrs: PathAttributes::originate(Ipv4Addr::new(10, 0, 0, nh)).into(),
            since: SimTime::ZERO,
        };
        rib.set(pfx("10.0.0.0/8"), mk(1));
        rib.set(pfx("10.1.0.0/16"), mk(2));
        rib.set(pfx("10.1.2.0/24"), mk(3));
        rib.set(pfx("0.0.0.0/0"), mk(4));
        fn hit(rib: &LocRib, ip: [u8; 4]) -> Option<Prefix> {
            rib.lpm(Ipv4Addr::from(ip)).map(|(p, _)| p)
        }
        assert_eq!(hit(&rib, [10, 1, 2, 9]), Some(pfx("10.1.2.0/24")));
        assert_eq!(hit(&rib, [10, 1, 9, 9]), Some(pfx("10.1.0.0/16")));
        assert_eq!(hit(&rib, [10, 9, 9, 9]), Some(pfx("10.0.0.0/8")));
        assert_eq!(hit(&rib, [9, 9, 9, 9]), Some(pfx("0.0.0.0/0")));
        // Re-setting an existing prefix must not corrupt bucket counts …
        rib.set(pfx("10.1.2.0/24"), mk(5));
        assert_eq!(hit(&rib, [10, 1, 2, 9]), Some(pfx("10.1.2.0/24")));
        // … and clearing empties its bucket so lookups fall through.
        rib.clear(pfx("10.1.2.0/24"));
        assert_eq!(hit(&rib, [10, 1, 2, 9]), Some(pfx("10.1.0.0/16")));
        rib.clear(pfx("0.0.0.0/0"));
        rib.clear(pfx("10.0.0.0/8"));
        rib.clear(pfx("10.1.0.0/16"));
        assert_eq!(hit(&rib, [10, 1, 2, 9]), None);
        assert!(rib.clear(pfx("10.1.0.0/16")).is_none(), "double clear");
    }

    #[test]
    fn loc_rib_lpm_edge_cases() {
        let mut rib = LocRib::default();
        let mk = |nh: u8| LocRibEntry {
            source: RouteSource::Peer(nh as usize),
            attrs: PathAttributes::originate(Ipv4Addr::new(10, 0, 0, nh)).into(),
            since: SimTime::ZERO,
        };
        let hit = |rib: &LocRib, ip: [u8; 4]| rib.lpm(Ipv4Addr::from(ip)).map(|(p, _)| p);

        // A /0-only table is a default route: every address matches it,
        // including the extremes of the space.
        rib.set(pfx("0.0.0.0/0"), mk(1));
        assert_eq!(hit(&rib, [0, 0, 0, 0]), Some(pfx("0.0.0.0/0")));
        assert_eq!(hit(&rib, [255, 255, 255, 255]), Some(pfx("0.0.0.0/0")));

        // Exact /32 host route vs a covering /24: the host route wins for
        // its one address, the /24 for every neighbor.
        rib.set(pfx("10.1.2.0/24"), mk(2));
        rib.set(pfx("10.1.2.7/32"), mk(3));
        assert_eq!(hit(&rib, [10, 1, 2, 7]), Some(pfx("10.1.2.7/32")));
        assert_eq!(hit(&rib, [10, 1, 2, 8]), Some(pfx("10.1.2.0/24")));

        // Bucket boundaries: the first and last address of each of the
        // /8, /16, /24 blocks stay inside that block, and one step past
        // the block's top falls through to the next-shorter covering
        // prefix, never to a sibling.
        rib.set(pfx("10.0.0.0/8"), mk(4));
        rib.set(pfx("10.1.0.0/16"), mk(5));
        assert_eq!(hit(&rib, [10, 1, 2, 0]), Some(pfx("10.1.2.0/24")));
        assert_eq!(hit(&rib, [10, 1, 2, 255]), Some(pfx("10.1.2.0/24")));
        assert_eq!(hit(&rib, [10, 1, 3, 0]), Some(pfx("10.1.0.0/16")));
        assert_eq!(hit(&rib, [10, 1, 0, 0]), Some(pfx("10.1.0.0/16")));
        assert_eq!(hit(&rib, [10, 1, 255, 255]), Some(pfx("10.1.0.0/16")));
        assert_eq!(hit(&rib, [10, 2, 0, 0]), Some(pfx("10.0.0.0/8")));
        assert_eq!(hit(&rib, [10, 0, 0, 0]), Some(pfx("10.0.0.0/8")));
        assert_eq!(hit(&rib, [10, 255, 255, 255]), Some(pfx("10.0.0.0/8")));
        assert_eq!(hit(&rib, [11, 0, 0, 0]), Some(pfx("0.0.0.0/0")));

        // Dropping the default leaves off-tree addresses unroutable while
        // the specific buckets keep answering.
        rib.clear(pfx("0.0.0.0/0"));
        assert_eq!(hit(&rib, [11, 0, 0, 0]), None);
        assert_eq!(hit(&rib, [10, 1, 2, 7]), Some(pfx("10.1.2.7/32")));
    }

    #[test]
    fn iteration_is_prefix_ordered() {
        let mut rib = AdjRibIn::default();
        rib.insert(pfx("30.0.0.0/8"), 0, entry(1));
        rib.insert(pfx("10.0.0.0/8"), 0, entry(1));
        rib.insert(pfx("20.0.0.0/8"), 0, entry(1));
        let order: Vec<Prefix> = rib.prefixes().collect();
        assert_eq!(
            order,
            vec![pfx("10.0.0.0/8"), pfx("20.0.0.0/8"), pfx("30.0.0.0/8")]
        );
    }
}
