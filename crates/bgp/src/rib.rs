//! Routing Information Bases: Adj-RIB-In, Loc-RIB and Adj-RIB-Out.
//!
//! A router's tables name the same few hundred prefixes over and over, so
//! each of `AdjRibIn` and `LocRib` gives a prefix a dense *slot* the first
//! time it sees it (`SlotIndex`) and keeps its entries in slot-indexed
//! `Vec`s. Every walk goes through the prefix-sorted index, so iteration
//! order — and therefore everything downstream of it, including which
//! UPDATE goes out first — is prefix order, as deterministic as a sorted
//! map. A peer's `AdjRibOut` is keyed by the Loc-RIB's slot of the prefix.

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

/// A prefix-sorted map from prefix to dense slot. A prefix keeps its slot
/// for the life of the table, so one that returns after a withdrawal lands
/// where it was; slots are `0..len` in order of first sight.
#[derive(Debug, Default)]
struct SlotIndex(Vec<(Prefix, u32)>);

impl SlotIndex {
    fn search(&self, prefix: Prefix) -> Result<usize, usize> {
        self.0.binary_search_by_key(&prefix, |(p, _)| *p)
    }

    /// The prefix's slot, if it has one.
    fn find(&self, prefix: Prefix) -> Option<usize> {
        self.search(prefix).ok().map(|i| self.0[i].1 as usize)
    }

    /// The prefix's slot, given it one if it had none.
    fn intern(&mut self, prefix: Prefix) -> usize {
        match self.search(prefix) {
            Ok(i) => self.0[i].1 as usize,
            Err(i) => {
                let slot = self.0.len();
                self.0.insert(i, (prefix, slot as u32));
                debug_assert!(self.0.windows(2).all(|w| w[0].0 < w[1].0), "prefix-sorted");
                slot
            }
        }
    }

    /// Every `(prefix, slot)` in prefix order.
    fn iter(&self) -> impl Iterator<Item = (Prefix, usize)> + '_ {
        self.0.iter().map(|&(p, slot)| (p, slot as usize))
    }

    fn len(&self) -> usize {
        self.0.len()
    }
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
/// decision process reads its candidates from consecutive memory. A row
/// holds exactly as many routes as it has room for (nearly every prefix
/// has one or two), and an emptied row frees its block.
type RibInRow = Vec<(PeerIdx, RibInEntry)>;

/// Where `peer`'s route is (`Ok`) or would go (`Err`) in a row.
pub(crate) fn row_slot(row: &[(PeerIdx, RibInEntry)], peer: PeerIdx) -> Result<usize, usize> {
    row.binary_search_by_key(&peer, |(p, _)| *p)
}

/// Per-prefix, per-peer store of accepted routes.
#[derive(Debug, Default)]
pub struct AdjRibIn {
    index: SlotIndex,
    /// One row per slot; an empty row is a prefix without routes.
    rows: Vec<RibInRow>,
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
        let slot = self.index.intern(prefix);
        if slot == self.rows.len() {
            self.rows.push(Vec::new());
        }
        debug_assert_eq!(self.rows.len(), self.index.len());
        let row = &mut self.rows[slot];
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
                row.reserve_exact(1);
                row.insert(i, (peer, entry));
                if self.peer_counts.len() <= peer {
                    self.peer_counts.resize(peer + 1, 0);
                }
                self.peer_counts[peer] += 1;
                true
            }
        }
    }

    /// Remove the route at `at` from `row`, freeing the row once it empties.
    fn take(row: &mut RibInRow, at: usize) {
        row.remove(at);
        if row.is_empty() {
            *row = Vec::new();
        }
    }

    /// Remove the peer's route for a prefix. Returns true when a route was
    /// actually removed.
    pub fn remove(&mut self, prefix: Prefix, peer: PeerIdx) -> bool {
        let Some(slot) = self.index.find(prefix) else {
            return false;
        };
        let row = &mut self.rows[slot];
        let Ok(i) = row_slot(row, peer) else {
            return false;
        };
        Self::take(row, i);
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
        for (prefix, slot) in self.index.iter() {
            let row = &mut self.rows[slot];
            if let Ok(i) = row_slot(row, peer) {
                if goes(&row[i].1) {
                    Self::take(row, i);
                    affected.push(prefix);
                }
            }
        }
        if let Some(count) = self.peer_counts.get_mut(peer) {
            *count -= affected.len();
        }
        affected
    }

    /// Remove every route learned from `peer` (session reset). Returns the
    /// affected prefixes.
    // detlint: allow test-oracle step proptest_rib drives against its reference
    pub fn remove_peer(&mut self, peer: PeerIdx) -> InlineVec<Prefix, 8> {
        self.remove_peer_routes(peer, |_| true)
    }

    /// Remove every route learned from `peer` that was last received
    /// before `cutoff` — the RFC 4724 stale flush at the end of a graceful
    /// restart window: anything the restarted peer re-announced carries a
    /// fresh `learned_at` and survives; anything it didn't is stale and
    /// goes. Returns the affected prefixes.
    // detlint: allow test-oracle step proptest_rib drives against its reference
    pub fn flush_stale(&mut self, peer: PeerIdx, cutoff: SimTime) -> InlineVec<Prefix, 8> {
        self.remove_peer_routes(peer, |e| e.learned_at < cutoff)
    }

    /// One prefix's routes in peer-index order (empty when there are none).
    pub(crate) fn row(&self, prefix: Prefix) -> &[(PeerIdx, RibInEntry)] {
        self.index.find(prefix).map_or(&[], |slot| &self.rows[slot])
    }

    /// Candidate routes for one prefix, in peer-index order.
    pub fn candidates(&self, prefix: Prefix) -> impl Iterator<Item = (PeerIdx, &RibInEntry)> {
        self.row(prefix).iter().map(|(p, e)| (*p, e))
    }

    /// The peer's route for a prefix, if accepted.
    // detlint: allow test-oracle read-only view the RIB and router tests check
    pub fn get(&self, prefix: Prefix, peer: PeerIdx) -> Option<&RibInEntry> {
        let row = self.row(prefix);
        row_slot(row, peer).ok().map(|i| &row[i].1)
    }

    /// All prefixes with at least one candidate, in prefix order.
    pub fn prefixes(&self) -> impl Iterator<Item = Prefix> + '_ {
        self.index
            .iter()
            .filter(|&(_, slot)| !self.rows[slot].is_empty())
            .map(|(p, _)| p)
    }

    /// Number of prefixes currently learned from one peer (the
    /// maximum-prefix guardrail's counter).
    // detlint: allow test-oracle read-only view proptest_rib checks against its reference
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
    index: SlotIndex,
    /// One entry per slot; `None` is a prefix without a best route.
    best: Vec<Option<LocRibEntry>>,
    /// Number of prefixes with a best route.
    len: usize,
    /// Number of stored prefixes per prefix length, so `lpm` probes only
    /// the populated lengths (one exact-match lookup each) instead of
    /// scanning the whole table.
    len_counts: [u32; 33],
}

impl Default for LocRib {
    fn default() -> Self {
        LocRib {
            index: SlotIndex::default(),
            best: Vec::new(),
            len: 0,
            len_counts: [0; 33],
        }
    }
}

impl LocRib {
    /// Set the best route for a prefix. Returns true when the selection
    /// changed (source or attributes differ).
    // detlint: allow test-oracle step proptest_rib drives against its reference
    pub fn set(&mut self, prefix: Prefix, entry: LocRibEntry) -> bool {
        self.select(prefix, Some(entry)).is_some()
    }

    /// Set (`Some`) or clear (`None`) the best route for a prefix. Returns
    /// the prefix's slot when the selection changed.
    pub(crate) fn select(&mut self, prefix: Prefix, entry: Option<LocRibEntry>) -> Option<usize> {
        let Some(entry) = entry else {
            let slot = self.index.find(prefix)?;
            return self.clear(prefix).map(|_| slot);
        };
        let slot = self.index.intern(prefix);
        if slot == self.best.len() {
            self.best.push(None);
        }
        debug_assert_eq!(self.best.len(), self.index.len());
        let changed = match &mut self.best[slot] {
            Some(old) => {
                let changed = old.source != entry.source || old.attrs != entry.attrs;
                if changed {
                    *old = entry;
                }
                changed
            }
            vacant => {
                *vacant = Some(entry);
                self.len += 1;
                self.len_counts[prefix.len() as usize] += 1;
                true
            }
        };
        changed.then_some(slot)
    }

    /// Remove the best route (prefix now unreachable). Returns the removed
    /// entry when there was one.
    // detlint: allow test-oracle step proptest_rib drives against its reference
    pub fn clear(&mut self, prefix: Prefix) -> Option<LocRibEntry> {
        let removed = self.best[self.index.find(prefix)?].take();
        if removed.is_some() {
            self.len -= 1;
            self.len_counts[prefix.len() as usize] -= 1;
        }
        removed
    }

    /// The prefix's slot, the key of every peer's [`AdjRibOut`]: assigned
    /// when the prefix is first [`set`](LocRib::set) and kept for the
    /// table's life.
    // detlint: allow test-oracle read-only view proptest_rib checks against its reference
    pub fn slot(&self, prefix: Prefix) -> Option<usize> {
        self.index.find(prefix)
    }

    /// Current best route for a prefix.
    // detlint: allow test-oracle read-only view proptest_rib and the outage tests check
    pub fn get(&self, prefix: Prefix) -> Option<&LocRibEntry> {
        self.best[self.slot(prefix)?].as_ref()
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
            if let Some(e) = self.get(probe) {
                return Some((probe, e));
            }
        }
        None
    }

    /// All `(prefix, slot, best)` triples in prefix order.
    pub(crate) fn entries(&self) -> impl Iterator<Item = (Prefix, usize, &LocRibEntry)> {
        self.index
            .iter()
            .filter_map(|(p, slot)| Some((p, slot, self.best[slot].as_ref()?)))
    }

    /// All `(prefix, best)` pairs in prefix order.
    pub fn iter(&self) -> impl Iterator<Item = (Prefix, &LocRibEntry)> {
        self.entries().map(|(p, _, e)| (p, e))
    }

    /// Number of reachable prefixes.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when no prefix is reachable.
    // detlint: allow len_without_is_empty companion of the public len
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

/// What was last advertised to one peer (for delta computation), keyed by
/// the prefix's [`LocRib::slot`]: everything a router advertises is, or
/// was, in its Loc-RIB.
#[derive(Debug, Default)]
pub struct AdjRibOut {
    advertised: Vec<Option<SharedAttrs>>,
}

impl AdjRibOut {
    /// Record an advertisement. Returns true when it differs from what was
    /// previously advertised (i.e. an UPDATE is warranted).
    // detlint: allow test-oracle step proptest_rib drives against its reference
    pub fn advertise(&mut self, slot: usize, attrs: SharedAttrs) -> bool {
        if slot >= self.advertised.len() {
            self.advertised.resize(slot + 1, None);
        }
        let old = &mut self.advertised[slot];
        let changed = old.as_ref() != Some(&attrs);
        if changed {
            *old = Some(attrs);
        }
        changed
    }

    /// Record a withdrawal. Returns true when the slot was advertised.
    // detlint: allow test-oracle step proptest_rib drives against its reference
    pub fn withdraw(&mut self, slot: usize) -> bool {
        self.advertised
            .get_mut(slot)
            .is_some_and(|a| a.take().is_some())
    }

    /// Attributes last advertised for a slot.
    // detlint: allow test-oracle read-only view proptest_rib checks against its reference
    pub fn get(&self, slot: usize) -> Option<&SharedAttrs> {
        self.advertised.get(slot)?.as_ref()
    }

    /// Drop all state (session reset).
    // detlint: allow test-oracle step proptest_rib drives against its reference
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
        assert_eq!(rib.rows.iter().map(Vec::len).sum::<usize>(), 1);
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
        assert_eq!(rib.rows.iter().map(Vec::len).sum::<usize>(), 1);
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
        let slot = 3;
        let a1 = SharedAttrs::from(PathAttributes::originate(Ipv4Addr::new(1, 1, 1, 1)));
        let a2 = SharedAttrs::from(PathAttributes::originate(Ipv4Addr::new(2, 2, 2, 2)));
        assert!(!out.withdraw(slot), "never advertised");
        assert!(out.advertise(slot, a1.clone()));
        assert!(!out.advertise(slot, a1.clone()), "same attrs suppressed");
        assert!(out.advertise(slot, a2), "changed attrs re-advertised");
        assert!(out.withdraw(slot));
        assert!(!out.withdraw(slot), "double withdraw suppressed");
        assert!(out.advertise(slot, a1.clone()));
        assert_eq!(out.get(slot), Some(&a1));
        assert_eq!(out.get(0), None);
        out.clear();
        assert_eq!(out.get(slot), None);
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
