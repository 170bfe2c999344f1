//! Routing policy: business relationships (Gao–Rexford) and route maps.
//!
//! The framework configures neighbors with a [`Relationship`] (the paper's
//! "customer-to-provider and peer-to-peer relationships" templates). Under
//! [`PolicyMode::GaoRexford`] the classic export rule applies: routes learned
//! from a customer are exported to everyone; routes learned from a peer or a
//! provider are exported only to customers. [`PolicyMode::AllPermit`] turns
//! every AS into a transit AS (the configuration of the paper's clique
//! experiments, where path exploration requires re-export).
//!
//! Route maps provide the per-neighbor match/set hooks Quagga-style
//! configurations use for overrides.

use crate::attrs::{Community, PathAttributes};
use crate::rib::RouteSource;
use crate::types::{Asn, Prefix};

/// Business relationship of a neighbor, from the configuring router's point
/// of view: "this neighbor is my …".
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Relationship {
    /// Neighbor pays me: widest import preference, export everything.
    Customer,
    /// Settlement-free peer.
    Peer,
    /// I pay this neighbor.
    Provider,
    /// A passive monitoring session (route collector): we export everything
    /// and import nothing, and it never counts as a real neighbor for
    /// policy classification.
    Monitor,
}

impl Relationship {
    /// The relationship as seen from the other end of the session.
    pub fn inverse(self) -> Relationship {
        match self {
            Relationship::Customer => Relationship::Provider,
            Relationship::Provider => Relationship::Customer,
            Relationship::Peer => Relationship::Peer,
            Relationship::Monitor => Relationship::Monitor,
        }
    }
}

/// Overall policy regime of a router.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PolicyMode {
    /// Accept and re-export everything (full transit). LOCAL_PREF is the
    /// decision default everywhere.
    AllPermit,
    /// Gao–Rexford import preferences and export filtering.
    GaoRexford,
}

/// LOCAL_PREF assigned on import by relationship under Gao–Rexford.
/// Customer routes are most preferred, then peers, then providers.
pub fn import_local_pref(mode: PolicyMode, rel: Relationship) -> Option<u32> {
    match mode {
        PolicyMode::AllPermit => None, // leave at decision default
        PolicyMode::GaoRexford => Some(match rel {
            Relationship::Customer => 130,
            Relationship::Peer => 110,
            Relationship::Provider => 90,
            Relationship::Monitor => 0, // imports are rejected anyway
        }),
    }
}

/// Whether imports from a neighbor with this relationship are accepted at
/// all (monitor sessions are export-only).
pub fn import_allowed(rel: Relationship) -> bool {
    rel != Relationship::Monitor
}

/// The Gao–Rexford export rule.
///
/// `learned_from` is how the best route entered this AS (`None` = locally
/// originated), `to` is the neighbor we are exporting to.
pub fn export_allowed(
    mode: PolicyMode,
    learned_from: Option<Relationship>,
    to: Relationship,
) -> bool {
    // Everything is always exported to monitors: that's their purpose.
    if to == Relationship::Monitor {
        return true;
    }
    match mode {
        PolicyMode::AllPermit => true,
        PolicyMode::GaoRexford => match learned_from {
            // Own routes and customer routes go everywhere.
            None | Some(Relationship::Customer) => true,
            // Peer/provider routes only go down to customers.
            Some(Relationship::Peer) | Some(Relationship::Provider) => to == Relationship::Customer,
            Some(Relationship::Monitor) => false, // never re-export monitor input
        },
    }
}

/// Helper: relationship class of a Loc-RIB source given the neighbor table.
pub(crate) fn source_relationship(
    source: RouteSource,
    rel_of_peer: impl Fn(usize) -> Relationship,
) -> Option<Relationship> {
    match source {
        RouteSource::Local => None,
        RouteSource::Peer(i) => Some(rel_of_peer(i)),
    }
}

/// A match condition inside a route-map rule.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MatchCond {
    /// Exact prefix match.
    PrefixExact(Prefix),
    /// Prefix equal to or more specific than the given one.
    PrefixWithin(Prefix),
    /// AS_PATH mentions this AS anywhere.
    AsPathContains(Asn),
    /// Route was originated by this AS.
    OriginatedBy(Asn),
    /// Carries this community.
    CommunityHas(Community),
}

impl MatchCond {
    fn matches(&self, prefix: Prefix, attrs: &PathAttributes, my_asn: Asn) -> bool {
        match self {
            MatchCond::PrefixExact(p) => *p == prefix,
            MatchCond::PrefixWithin(p) => p.covers(prefix),
            MatchCond::AsPathContains(a) => attrs.as_path.contains(*a),
            MatchCond::OriginatedBy(a) => attrs.as_path.origin_asn().unwrap_or(my_asn) == *a,
            MatchCond::CommunityHas(c) => attrs.rare().communities.contains(c),
        }
    }
}

/// A set action inside a route-map rule.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SetAction {
    /// Overwrite LOCAL_PREF.
    LocalPref(u32),
    /// Overwrite MED.
    Med(u32),
    /// Prepend own (or any) ASN `n` extra times.
    Prepend(Asn, u8),
    /// Attach a community.
    AddCommunity(Community),
    /// Remove all communities.
    StripCommunities,
}

impl SetAction {
    fn apply(&self, attrs: &mut PathAttributes) {
        match self {
            SetAction::LocalPref(v) => attrs.local_pref = Some(*v),
            SetAction::Med(v) => attrs.med = Some(*v),
            SetAction::Prepend(asn, n) => attrs.as_path.prepend_n(*asn, *n as usize),
            SetAction::AddCommunity(c) => attrs.edit_rare(|r| {
                if !r.communities.contains(c) {
                    r.communities.push(*c);
                }
            }),
            SetAction::StripCommunities => attrs.edit_rare(|r| r.communities.clear()),
        }
    }
}

/// One rule: if all conditions match, apply the actions and permit/deny.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Rule {
    /// All must match (empty = match anything).
    pub conds: Vec<MatchCond>,
    /// Applied when the rule matches and permits.
    pub actions: Vec<SetAction>,
    /// Permit (true) or deny (false) on match.
    pub permit: bool,
}

/// An ordered route map. The first matching rule decides; routes matching no
/// rule follow `default_permit`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RouteMap {
    /// Ordered rules.
    pub rules: Vec<Rule>,
    /// Disposition when no rule matches.
    pub default_permit: bool,
}

impl Default for RouteMap {
    fn default() -> Self {
        RouteMap {
            rules: vec![],
            default_permit: true,
        }
    }
}

impl RouteMap {
    /// Apply to a route. Returns the transformed attributes or `None` when
    /// denied. The input attributes are cloned only on permit.
    pub fn apply(
        &self,
        prefix: Prefix,
        attrs: &PathAttributes,
        my_asn: Asn,
    ) -> Option<PathAttributes> {
        for rule in &self.rules {
            if rule.conds.iter().all(|c| c.matches(prefix, attrs, my_asn)) {
                if !rule.permit {
                    return None;
                }
                let mut out = attrs.clone();
                for a in &rule.actions {
                    a.apply(&mut out);
                }
                return Some(out);
            }
        }
        if self.default_permit {
            Some(attrs.clone())
        } else {
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attrs::AsPath;
    use crate::types::pfx;
    use std::net::Ipv4Addr;

    #[test]
    fn relationship_inverse() {
        assert_eq!(Relationship::Customer.inverse(), Relationship::Provider);
        assert_eq!(Relationship::Provider.inverse(), Relationship::Customer);
        assert_eq!(Relationship::Peer.inverse(), Relationship::Peer);
        assert_eq!(Relationship::Monitor.inverse(), Relationship::Monitor);
    }

    #[test]
    fn gao_rexford_local_prefs_ordered() {
        let m = PolicyMode::GaoRexford;
        let c = import_local_pref(m, Relationship::Customer).unwrap();
        let p = import_local_pref(m, Relationship::Peer).unwrap();
        let pr = import_local_pref(m, Relationship::Provider).unwrap();
        assert!(c > p && p > pr);
        assert_eq!(
            import_local_pref(PolicyMode::AllPermit, Relationship::Peer),
            None
        );
    }

    #[test]
    fn monitor_sessions_are_export_only() {
        assert!(!import_allowed(Relationship::Monitor));
        assert!(import_allowed(Relationship::Peer));
        for lf in [
            None,
            Some(Relationship::Customer),
            Some(Relationship::Peer),
            Some(Relationship::Provider),
        ] {
            assert!(export_allowed(
                PolicyMode::GaoRexford,
                lf,
                Relationship::Monitor
            ));
        }
    }

    #[test]
    fn gao_rexford_export_matrix() {
        let m = PolicyMode::GaoRexford;
        use Relationship::*;
        // Own routes go everywhere.
        assert!(export_allowed(m, None, Customer));
        assert!(export_allowed(m, None, Peer));
        assert!(export_allowed(m, None, Provider));
        // Customer routes go everywhere.
        assert!(export_allowed(m, Some(Customer), Customer));
        assert!(export_allowed(m, Some(Customer), Peer));
        assert!(export_allowed(m, Some(Customer), Provider));
        // Peer routes: only to customers.
        assert!(export_allowed(m, Some(Peer), Customer));
        assert!(!export_allowed(m, Some(Peer), Peer));
        assert!(!export_allowed(m, Some(Peer), Provider));
        // Provider routes: only to customers.
        assert!(export_allowed(m, Some(Provider), Customer));
        assert!(!export_allowed(m, Some(Provider), Peer));
        assert!(!export_allowed(m, Some(Provider), Provider));
        // Monitor input never re-exported.
        assert!(!export_allowed(m, Some(Monitor), Customer));
    }

    #[test]
    fn all_permit_exports_everything() {
        use Relationship::*;
        for lf in [None, Some(Peer), Some(Provider), Some(Customer)] {
            for to in [Customer, Peer, Provider] {
                assert!(export_allowed(PolicyMode::AllPermit, lf, to));
            }
        }
    }

    fn attrs(path: &[u32]) -> PathAttributes {
        let mut a = PathAttributes::originate(Ipv4Addr::new(10, 0, 0, 1));
        a.as_path = AsPath::from_seq(path.iter().copied());
        a
    }

    #[test]
    fn route_map_first_match_wins() {
        let map = RouteMap {
            rules: vec![
                Rule {
                    conds: vec![MatchCond::PrefixExact(pfx("10.0.0.0/8"))],
                    actions: vec![SetAction::LocalPref(200)],
                    permit: true,
                },
                Rule {
                    conds: vec![],
                    actions: vec![],
                    permit: false,
                },
            ],
            default_permit: true,
        };
        let a = attrs(&[1]);
        let hit = map.apply(pfx("10.0.0.0/8"), &a, Asn(9)).unwrap();
        assert_eq!(hit.local_pref, Some(200));
        assert!(
            map.apply(pfx("20.0.0.0/8"), &a, Asn(9)).is_none(),
            "caught by deny-any"
        );
    }

    #[test]
    fn route_map_conditions_are_conjunctive() {
        let map = RouteMap {
            rules: vec![Rule {
                conds: vec![
                    MatchCond::PrefixWithin(pfx("10.0.0.0/8")),
                    MatchCond::AsPathContains(Asn(7)),
                ],
                actions: vec![SetAction::AddCommunity(Community::new(1, 1))],
                permit: true,
            }],
            default_permit: false,
        };
        let with7 = attrs(&[5, 7]);
        let without7 = attrs(&[5, 6]);
        assert!(map.apply(pfx("10.1.0.0/16"), &with7, Asn(9)).is_some());
        assert!(map.apply(pfx("10.1.0.0/16"), &without7, Asn(9)).is_none());
        assert!(map.apply(pfx("11.0.0.0/8"), &with7, Asn(9)).is_none());
    }

    #[test]
    fn set_actions_apply() {
        let map = RouteMap {
            rules: vec![Rule {
                conds: vec![],
                actions: vec![
                    SetAction::Med(55),
                    SetAction::Prepend(Asn(9), 2),
                    SetAction::AddCommunity(Community::new(9, 1)),
                ],
                permit: true,
            }],
            default_permit: true,
        };
        let a = attrs(&[1]);
        let out = map.apply(pfx("10.0.0.0/8"), &a, Asn(9)).unwrap();
        assert_eq!(out.med, Some(55));
        assert_eq!(out.as_path.flatten(), vec![Asn(9), Asn(9), Asn(1)]);
        assert_eq!(out.rare().communities, vec![Community::new(9, 1)]);
    }

    #[test]
    fn strip_communities_and_dedup() {
        let mut a = attrs(&[1]);
        a.edit_rare(|r| r.communities = vec![Community::new(1, 1)]);
        let strip = RouteMap {
            rules: vec![Rule {
                conds: vec![MatchCond::CommunityHas(Community::new(1, 1))],
                actions: vec![SetAction::StripCommunities],
                permit: true,
            }],
            default_permit: true,
        };
        let out = strip.apply(pfx("10.0.0.0/8"), &a, Asn(9)).unwrap();
        assert!(out.rare().communities.is_empty());

        // AddCommunity is idempotent.
        let add = RouteMap {
            rules: vec![Rule {
                conds: vec![],
                actions: vec![
                    SetAction::AddCommunity(Community::new(2, 2)),
                    SetAction::AddCommunity(Community::new(2, 2)),
                ],
                permit: true,
            }],
            default_permit: true,
        };
        let out = add.apply(pfx("10.0.0.0/8"), &a, Asn(9)).unwrap();
        assert_eq!(
            out.rare()
                .communities
                .iter()
                .filter(|c| **c == Community::new(2, 2))
                .count(),
            1
        );
    }

    #[test]
    fn originated_by_matches_last_asn() {
        let map = RouteMap {
            rules: vec![Rule {
                conds: vec![MatchCond::OriginatedBy(Asn(3))],
                actions: vec![],
                permit: true,
            }],
            default_permit: false,
        };
        assert!(map
            .apply(pfx("10.0.0.0/8"), &attrs(&[1, 2, 3]), Asn(9))
            .is_some());
        assert!(map
            .apply(pfx("10.0.0.0/8"), &attrs(&[3, 2, 1]), Asn(9))
            .is_none());
    }

    #[test]
    fn deny_all_and_permit_all() {
        let a = attrs(&[1]);
        let permit_all = RouteMap::default();
        assert!(permit_all.apply(pfx("1.0.0.0/8"), &a, Asn(9)).is_some());
        let deny_all = RouteMap {
            rules: vec![],
            default_permit: false,
        };
        assert!(deny_all.apply(pfx("1.0.0.0/8"), &a, Asn(9)).is_none());
    }
}
