//! Property-based tests of the decision process and policy engine.

use std::net::Ipv4Addr;

use proptest::prelude::*;

use bgpsdn_bgp::{
    decision, pfx, AsPath, Asn, Candidate, Community, DecisionConfig, MatchCond, Origin,
    PathAttributes, Prefix, RouteMap, RouteSource, RouterId, Rule, SetAction,
};

#[derive(Debug, Clone)]
struct CandSpec {
    local_pref: Option<u32>,
    path_len: usize,
    origin: Origin,
    med: Option<u32>,
    router_id: u32,
}

fn arb_cand() -> impl Strategy<Value = CandSpec> {
    (
        prop::option::of(50u32..200),
        1usize..6,
        prop_oneof![
            Just(Origin::Igp),
            Just(Origin::Egp),
            Just(Origin::Incomplete)
        ],
        prop::option::of(0u32..1000),
        1u32..1000,
    )
        .prop_map(|(local_pref, path_len, origin, med, router_id)| CandSpec {
            local_pref,
            path_len,
            origin,
            med,
            router_id,
        })
}

fn attrs_of(spec: &CandSpec, first_asn: u32) -> PathAttributes {
    let mut a = PathAttributes::originate(Ipv4Addr::new(10, 0, 0, 1));
    a.local_pref = spec.local_pref;
    a.origin = spec.origin;
    a.med = spec.med;
    a.as_path = AsPath::from_seq((0..spec.path_len as u32).map(|i| first_asn + i));
    a
}

proptest! {
    /// The selected candidate never compares worse than any other candidate
    /// (i.e. select really returns a maximum of the preference order).
    #[test]
    fn selection_is_a_maximum(specs in prop::collection::vec(arb_cand(), 1..12)) {
        let cfg = DecisionConfig::default();
        let attrs: Vec<PathAttributes> = specs
            .iter()
            .enumerate()
            .map(|(i, s)| attrs_of(s, 100 + i as u32))
            .collect();
        let cands: Vec<Candidate> = attrs
            .iter()
            .enumerate()
            .map(|(i, a)| Candidate {
                attrs: a,
                source: RouteSource::Peer(i),
                peer_router_id: RouterId(specs[i].router_id),
            })
            .collect();
        let best = decision::select(cands.clone(), &cfg).expect("non-empty");
        for c in &cands {
            let ord = decision::compare(&best, c, &cfg);
            prop_assert_ne!(ord, std::cmp::Ordering::Less,
                "selected candidate lost to {:?}", c.source);
        }
    }

    /// Selection is invariant under any permutation of the input.
    #[test]
    fn selection_is_order_independent(
        specs in prop::collection::vec(arb_cand(), 1..10),
        rotation in 0usize..10,
    ) {
        let cfg = DecisionConfig::default();
        let attrs: Vec<PathAttributes> = specs
            .iter()
            .enumerate()
            .map(|(i, s)| attrs_of(s, 100 + i as u32))
            .collect();
        let make = |order: Vec<usize>| {
            let cands = order.into_iter().map(|i| Candidate {
                attrs: &attrs[i],
                source: RouteSource::Peer(i),
                peer_router_id: RouterId(specs[i].router_id),
            });
            decision::select(cands, &cfg).map(|c| c.source)
        };
        let n = specs.len();
        let forward: Vec<usize> = (0..n).collect();
        let mut rotated: Vec<usize> = (0..n).collect();
        rotated.rotate_left(rotation % n.max(1));
        let mut reversed: Vec<usize> = (0..n).collect();
        reversed.reverse();
        let a = make(forward);
        prop_assert_eq!(a, make(rotated));
        prop_assert_eq!(a, make(reversed));
    }

    /// Higher local-pref always wins, regardless of everything else.
    #[test]
    fn local_pref_dominates(a in arb_cand(), b in arb_cand()) {
        let cfg = DecisionConfig::default();
        let lp_a = a.local_pref.unwrap_or(cfg.default_local_pref);
        let lp_b = b.local_pref.unwrap_or(cfg.default_local_pref);
        prop_assume!(lp_a != lp_b);
        let attrs_a = attrs_of(&a, 100);
        let attrs_b = attrs_of(&b, 200);
        let ca = Candidate { attrs: &attrs_a, source: RouteSource::Peer(0), peer_router_id: RouterId(a.router_id) };
        let cb = Candidate { attrs: &attrs_b, source: RouteSource::Peer(1), peer_router_id: RouterId(b.router_id) };
        let best = decision::select([ca, cb], &cfg).unwrap();
        let expect = if lp_a > lp_b { RouteSource::Peer(0) } else { RouteSource::Peer(1) };
        prop_assert_eq!(best.source, expect);
    }

    /// permit_all is the identity, deny_all annihilates, and a prefix-scoped
    /// deny only affects matching prefixes.
    #[test]
    fn route_map_dispositions(third_octet in 0u8..255, len in 9u8..32) {
        let p = bgpsdn_bgp::Prefix::new_masked(
            Ipv4Addr::new(10, third_octet, 3, 4), len,
        ).unwrap();
        let attrs = attrs_of(&CandSpec {
            local_pref: None, path_len: 2, origin: Origin::Igp, med: None, router_id: 1,
        }, 7);
        prop_assert_eq!(RouteMap::permit_all().apply(p, &attrs, Asn(1)), Some(attrs.clone()));
        prop_assert_eq!(RouteMap::deny_all().apply(p, &attrs, Asn(1)), None);

        let scoped = RouteMap {
            rules: vec![Rule {
                conds: vec![MatchCond::PrefixWithin(pfx("10.0.0.0/9"))],
                actions: vec![],
                permit: false,
            }],
            default_permit: true,
        };
        let denied = scoped.apply(p, &attrs, Asn(1)).is_none();
        prop_assert_eq!(denied, pfx("10.0.0.0/9").covers(p));
    }

    /// Set actions are applied exactly once and only on permit.
    #[test]
    fn route_map_actions_apply_once(lp in 1u32..500, community in any::<u32>()) {
        let attrs = attrs_of(&CandSpec {
            local_pref: None, path_len: 1, origin: Origin::Igp, med: None, router_id: 1,
        }, 9);
        let map = RouteMap {
            rules: vec![Rule {
                conds: vec![],
                actions: vec![
                    SetAction::LocalPref(lp),
                    SetAction::AddCommunity(Community(community)),
                ],
                permit: true,
            }],
            default_permit: false,
        };
        let out = map.apply(pfx("10.0.0.0/8"), &attrs, Asn(1)).unwrap();
        prop_assert_eq!(out.local_pref, Some(lp));
        prop_assert_eq!(
            out.rare().communities.iter().filter(|c| c.0 == community).count(),
            1
        );
        prop_assert_eq!(out.as_path, attrs.as_path, "path untouched");
    }

    /// Prefix cover relation is a partial order consistent with `contains`.
    #[test]
    fn prefix_cover_consistency(addr in any::<u32>(), l1 in 0u8..=32, l2 in 0u8..=32) {
        let p1 = Prefix::new_masked(Ipv4Addr::from(addr), l1).unwrap();
        let p2 = Prefix::new_masked(Ipv4Addr::from(addr), l2).unwrap();
        // Same base address: the shorter prefix covers the longer.
        if l1 <= l2 {
            prop_assert!(p1.covers(p2));
            prop_assert!(p1.contains(p2.network()));
        } else {
            prop_assert!(p2.covers(p1));
        }
        prop_assert!(p1.covers(p1));
    }
}
