//! The BGP decision process (RFC 4271 §9.1.2.2).
//!
//! Pure functions over route candidates, so the selection logic is testable
//! in isolation from the router's event handling. All tie-breaks are
//! deterministic; the final resort is the peer index, which is stable per
//! configuration.

use std::cmp::Ordering;

use crate::attrs::PathAttributes;
use crate::rib::{PeerIdx, RouteSource};
use crate::types::RouterId;

/// Knobs of the decision process.
#[derive(Debug, Clone)]
pub struct DecisionConfig {
    /// LOCAL_PREF assumed when the attribute is absent.
    pub default_local_pref: u32,
    /// Compare MED between routes from *different* neighbor ASes too
    /// (`bgp always-compare-med`). Default off, per RFC.
    pub always_compare_med: bool,
    /// Treat a missing MED as this value (0 = best, Cisco default).
    pub missing_med: u32,
}

impl Default for DecisionConfig {
    fn default() -> Self {
        DecisionConfig {
            default_local_pref: 100,
            always_compare_med: false,
            missing_med: 0,
        }
    }
}

/// One route candidate entering the decision process.
#[derive(Debug, Clone)]
pub struct Candidate<'a> {
    /// Attributes after import policy.
    pub attrs: &'a PathAttributes,
    /// Local or which peer.
    pub source: RouteSource,
    /// Advertising peer's router id (`RouterId(0)` for local).
    pub peer_router_id: RouterId,
}

impl<'a> Candidate<'a> {
    fn local_pref(&self, cfg: &DecisionConfig) -> u32 {
        self.attrs.local_pref.unwrap_or(cfg.default_local_pref)
    }

    fn med(&self, cfg: &DecisionConfig) -> u32 {
        self.attrs.med.unwrap_or(cfg.missing_med)
    }

    fn peer_idx(&self) -> PeerIdx {
        match self.source {
            RouteSource::Local => 0,
            RouteSource::Peer(i) => i,
        }
    }
}

/// Compare two candidates; `Ordering::Greater` means `a` is preferred.
// detlint: allow test-oracle step proptest_decision drives against its reference
pub fn compare(a: &Candidate<'_>, b: &Candidate<'_>, cfg: &DecisionConfig) -> Ordering {
    // 0. A locally originated route always wins (administrative weight).
    let a_local = a.source == RouteSource::Local;
    let b_local = b.source == RouteSource::Local;
    if a_local != b_local {
        return if a_local {
            Ordering::Greater
        } else {
            Ordering::Less
        };
    }

    // 1. Highest LOCAL_PREF.
    let lp = a.local_pref(cfg).cmp(&b.local_pref(cfg));
    if lp != Ordering::Equal {
        return lp;
    }

    // 2. Shortest AS_PATH.
    let len = b.attrs.as_path.path_len().cmp(&a.attrs.as_path.path_len());
    if len != Ordering::Equal {
        return len;
    }

    // 3. Lowest ORIGIN (IGP < EGP < Incomplete).
    let origin = b.attrs.origin.cmp(&a.attrs.origin);
    if origin != Ordering::Equal {
        return origin;
    }

    // 4. Lowest MED, only among routes from the same neighbor AS unless
    //    always_compare_med is set.
    let comparable = cfg.always_compare_med
        || (a.attrs.as_path.first_asn().is_some()
            && a.attrs.as_path.first_asn() == b.attrs.as_path.first_asn());
    if comparable {
        let med = b.med(cfg).cmp(&a.med(cfg));
        if med != Ordering::Equal {
            return med;
        }
    }

    // 5. (eBGP over iBGP — all sessions here are eBGP, skipped.)
    // 6. (lowest IGP metric to next hop — single-device ASes, skipped.)

    // 7. Lowest peer router id.
    let rid = b.peer_router_id.cmp(&a.peer_router_id);
    if rid != Ordering::Equal {
        return rid;
    }

    // 8. Lowest peer index (stands in for lowest neighbor address).
    b.peer_idx().cmp(&a.peer_idx())
}

/// Select the best candidate, or `None` when there are none.
/// Deterministic for any input order (comparison is a total order over the
/// candidates given distinct peer indices).
pub fn select<'a, I>(candidates: I, cfg: &DecisionConfig) -> Option<Candidate<'a>>
where
    I: IntoIterator<Item = Candidate<'a>>,
{
    candidates
        .into_iter()
        .max_by(|a, b| match compare(a, b, cfg) {
            // max_by keeps the *last* maximal element; invert equal-case to
            // keep the first for stability. compare never returns Equal for
            // distinct peers, but be safe.
            Ordering::Equal => Ordering::Greater,
            o => o,
        })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attrs::{AsPath, Origin};
    use std::net::Ipv4Addr;

    fn attrs(path: &[u32]) -> PathAttributes {
        let mut a = PathAttributes::originate(Ipv4Addr::new(10, 0, 0, 1));
        a.as_path = AsPath::from_seq(path.iter().copied());
        a
    }

    fn cand<'a>(attrs: &'a PathAttributes, peer: PeerIdx, rid: u32) -> Candidate<'a> {
        Candidate {
            attrs,
            source: RouteSource::Peer(peer),
            peer_router_id: RouterId(rid),
        }
    }

    #[test]
    fn local_pref_dominates_path_length() {
        let cfg = DecisionConfig::default();
        let mut short = attrs(&[1]);
        short.local_pref = Some(90);
        let mut long = attrs(&[1, 2, 3]);
        long.local_pref = Some(130);
        let a = cand(&short, 0, 1);
        let b = cand(&long, 1, 2);
        assert_eq!(compare(&b, &a, &cfg), Ordering::Greater);
        let best = select([a, b], &cfg).unwrap();
        assert_eq!(best.source, RouteSource::Peer(1));
    }

    #[test]
    fn shorter_path_wins_at_equal_pref() {
        let cfg = DecisionConfig::default();
        let short = attrs(&[1, 2]);
        let long = attrs(&[3, 4, 5]);
        let best = select([cand(&long, 0, 1), cand(&short, 1, 2)], &cfg).unwrap();
        assert_eq!(best.source, RouteSource::Peer(1));
    }

    #[test]
    fn origin_breaks_path_length_tie() {
        let cfg = DecisionConfig::default();
        let igp = attrs(&[1, 2]);
        let mut egp = attrs(&[3, 4]);
        egp.origin = Origin::Egp;
        let best = select([cand(&egp, 0, 1), cand(&igp, 1, 2)], &cfg).unwrap();
        assert_eq!(best.source, RouteSource::Peer(1));
    }

    #[test]
    fn med_compared_only_same_neighbor_as() {
        let cfg = DecisionConfig::default();
        // Same neighbor AS 7: lower MED wins.
        let mut m10 = attrs(&[7, 9]);
        m10.med = Some(10);
        let mut m5 = attrs(&[7, 8]);
        m5.med = Some(5);
        let best = select([cand(&m10, 0, 1), cand(&m5, 1, 2)], &cfg).unwrap();
        assert_eq!(best.source, RouteSource::Peer(1));

        // Different neighbor AS: MED ignored, falls through to router id.
        let mut x = attrs(&[7, 9]);
        x.med = Some(100);
        let mut y = attrs(&[8, 9]);
        y.med = Some(1);
        let best = select([cand(&x, 0, 1), cand(&y, 1, 2)], &cfg).unwrap();
        assert_eq!(best.source, RouteSource::Peer(0), "lower router id wins");
    }

    #[test]
    fn always_compare_med_flag() {
        let cfg = DecisionConfig {
            always_compare_med: true,
            ..Default::default()
        };
        let mut x = attrs(&[7, 9]);
        x.med = Some(100);
        let mut y = attrs(&[8, 9]);
        y.med = Some(1);
        let best = select([cand(&x, 0, 1), cand(&y, 1, 2)], &cfg).unwrap();
        assert_eq!(best.source, RouteSource::Peer(1));
    }

    #[test]
    fn missing_med_treated_as_best_by_default() {
        let cfg = DecisionConfig::default();
        let mut with_med = attrs(&[7]);
        with_med.med = Some(5);
        let without = attrs(&[7]);
        let best = select([cand(&with_med, 0, 1), cand(&without, 1, 2)], &cfg).unwrap();
        assert_eq!(best.source, RouteSource::Peer(1));
    }

    #[test]
    fn router_id_then_peer_idx_tiebreak() {
        let cfg = DecisionConfig::default();
        let a1 = attrs(&[1]);
        let a2 = attrs(&[2]);
        let best = select([cand(&a1, 0, 9), cand(&a2, 1, 3)], &cfg).unwrap();
        assert_eq!(best.source, RouteSource::Peer(1), "lower router id");

        // Equal router id (possible with relayed sessions): lower peer idx.
        let best = select([cand(&a2, 1, 5), cand(&a1, 0, 5)], &cfg).unwrap();
        assert_eq!(best.source, RouteSource::Peer(0));
    }

    #[test]
    fn local_route_beats_everything() {
        let cfg = DecisionConfig::default();
        let mut great = attrs(&[1]);
        great.local_pref = Some(1000);
        let local_attrs = attrs(&[]);
        let local = Candidate {
            attrs: &local_attrs,
            source: RouteSource::Local,
            peer_router_id: RouterId(0),
        };
        let best = select([cand(&great, 0, 1), local], &cfg).unwrap();
        assert_eq!(best.source, RouteSource::Local);
    }

    #[test]
    fn empty_input_selects_none() {
        let cfg = DecisionConfig::default();
        assert!(select(std::iter::empty(), &cfg).is_none());
    }

    #[test]
    fn selection_independent_of_input_order() {
        let cfg = DecisionConfig::default();
        let a = attrs(&[1, 2]);
        let b = attrs(&[3]);
        let c = attrs(&[4, 5, 6]);
        let c1 = [cand(&a, 0, 1), cand(&b, 1, 2), cand(&c, 2, 3)];
        let c2 = [cand(&c, 2, 3), cand(&a, 0, 1), cand(&b, 1, 2)];
        let best1 = select(c1, &cfg).unwrap();
        let best2 = select(c2, &cfg).unwrap();
        assert_eq!(best1.source, best2.source);
        assert_eq!(best1.source, RouteSource::Peer(1));
    }
}
