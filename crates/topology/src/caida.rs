//! CAIDA AS-relationship dataset support.
//!
//! The paper builds topologies from the CAIDA AS Relationships dataset. The
//! real files (`as-rel.txt`) are pipe-separated:
//!
//! ```text
//! # comments
//! <provider-as>|<customer-as>|-1
//! <peer-as>|<peer-as>|0
//! ```
//!
//! [`parse`] reads that exact format, so a user with a copy of the dataset
//! can load it directly. Because the dataset itself cannot be redistributed
//! and none is in the tree, [`synthesize`] generates a statistically
//! similar topology — a tiered, provider-hierarchy-acyclic AS graph with
//! heavy-tailed degrees — which exercises the same code paths (documented
//! substitution, see DESIGN.md).

use std::collections::HashMap;
use std::fmt;

use bgpsdn_bgp::Asn;
use bgpsdn_netsim::SimRng;

use crate::relationships::{AsEdge, AsGraph, EdgeKind};

/// Errors from parsing an `as-rel.txt` file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CaidaError {
    /// A data line did not have three pipe-separated fields.
    BadLine {
        /// 1-based line number.
        line: usize,
        /// The offending content.
        content: String,
    },
    /// Relationship value other than `-1` or `0`.
    BadRelationship {
        /// 1-based line number.
        line: usize,
        /// The value seen.
        value: String,
    },
    /// The same AS pair appeared twice.
    DuplicateEdge {
        /// 1-based line number of the second occurrence.
        line: usize,
    },
}

impl fmt::Display for CaidaError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CaidaError::BadLine { line, content } => {
                write!(f, "line {line}: malformed: {content:?}")
            }
            CaidaError::BadRelationship { line, value } => {
                write!(f, "line {line}: bad relationship {value:?}")
            }
            CaidaError::DuplicateEdge { line } => write!(f, "line {line}: duplicate AS pair"),
        }
    }
}

impl std::error::Error for CaidaError {}

/// Parse CAIDA `as-rel.txt` content into an [`AsGraph`]. Vertex indices are
/// assigned in order of first appearance, so parsing is deterministic.
// detlint: allow test-oracle PAPER.md §1.1 dataset loader; no dataset in tree
pub fn parse(content: &str) -> Result<AsGraph, CaidaError> {
    let mut index: HashMap<u32, usize> = HashMap::new();
    let mut asns: Vec<Asn> = Vec::new();
    let mut edges: Vec<AsEdge> = Vec::new();
    let mut seen: HashMap<(usize, usize), ()> = HashMap::new();

    for (lineno, raw) in content.lines().enumerate() {
        let line = lineno + 1;
        let l = raw.trim();
        if l.is_empty() || l.starts_with('#') {
            continue;
        }
        let parts: Vec<&str> = l.split('|').collect();
        if parts.len() < 3 {
            return Err(CaidaError::BadLine {
                line,
                content: l.into(),
            });
        }
        let a: u32 = parts[0].parse().map_err(|_| CaidaError::BadLine {
            line,
            content: l.into(),
        })?;
        let b: u32 = parts[1].parse().map_err(|_| CaidaError::BadLine {
            line,
            content: l.into(),
        })?;
        let mut idx_of = |asn: u32| -> usize {
            *index.entry(asn).or_insert_with(|| {
                asns.push(Asn(asn));
                asns.len() - 1
            })
        };
        let ia = idx_of(a);
        let ib = idx_of(b);
        let key = (ia.min(ib), ia.max(ib));
        if seen.insert(key, ()).is_some() {
            return Err(CaidaError::DuplicateEdge { line });
        }
        let kind = match parts[2] {
            "-1" => EdgeKind::ProviderCustomer,
            "0" => EdgeKind::PeerPeer,
            other => {
                return Err(CaidaError::BadRelationship {
                    line,
                    value: other.into(),
                })
            }
        };
        edges.push(AsEdge { a: ia, b: ib, kind });
    }
    Ok(AsGraph { asns, edges })
}

/// Parameters for [`synthesize`].
#[derive(Debug, Clone)]
pub struct SynthesisParams {
    /// Number of tier-1 ASes (full peer mesh at the top).
    pub tier1: usize,
    /// Number of mid-tier (regional) providers.
    pub mid: usize,
    /// Number of stub (edge) ASes.
    pub stubs: usize,
    /// Providers per mid-tier AS (multihoming degree toward tier-1).
    pub mid_uplinks: usize,
    /// Providers per stub AS (multihoming degree toward mid-tier).
    pub stub_uplinks: usize,
    /// Probability of a peering link between two mid-tier ASes.
    pub mid_peering_prob: f64,
    /// First ASN to assign.
    pub base_asn: u32,
}

impl Default for SynthesisParams {
    fn default() -> Self {
        SynthesisParams {
            tier1: 4,
            mid: 16,
            stubs: 80,
            mid_uplinks: 2,
            stub_uplinks: 2,
            mid_peering_prob: 0.1,
            base_asn: 1,
        }
    }
}

/// Generate a CAIDA-like tiered AS topology: tier-1 clique of peers,
/// multihomed mid-tier providers below them, multihomed stubs at the edge,
/// and occasional mid-tier peering. The provider hierarchy is acyclic by
/// construction and degree distribution is top-heavy like the real dataset.
pub fn synthesize(params: &SynthesisParams, rng: &mut SimRng) -> AsGraph {
    let n = params.tier1 + params.mid + params.stubs;
    let asns: Vec<Asn> = (0..n).map(|i| Asn(params.base_asn + i as u32)).collect();
    let mut edges: Vec<AsEdge> = Vec::new();

    // Tier-1 full peer mesh.
    for i in 0..params.tier1 {
        for j in (i + 1)..params.tier1 {
            edges.push(AsEdge {
                a: i,
                b: j,
                kind: EdgeKind::PeerPeer,
            });
        }
    }
    // Mid-tier: each picks `mid_uplinks` distinct tier-1 providers.
    let mid_start = params.tier1;
    for m in 0..params.mid {
        let v = mid_start + m;
        let ups = rng.sample_indices(params.tier1, params.mid_uplinks.max(1));
        for u in ups {
            edges.push(AsEdge {
                a: u,
                b: v,
                kind: EdgeKind::ProviderCustomer,
            });
        }
    }
    // Mid-tier peering.
    for i in 0..params.mid {
        for j in (i + 1)..params.mid {
            if rng.chance(params.mid_peering_prob) {
                edges.push(AsEdge {
                    a: mid_start + i,
                    b: mid_start + j,
                    kind: EdgeKind::PeerPeer,
                });
            }
        }
    }
    // Stubs: each picks providers among the mid tier (weighted toward
    // low-index "bigger" mids by sampling two and keeping the smaller).
    let stub_start = params.tier1 + params.mid;
    for s in 0..params.stubs {
        let v = stub_start + s;
        let mut chosen: Vec<usize> = Vec::new();
        let mut guard = 0;
        while chosen.len() < params.stub_uplinks.max(1) && guard < 1000 {
            guard += 1;
            let a = rng.below_usize(params.mid);
            let b = rng.below_usize(params.mid);
            let pick = mid_start + a.min(b);
            if !chosen.contains(&pick) {
                chosen.push(pick);
            }
        }
        for p in chosen {
            edges.push(AsEdge {
                a: p,
                b: v,
                kind: EdgeKind::ProviderCustomer,
            });
        }
    }
    AsGraph { asns, edges }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::tests::is_connected;

    /// Serialize an [`AsGraph`] in CAIDA `as-rel.txt` format.
    fn write(ag: &AsGraph) -> String {
        let mut out = String::from("# generated by bgpsdn-topology (CAIDA as-rel format)\n");
        for e in &ag.edges {
            let (a, b) = (ag.asns[e.a].0, ag.asns[e.b].0);
            match e.kind {
                EdgeKind::ProviderCustomer => out.push_str(&format!("{a}|{b}|-1\n")),
                EdgeKind::PeerPeer => out.push_str(&format!("{a}|{b}|0\n")),
            }
        }
        out
    }

    const SAMPLE: &str = "\
# serial-1 style file
# provider|customer|-1, peer|peer|0
174|2914|0
174|65001|-1
2914|65002|-1
65001|65002|0
";

    #[test]
    fn parse_sample() {
        let ag = parse(SAMPLE).expect("parse");
        assert_eq!(ag.len(), 4);
        assert_eq!(ag.asns, vec![Asn(174), Asn(2914), Asn(65001), Asn(65002)]);
        assert_eq!(ag.relationship_counts(), (2, 2));
        // 174 is provider of 65001
        assert_eq!(ag.customers_of(0), vec![2]);
        assert!(ag.provider_hierarchy_acyclic());
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(matches!(
            parse("1|2"),
            Err(CaidaError::BadLine { line: 1, .. })
        ));
        assert!(matches!(
            parse("1|2|7"),
            Err(CaidaError::BadRelationship { line: 1, .. })
        ));
        assert!(matches!(parse("x|2|0"), Err(CaidaError::BadLine { .. })));
        assert!(matches!(
            parse("1|2|0\n2|1|-1"),
            Err(CaidaError::DuplicateEdge { line: 2 })
        ));
    }

    #[test]
    fn write_parse_roundtrip() {
        let ag = parse(SAMPLE).unwrap();
        let text = write(&ag);
        let back = parse(&text).unwrap();
        assert_eq!(back.asns, ag.asns);
        assert_eq!(back.edges, ag.edges);
    }

    #[test]
    fn synthesize_structure() {
        let mut rng = SimRng::seed_from_u64(7);
        let p = SynthesisParams::default();
        let ag = synthesize(&p, &mut rng);
        assert_eq!(ag.len(), 100);
        assert!(ag.provider_hierarchy_acyclic());
        assert!(is_connected(&ag.to_graph()));
        // Stubs have no customers.
        for s in 84..100 {
            assert!(ag.customers_of(s).is_empty());
        }
        // Tier-1s have many customers, stubs have the configured uplinks.
        assert!(ag.customers_of(0).len() >= 2);
        assert_eq!(ag.providers_of(99).len(), p.stub_uplinks);
        // Degree distribution is top-heavy.
        let degree = |v| ag.edges.iter().filter(|e| e.a == v || e.b == v).count();
        let tier1_deg: usize = (0..4).map(degree).sum();
        let stub_deg: usize = (96..100).map(degree).sum();
        assert!(tier1_deg > stub_deg);
    }

    #[test]
    fn synthesize_roundtrips_through_caida_format() {
        let mut rng = SimRng::seed_from_u64(8);
        let ag = synthesize(&SynthesisParams::default(), &mut rng);
        let back = parse(&write(&ag)).unwrap();
        assert_eq!(back.len(), ag.len());
        assert_eq!(back.relationship_counts(), ag.relationship_counts());
    }

    #[test]
    fn synthesize_is_deterministic() {
        let a = synthesize(&SynthesisParams::default(), &mut SimRng::seed_from_u64(3));
        let b = synthesize(&SynthesisParams::default(), &mut SimRng::seed_from_u64(3));
        assert_eq!(a.edges, b.edges);
    }
}
