//! AS-level graphs annotated with business relationships.
//!
//! The paper's framework "configures network devices, including
//! customer-to-provider and peer-to-peer relationships". [`AsGraph`] is the
//! artifact that carries that information from topology generation / dataset
//! parsing into router configuration.

use bgpsdn_bgp::{Asn, Relationship};

use crate::graph::Graph;

/// Relationship annotation of one inter-AS link.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EdgeKind {
    /// The `a` endpoint is the provider of the `b` endpoint.
    ProviderCustomer,
    /// Settlement-free peering.
    PeerPeer,
}

/// One annotated inter-AS link.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AsEdge {
    /// First endpoint (provider when `kind` is `ProviderCustomer`).
    pub a: usize,
    /// Second endpoint.
    pub b: usize,
    /// Relationship annotation.
    pub kind: EdgeKind,
}

impl AsEdge {
    /// The relationship of the *other* endpoint as seen from `from`
    /// (`from` must be one of the endpoints).
    pub fn relationship_from(&self, from: usize) -> Relationship {
        match self.kind {
            EdgeKind::PeerPeer => Relationship::Peer,
            EdgeKind::ProviderCustomer => {
                if from == self.a {
                    Relationship::Customer // the other end is my customer
                } else {
                    debug_assert_eq!(from, self.b);
                    Relationship::Provider
                }
            }
        }
    }

    /// The endpoint opposite `from`.
    pub fn other(&self, from: usize) -> usize {
        if from == self.a {
            self.b
        } else {
            debug_assert_eq!(from, self.b);
            self.a
        }
    }
}

/// An AS-level topology: vertices carry ASNs, edges carry relationships.
#[derive(Debug, Clone, Default)]
pub struct AsGraph {
    /// ASN per vertex index.
    pub asns: Vec<Asn>,
    /// Annotated links.
    pub edges: Vec<AsEdge>,
}

impl AsGraph {
    /// Number of ASes.
    pub fn len(&self) -> usize {
        self.asns.len()
    }

    /// True when there are no ASes.
    // detlint: allow len_without_is_empty companion of the public len
    pub fn is_empty(&self) -> bool {
        self.asns.is_empty()
    }

    /// Sequential ASNs starting at `base` over an unannotated graph, all
    /// links peer-to-peer — the configuration of the paper's clique
    /// experiments.
    pub fn all_peer(g: &Graph, base_asn: u32) -> AsGraph {
        AsGraph {
            asns: (0..g.node_count())
                .map(|i| Asn(base_asn + i as u32))
                .collect(),
            edges: g
                .edges()
                .iter()
                .map(|&(a, b)| AsEdge {
                    a,
                    b,
                    kind: EdgeKind::PeerPeer,
                })
                .collect(),
        }
    }

    /// `(provider-customer, peer-peer)` edge counts.
    pub fn relationship_counts(&self) -> (usize, usize) {
        let pc = self
            .edges
            .iter()
            .filter(|e| e.kind == EdgeKind::ProviderCustomer)
            .count();
        (pc, self.edges.len() - pc)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen;

    /// Neighbour lookups and the oracles the tests of this crate check
    /// graphs with.
    impl AsGraph {
        /// Customers of `v` (vertex indices).
        pub(crate) fn customers_of(&self, v: usize) -> Vec<usize> {
            self.edges
                .iter()
                .filter(|e| e.kind == EdgeKind::ProviderCustomer && e.a == v)
                .map(|e| e.b)
                .collect()
        }

        /// Providers of `v` (vertex indices).
        pub(crate) fn providers_of(&self, v: usize) -> Vec<usize> {
            self.edges
                .iter()
                .filter(|e| e.kind == EdgeKind::ProviderCustomer && e.b == v)
                .map(|e| e.a)
                .collect()
        }

        /// The plain connectivity graph.
        pub(crate) fn to_graph(&self) -> Graph {
            let mut g = Graph::new(self.asns.len());
            for e in &self.edges {
                g.add_edge(e.a, e.b);
            }
            g
        }

        /// True when the provider hierarchy is acyclic (no AS is transitively
        /// its own provider) — a sanity requirement for Gao–Rexford stability.
        pub(crate) fn provider_hierarchy_acyclic(&self) -> bool {
            // Kahn's algorithm over the customer -> provider direction.
            let n = self.len();
            let mut out: Vec<Vec<usize>> = vec![Vec::new(); n]; // customer -> providers
            let mut indeg = vec![0usize; n];
            for e in &self.edges {
                if e.kind == EdgeKind::ProviderCustomer {
                    out[e.b].push(e.a);
                    indeg[e.a] += 1;
                }
            }
            let mut queue: Vec<usize> = (0..n).filter(|&v| indeg[v] == 0).collect();
            let mut seen = 0;
            while let Some(v) = queue.pop() {
                seen += 1;
                for &p in &out[v] {
                    indeg[p] -= 1;
                    if indeg[p] == 0 {
                        queue.push(p);
                    }
                }
            }
            seen == n
        }
    }

    #[test]
    fn all_peer_clique() {
        let ag = AsGraph::all_peer(&gen::clique(4), 65000);
        assert_eq!(ag.len(), 4);
        assert_eq!(ag.relationship_counts(), (0, 6));
        assert_eq!(ag.asns[3], Asn(65003));
        assert!(ag.provider_hierarchy_acyclic());
    }

    #[test]
    fn edge_perspective() {
        let e = AsEdge {
            a: 0,
            b: 1,
            kind: EdgeKind::ProviderCustomer,
        };
        // 0 is the provider: from 0, 1 is a customer; from 1, 0 is a provider.
        assert_eq!(e.relationship_from(0), Relationship::Customer);
        assert_eq!(e.relationship_from(1), Relationship::Provider);
        assert_eq!(e.other(0), 1);
        let p = AsEdge {
            a: 0,
            b: 1,
            kind: EdgeKind::PeerPeer,
        };
        assert_eq!(p.relationship_from(0), Relationship::Peer);
        assert_eq!(p.relationship_from(1), Relationship::Peer);
    }

    #[test]
    fn to_graph_roundtrip() {
        // A 3x3 grid: corners of degree 2, edge midpoints 3, centre 4.
        let mut g = Graph::new(9);
        for (a, b) in [(0, 1), (1, 2), (3, 4), (4, 5), (6, 7), (7, 8)] {
            g.add_edge(a, b);
        }
        for (a, b) in [(0, 3), (3, 6), (1, 4), (4, 7), (2, 5), (5, 8)] {
            g.add_edge(a, b);
        }
        let g2 = AsGraph::all_peer(&g, 100).to_graph();
        assert_eq!(g2.node_count(), g.node_count());
        assert_eq!(g2.edges(), g.edges());
    }

    #[test]
    fn acyclicity_detects_provider_loop() {
        let ag = AsGraph {
            asns: vec![Asn(1), Asn(2), Asn(3)],
            edges: vec![
                AsEdge {
                    a: 0,
                    b: 1,
                    kind: EdgeKind::ProviderCustomer,
                },
                AsEdge {
                    a: 1,
                    b: 2,
                    kind: EdgeKind::ProviderCustomer,
                },
                AsEdge {
                    a: 2,
                    b: 0,
                    kind: EdgeKind::ProviderCustomer,
                },
            ],
        };
        assert!(!ag.provider_hierarchy_acyclic());
    }

    #[test]
    fn valley_free_classification() {
        // 0 provider of 1, 0 provider of 2, 1 peer 2, 3 customer of 1.
        let ag = AsGraph {
            asns: vec![Asn(1), Asn(2), Asn(3), Asn(4)],
            edges: vec![
                AsEdge {
                    a: 0,
                    b: 1,
                    kind: EdgeKind::ProviderCustomer,
                },
                AsEdge {
                    a: 0,
                    b: 2,
                    kind: EdgeKind::ProviderCustomer,
                },
                AsEdge {
                    a: 1,
                    b: 2,
                    kind: EdgeKind::PeerPeer,
                },
                AsEdge {
                    a: 1,
                    b: 3,
                    kind: EdgeKind::ProviderCustomer,
                },
            ],
        };
        // The relationship of each hop's far end as seen from its near end:
        // the up / peer / down sequence a valley-free check reads.
        let hops = |path: &[usize]| -> Option<Vec<Relationship>> {
            path.windows(2)
                .map(|w| {
                    ag.edges
                        .iter()
                        .find(|e| (e.a, e.b) == (w[0], w[1]) || (e.a, e.b) == (w[1], w[0]))
                        .map(|e| e.relationship_from(w[0]))
                })
                .collect()
        };
        use Relationship::{Customer, Peer, Provider};
        // up, up: valley-free.
        assert_eq!(hops(&[3, 1, 0]), Some(vec![Provider, Provider]));
        // up, peer: valley-free.
        assert_eq!(hops(&[3, 1, 2]), Some(vec![Provider, Peer]));
        // down, then peer: a valley.
        assert_eq!(hops(&[0, 2, 1]), Some(vec![Customer, Peer]));
        // peer, then up: a valley.
        assert_eq!(hops(&[2, 1, 0]), Some(vec![Peer, Provider]));
        // down, down: valley-free.
        assert_eq!(hops(&[0, 1, 3]), Some(vec![Customer, Customer]));
        // A non-adjacent hop has no relationship at all.
        assert_eq!(hops(&[3, 0]), None);
        assert_eq!(ag.providers_of(3), vec![1]);
        assert_eq!(ag.customers_of(0), vec![1, 2]);
        assert!(ag.provider_hierarchy_acyclic());
    }
}
