//! iPlane Inter-PoP links dataset support.
//!
//! The paper also builds topologies from the iPlane Inter-PoP links dataset:
//! a PoP-level graph where each PoP belongs to an AS and links carry measured
//! latencies. The dataset is no longer distributed and none is in the
//! tree; [`parse`] accepts the documented line format
//!
//! ```text
//! # comments
//! <asn1>,<pop1> <asn2>,<pop2> <latency_us>
//! ```
//!
//! Because the framework emulates one device per AS ("to isolate the
//! effects of inter-domain from intra-domain routing every AS is emulated
//! by a single network device"), [`PopGraph::collapse_to_as_graph`]
//! aggregates the PoP graph to AS granularity, keeping the minimum
//! inter-AS latency per pair — exactly the abstraction the paper applies
//! to this dataset.

use std::collections::HashMap;
use std::fmt;

use bgpsdn_bgp::Asn;
use bgpsdn_netsim::SimDuration;

use crate::graph::Graph;

/// One point of presence.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Pop {
    /// Owning AS.
    pub asn: Asn,
    /// PoP id within the AS.
    pub pop: u32,
}

/// A PoP-level topology with link latencies.
#[derive(Debug, Clone, Default)]
pub struct PopGraph {
    /// PoPs by dense index.
    pub pops: Vec<Pop>,
    /// Links `(a, b, latency)` by PoP index.
    pub links: Vec<(usize, usize, SimDuration)>,
}

/// Errors from parsing inter-PoP data.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum IplaneError {
    /// A line did not match `asn,pop asn,pop latency`.
    BadLine {
        /// 1-based line number.
        line: usize,
        /// Offending content.
        content: String,
    },
}

impl fmt::Display for IplaneError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let IplaneError::BadLine { line, content } = self;
        write!(f, "line {line}: malformed: {content:?}")
    }
}

impl std::error::Error for IplaneError {}

fn parse_pop(s: &str) -> Option<Pop> {
    let (a, p) = s.split_once(',')?;
    Some(Pop {
        asn: Asn(a.parse().ok()?),
        pop: p.parse().ok()?,
    })
}

/// Parse inter-PoP link lines into a [`PopGraph`].
// detlint: allow test-oracle PAPER.md §1.1 dataset loader; no dataset in tree
pub fn parse(content: &str) -> Result<PopGraph, IplaneError> {
    let mut index: HashMap<Pop, usize> = HashMap::new();
    let mut pops: Vec<Pop> = Vec::new();
    let mut links = Vec::new();
    for (lineno, raw) in content.lines().enumerate() {
        let line = lineno + 1;
        let l = raw.trim();
        if l.is_empty() || l.starts_with('#') {
            continue;
        }
        let mut fields = l.split_whitespace();
        let bad = || IplaneError::BadLine {
            line,
            content: l.into(),
        };
        let p1 = parse_pop(fields.next().ok_or_else(bad)?).ok_or_else(bad)?;
        let p2 = parse_pop(fields.next().ok_or_else(bad)?).ok_or_else(bad)?;
        let lat_us: u64 = fields.next().ok_or_else(bad)?.parse().map_err(|_| bad())?;
        let mut idx_of = |p: Pop| -> usize {
            *index.entry(p).or_insert_with(|| {
                pops.push(p);
                pops.len() - 1
            })
        };
        let a = idx_of(p1);
        let b = idx_of(p2);
        links.push((a, b, SimDuration::from_micros(lat_us)));
    }
    Ok(PopGraph { pops, links })
}

impl PopGraph {
    /// Distinct ASes present, in order of first appearance.
    pub(crate) fn ases(&self) -> Vec<Asn> {
        let mut seen = HashMap::new();
        let mut out = Vec::new();
        for p in &self.pops {
            if seen.insert(p.asn, ()).is_none() {
                out.push(p.asn);
            }
        }
        out
    }

    /// Collapse to AS granularity: one vertex per AS, one edge per AS pair
    /// with at least one inter-AS PoP link, annotated with the *minimum*
    /// observed latency. Returns the connectivity graph, the ASN table and
    /// the per-edge latency (aligned with the graph's edge indices).
    // detlint: allow test-oracle PAPER.md §1.1 dataset loader; no dataset in tree
    pub fn collapse_to_as_graph(&self) -> (Graph, Vec<Asn>, Vec<SimDuration>) {
        let ases = self.ases();
        let index: HashMap<Asn, usize> = ases.iter().enumerate().map(|(i, &a)| (a, i)).collect();
        let mut best: HashMap<(usize, usize), SimDuration> = HashMap::new();
        let mut order: Vec<(usize, usize)> = Vec::new();
        for &(a, b, lat) in &self.links {
            let ia = index[&self.pops[a].asn];
            let ib = index[&self.pops[b].asn];
            if ia == ib {
                continue; // intra-AS link: abstracted away
            }
            let key = (ia.min(ib), ia.max(ib));
            match best.get_mut(&key) {
                Some(cur) => {
                    if lat < *cur {
                        *cur = lat;
                    }
                }
                None => {
                    best.insert(key, lat);
                    order.push(key);
                }
            }
        }
        let mut g = Graph::new(ases.len());
        let mut latencies = Vec::with_capacity(order.len());
        for key in order {
            g.add_edge(key.0, key.1);
            latencies.push(best[&key]);
        }
        (g, ases, latencies)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::tests::is_connected;

    /// Serialize a [`PopGraph`] in the parseable format.
    fn write(pg: &PopGraph) -> String {
        let mut out = String::from("# iPlane inter-PoP format\n");
        for &(a, b, lat) in &pg.links {
            let (a, b) = (pg.pops[a], pg.pops[b]);
            let us = lat.as_micros();
            out.push_str(&format!(
                "{},{} {},{} {us}\n",
                a.asn.0, a.pop, b.asn.0, b.pop
            ));
        }
        out
    }

    const SAMPLE: &str = "\
# AS 10 has two PoPs; AS 20 and 30 one each
10,0 10,1 500
10,0 20,0 12000
10,1 30,0 30000
20,0 30,0 8000
10,1 20,0 9000
";

    #[test]
    fn parse_sample() {
        let pg = parse(SAMPLE).expect("parse");
        assert_eq!(pg.pops.len(), 4);
        assert_eq!(pg.links.len(), 5);
        assert_eq!(pg.ases(), vec![Asn(10), Asn(20), Asn(30)]);
        assert_eq!(pg.links[0].2, SimDuration::from_micros(500));
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(parse("10,0 20,0").is_err());
        assert!(parse("10 20 5").is_err());
        assert!(parse("10,0 20,0 fast").is_err());
    }

    #[test]
    fn collapse_keeps_min_latency_and_drops_intra() {
        let pg = parse(SAMPLE).unwrap();
        let (g, ases, lats) = pg.collapse_to_as_graph();
        assert_eq!(ases, vec![Asn(10), Asn(20), Asn(30)]);
        assert_eq!(g.node_count(), 3);
        // Edges: 10-20 (min of 12ms and 9ms), 10-30, 20-30. Intra 10,0-10,1 gone.
        assert_eq!(g.edges().len(), 3);
        let e_1020 = g
            .edges()
            .iter()
            .position(|&e| e == (0, 1) || e == (1, 0))
            .unwrap();
        assert_eq!(lats[e_1020], SimDuration::from_millis(9));
        assert!(is_connected(&g));
    }

    #[test]
    fn write_parse_roundtrip() {
        let pg = parse(SAMPLE).unwrap();
        let back = parse(&write(&pg)).unwrap();
        assert_eq!(back.pops, pg.pops);
        assert_eq!(back.links, pg.links);
    }
}
