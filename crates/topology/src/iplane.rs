//! iPlane Inter-PoP links dataset support.
//!
//! The paper also builds topologies from the iPlane Inter-PoP links dataset:
//! a PoP-level graph where each PoP belongs to an AS and links carry measured
//! latencies. The dataset is no longer distributed; [`parse`] accepts the
//! documented line format
//!
//! ```text
//! # comments
//! <asn1>,<pop1> <asn2>,<pop2> <latency_us>
//! ```
//!
//! and [`synthesize`] generates a statistically similar PoP graph. Because
//! the framework emulates one device per AS ("to isolate the effects of
//! inter-domain from intra-domain routing every AS is emulated by a single
//! network device"), [`PopGraph::collapse_to_as_graph`] aggregates the PoP
//! graph to AS granularity, keeping the minimum inter-AS latency per pair —
//! exactly the abstraction the paper applies to this dataset.

use std::collections::HashMap;
use std::fmt;

use bgpsdn_bgp::Asn;
use bgpsdn_netsim::{SimDuration, SimRng};

use crate::graph::Graph;
use crate::relationships::AsGraph;

/// One point of presence.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Pop {
    /// Owning AS.
    pub asn: Asn,
    /// PoP id within the AS.
    pub pop: u32,
}

impl fmt::Display for Pop {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{},{}", self.asn.0, self.pop)
    }
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

/// Serialize a [`PopGraph`] in the parseable format.
pub fn write(pg: &PopGraph) -> String {
    let mut out = String::from("# generated by bgpsdn-topology (iPlane inter-PoP format)\n");
    for &(a, b, lat) in &pg.links {
        out.push_str(&format!(
            "{} {} {}\n",
            pg.pops[a],
            pg.pops[b],
            lat.as_micros()
        ));
    }
    out
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

    /// Convenience: collapse and annotate all inter-AS links as peer-to-peer
    /// (relationships can be re-inferred by degree afterwards).
    pub fn to_as_graph_all_peer(&self) -> (AsGraph, Vec<SimDuration>) {
        let (g, ases, lats) = self.collapse_to_as_graph();
        let mut ag = AsGraph::all_peer(&g, 0);
        ag.asns = ases;
        (ag, lats)
    }
}

/// Parameters for [`synthesize`].
#[derive(Debug, Clone)]
pub struct PopSynthesisParams {
    /// Number of ASes.
    pub ases: usize,
    /// PoPs per AS (uniform in `1..=max_pops_per_as`).
    pub max_pops_per_as: u32,
    /// Average number of inter-AS PoP links per AS.
    pub avg_interas_links: f64,
    /// Latency window for inter-AS links.
    pub interas_latency: (SimDuration, SimDuration),
    /// Latency window for intra-AS (backbone) links.
    pub intraas_latency: (SimDuration, SimDuration),
    /// First ASN.
    pub base_asn: u32,
}

impl Default for PopSynthesisParams {
    fn default() -> Self {
        PopSynthesisParams {
            ases: 30,
            max_pops_per_as: 4,
            avg_interas_links: 3.0,
            interas_latency: (SimDuration::from_millis(2), SimDuration::from_millis(60)),
            intraas_latency: (SimDuration::from_micros(200), SimDuration::from_millis(5)),
            base_asn: 100,
        }
    }
}

/// Generate an iPlane-like PoP graph: each AS has a small PoP backbone
/// (path), plus randomly attached inter-AS PoP links with realistic
/// latencies. The resulting AS-level graph is made connected by chaining
/// each AS to the next.
pub fn synthesize(params: &PopSynthesisParams, rng: &mut SimRng) -> PopGraph {
    let mut pops: Vec<Pop> = Vec::new();
    let mut links: Vec<(usize, usize, SimDuration)> = Vec::new();
    let mut pop_range: Vec<(usize, usize)> = Vec::new(); // per AS: [start, end)

    for a in 0..params.ases {
        let count = 1 + rng.below(params.max_pops_per_as as u64) as usize;
        let start = pops.len();
        for p in 0..count {
            pops.push(Pop {
                asn: Asn(params.base_asn + a as u32),
                pop: p as u32,
            });
        }
        pop_range.push((start, pops.len()));
        // Intra-AS backbone: a path across the AS's PoPs.
        for i in start + 1..pops.len() {
            let lat = rng.duration_between(params.intraas_latency.0, params.intraas_latency.1);
            links.push((i - 1, i, lat));
        }
    }

    // Guarantee AS-level connectivity: chain AS i to AS i+1.
    for a in 1..params.ases {
        let (s0, e0) = pop_range[a - 1];
        let (s1, e1) = pop_range[a];
        let p0 = s0 + rng.below_usize(e0 - s0);
        let p1 = s1 + rng.below_usize(e1 - s1);
        let lat = rng.duration_between(params.interas_latency.0, params.interas_latency.1);
        links.push((p0, p1, lat));
    }

    // Extra random inter-AS links.
    let extra = ((params.ases as f64 * params.avg_interas_links / 2.0) as usize)
        .saturating_sub(params.ases - 1);
    for _ in 0..extra {
        let a = rng.below_usize(params.ases);
        let b = rng.below_usize(params.ases);
        if a == b {
            continue;
        }
        let (s0, e0) = pop_range[a];
        let (s1, e1) = pop_range[b];
        let p0 = s0 + rng.below_usize(e0 - s0);
        let p1 = s1 + rng.below_usize(e1 - s1);
        let lat = rng.duration_between(params.interas_latency.0, params.interas_latency.1);
        links.push((p0, p1, lat));
    }
    PopGraph { pops, links }
}

#[cfg(test)]
mod tests {
    use super::*;

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
        assert_eq!(g.edge_count(), 3);
        let e_1020 = g
            .edges()
            .iter()
            .position(|&(a, b, _)| (a, b) == (0, 1) || (a, b) == (1, 0))
            .unwrap();
        assert_eq!(lats[e_1020], SimDuration::from_millis(9));
        assert!(g.is_connected());
    }

    #[test]
    fn write_parse_roundtrip() {
        let pg = parse(SAMPLE).unwrap();
        let back = parse(&write(&pg)).unwrap();
        assert_eq!(back.pops, pg.pops);
        assert_eq!(back.links, pg.links);
    }

    #[test]
    fn synthesize_produces_connected_as_graph() {
        let mut rng = SimRng::seed_from_u64(11);
        let params = PopSynthesisParams::default();
        let pg = synthesize(&params, &mut rng);
        assert!(pg.pops.len() >= params.ases);
        let (g, ases, lats) = pg.collapse_to_as_graph();
        assert_eq!(ases.len(), params.ases);
        assert!(g.is_connected(), "AS-level graph must be connected");
        assert_eq!(lats.len(), g.edge_count());
        for lat in lats {
            assert!(lat >= params.interas_latency.0 && lat < params.interas_latency.1);
        }
    }

    #[test]
    fn synthesize_roundtrips_through_format() {
        let mut rng = SimRng::seed_from_u64(12);
        let pg = synthesize(&PopSynthesisParams::default(), &mut rng);
        let back = parse(&write(&pg)).unwrap();
        assert_eq!(back.pops.len(), pg.pops.len());
        assert_eq!(back.links.len(), pg.links.len());
    }

    #[test]
    fn to_as_graph_all_peer_keeps_asns() {
        let pg = parse(SAMPLE).unwrap();
        let (ag, lats) = pg.to_as_graph_all_peer();
        assert_eq!(ag.asns, vec![Asn(10), Asn(20), Asn(30)]);
        assert_eq!(ag.relationship_counts(), (0, 3));
        assert_eq!(lats.len(), 3);
    }
}
