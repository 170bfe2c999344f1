//! Property-based tests of topology invariants: generator structure,
//! dataset format roundtrips, relationship acyclicity and address-plan
//! disjointness.
//!
//! The CAIDA writer and the two graph oracles below live here because only
//! these properties use them.

use proptest::prelude::*;

use bgpsdn_netsim::SimRng;
use bgpsdn_topology::caida::{self, SynthesisParams};
use bgpsdn_topology::relationships::EdgeKind;
use bgpsdn_topology::{gen, AddressPlan, AsGraph, Graph};

/// True when every vertex is reachable from every other.
fn is_connected(g: &Graph) -> bool {
    g.node_count() > 0 && g.components().1 == 1
}

/// True when no AS is transitively its own provider (Kahn's algorithm over
/// the customer -> provider direction).
fn provider_hierarchy_acyclic(ag: &AsGraph) -> bool {
    let n = ag.len();
    let mut providers: Vec<Vec<usize>> = vec![Vec::new(); n];
    let mut indeg = vec![0usize; n];
    for e in ag
        .edges
        .iter()
        .filter(|e| e.kind == EdgeKind::ProviderCustomer)
    {
        providers[e.b].push(e.a);
        indeg[e.a] += 1;
    }
    let mut queue: Vec<usize> = (0..n).filter(|&v| indeg[v] == 0).collect();
    let mut seen = 0;
    while let Some(v) = queue.pop() {
        seen += 1;
        for &p in &providers[v] {
            indeg[p] -= 1;
            if indeg[p] == 0 {
                queue.push(p);
            }
        }
    }
    seen == n
}

/// Serialize an [`AsGraph`] in CAIDA `as-rel.txt` format.
fn caida_write(ag: &AsGraph) -> String {
    let mut out = String::new();
    for e in &ag.edges {
        let rel = if e.kind == EdgeKind::PeerPeer { 0 } else { -1 };
        out.push_str(&format!("{}|{}|{rel}\n", ag.asns[e.a].0, ag.asns[e.b].0));
    }
    out
}

proptest! {
    /// Barabási–Albert graphs are connected with exactly the expected node
    /// count and (for m=1 starts) tree-like edge counts.
    #[test]
    fn barabasi_albert_structure(seed in any::<u64>(), n in 3usize..150, m in 1usize..4) {
        prop_assume!(n > m);
        let g = gen::barabasi_albert(n, m, &mut SimRng::seed_from_u64(seed));
        prop_assert_eq!(g.node_count(), n);
        prop_assert!(is_connected(&g));
        // Each newcomer adds at most m edges, plus the initial clique.
        prop_assert!(g.edges().len() <= m * (m - 1) / 2 + (n - m) * m);
    }

    /// Erdős–Rényi respects the vertex count and never duplicates edges.
    #[test]
    fn erdos_renyi_structure(seed in any::<u64>(), n in 2usize..60, p in 0.0f64..1.0) {
        let g = gen::erdos_renyi(n, p, &mut SimRng::seed_from_u64(seed));
        prop_assert_eq!(g.node_count(), n);
        prop_assert!(g.edges().len() <= n * (n - 1) / 2);
    }

    /// ensure_connected always yields a connected graph and adds exactly
    /// (components - 1) edges.
    #[test]
    fn ensure_connected_minimal(seed in any::<u64>(), n in 1usize..60, p in 0.0f64..0.2) {
        let mut rng = SimRng::seed_from_u64(seed);
        let mut g = gen::erdos_renyi(n, p, &mut rng);
        let before = g.edges().len();
        let (_, comps) = g.components();
        gen::ensure_connected(&mut g, &mut rng);
        prop_assert!(is_connected(&g));
        prop_assert_eq!(g.edges().len(), before + comps - 1);
    }

    /// The CAIDA-style synthesizer always produces connected, acyclic
    /// hierarchies that roundtrip through the real file format.
    #[test]
    fn caida_synthesis_invariants(
        seed in any::<u64>(),
        tier1 in 2usize..5,
        mid in 2usize..10,
        stubs in 1usize..30,
    ) {
        let params = SynthesisParams {
            tier1,
            mid,
            stubs,
            ..Default::default()
        };
        let ag = caida::synthesize(&params, &mut SimRng::seed_from_u64(seed));
        prop_assert_eq!(ag.len(), tier1 + mid + stubs);
        prop_assert!(provider_hierarchy_acyclic(&ag));
        let mut g = Graph::new(ag.len());
        for e in &ag.edges {
            g.add_edge(e.a, e.b);
        }
        prop_assert!(is_connected(&g));
        let back = caida::parse(&caida_write(&ag)).expect("roundtrip");
        prop_assert_eq!(back.edges, ag.edges);
    }

    /// Address plans never overlap: every AS prefix and link subnet is
    /// disjoint from all others.
    #[test]
    fn address_plan_disjoint(ases in 1usize..120, links in 0usize..200) {
        let plan = AddressPlan::build(ases, links).expect("plan");
        for (i, a) in plan.as_prefixes.iter().enumerate() {
            for b in &plan.as_prefixes[i + 1..] {
                prop_assert!(!a.covers(*b) && !b.covers(*a));
            }
            // Router ip lives inside its AS prefix and nowhere else.
            prop_assert!(a.contains(plan.router_ips[i]));
        }
        for (i, (n1, _, _)) in plan.link_nets.iter().enumerate() {
            for (n2, _, _) in &plan.link_nets[i + 1..] {
                prop_assert!(!n1.covers(*n2) && !n2.covers(*n1));
            }
        }
    }

}
