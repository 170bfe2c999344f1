//! Topology generators: the "artificial" topologies of the paper (clique,
//! line, star) and standard random models for Internet-like experiments
//! (Erdős–Rényi, Barabási–Albert, Waxman).
//!
//! All randomized generators take a [`SimRng`] so topologies are part of the
//! deterministic experiment seed.

use bgpsdn_netsim::SimRng;

use crate::graph::Graph;

/// Complete graph on `n` vertices — the paper's Figure 2 topology (16-AS
/// clique).
pub fn clique(n: usize) -> Graph {
    let mut g = Graph::new(n);
    for i in 0..n {
        for j in (i + 1)..n {
            g.add_edge(i, j);
        }
    }
    g
}

/// Path graph on `n` vertices.
pub fn line(n: usize) -> Graph {
    let mut g = Graph::new(n);
    for i in 1..n {
        g.add_edge(i - 1, i);
    }
    g
}

/// Star: vertex 0 is the hub.
pub fn star(n: usize) -> Graph {
    assert!(n >= 2, "star needs >= 2 vertices");
    let mut g = Graph::new(n);
    for i in 1..n {
        g.add_edge(0, i);
    }
    g
}

/// Erdős–Rényi G(n, p). Not guaranteed connected; pair with
/// [`ensure_connected`] when the experiment needs a single component.
// detlint: allow random model: only tests call it (ROADMAP 33)
pub fn erdos_renyi(n: usize, p: f64, rng: &mut SimRng) -> Graph {
    assert!((0.0..=1.0).contains(&p));
    let mut g = Graph::new(n);
    for i in 0..n {
        for j in (i + 1)..n {
            if rng.chance(p) {
                g.add_edge(i, j);
            }
        }
    }
    g
}

/// Barabási–Albert preferential attachment: start from a small clique of
/// `m` vertices, attach each newcomer to `m` distinct existing vertices with
/// probability proportional to degree. Produces the heavy-tailed degree
/// distributions seen in AS-level graphs.
// detlint: allow random model: only tests call it (ROADMAP 33)
pub fn barabasi_albert(n: usize, m: usize, rng: &mut SimRng) -> Graph {
    assert!(m >= 1 && n > m, "need n > m >= 1");
    let mut g = clique(m);
    // Repeated-endpoints list: vertex v appears deg(v) times.
    let mut lottery: Vec<usize> = Vec::new();
    for &(a, b) in g.edges() {
        lottery.push(a);
        lottery.push(b);
    }
    // Degenerate m=1 start: single vertex, no edges; seed the lottery.
    if lottery.is_empty() {
        lottery.push(0);
    }
    for _ in m.max(1)..n {
        let v = g.add_node();
        let mut targets: Vec<usize> = Vec::with_capacity(m);
        let mut guard = 0;
        while targets.len() < m && guard < 10_000 {
            guard += 1;
            let t = *rng.choose(&lottery).expect("non-empty lottery");
            if t != v && !targets.contains(&t) {
                targets.push(t);
            }
        }
        for &t in &targets {
            g.add_edge(v, t);
            lottery.push(v);
            lottery.push(t);
        }
    }
    g
}

/// Waxman random geometric graph on the unit square:
/// `P(edge) = alpha * exp(-d / (beta * L))` with `L = sqrt(2)`.
/// Returns the graph and the vertex coordinates.
// detlint: allow random model: only tests call it (ROADMAP 33)
pub fn waxman(n: usize, alpha: f64, beta: f64, rng: &mut SimRng) -> (Graph, Vec<(f64, f64)>) {
    assert!(alpha > 0.0 && beta > 0.0);
    let coords: Vec<(f64, f64)> = (0..n).map(|_| (rng.unit_f64(), rng.unit_f64())).collect();
    let l = 2f64.sqrt();
    let mut g = Graph::new(n);
    for i in 0..n {
        for j in (i + 1)..n {
            let dx = coords[i].0 - coords[j].0;
            let dy = coords[i].1 - coords[j].1;
            let d = (dx * dx + dy * dy).sqrt();
            if rng.chance(alpha * (-d / (beta * l)).exp()) {
                g.add_edge(i, j);
            }
        }
    }
    (g, coords)
}

/// Add the minimum number of edges needed to make `g` connected: each
/// secondary component gets one random edge to the main component.
// detlint: allow random model: only tests call it (ROADMAP 33)
pub fn ensure_connected(g: &mut Graph, rng: &mut SimRng) {
    if g.node_count() == 0 {
        return;
    }
    loop {
        let (comp, count) = g.components();
        if count <= 1 {
            return;
        }
        // Pick one vertex from component 0 and one from another component.
        let zeros: Vec<usize> = (0..g.node_count()).filter(|&v| comp[v] == 0).collect();
        let others: Vec<usize> = (0..g.node_count()).filter(|&v| comp[v] == 1).collect();
        let a = *rng.choose(&zeros).expect("component 0 non-empty");
        let b = *rng.choose(&others).expect("component 1 non-empty");
        g.add_edge(a, b);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::tests::is_connected;

    #[test]
    fn clique_counts() {
        let g = clique(16);
        assert_eq!(g.node_count(), 16);
        assert_eq!(g.edges().len(), 16 * 15 / 2);
        assert!(is_connected(&g));
        for v in 0..16 {
            assert_eq!(g.degree(v), 15);
        }
    }

    #[test]
    fn line_and_star() {
        let g = line(5);
        assert_eq!(g.edges(), [(0, 1), (1, 2), (2, 3), (3, 4)]);
        assert_eq!(
            (0..5).map(|v| g.degree(v)).collect::<Vec<_>>(),
            [1, 2, 2, 2, 1]
        );

        let g = star(7);
        assert_eq!(g.edges().len(), 6);
        assert_eq!(g.degree(0), 6);
        assert!((1..7).all(|v| g.degree(v) == 1 && g.has_edge(0, v)));
    }

    #[test]
    fn erdos_renyi_extremes() {
        let mut rng = SimRng::seed_from_u64(1);
        let empty = erdos_renyi(10, 0.0, &mut rng);
        assert_eq!(empty.edges().len(), 0);
        let full = erdos_renyi(10, 1.0, &mut rng);
        assert_eq!(full.edges().len(), 45);
    }

    #[test]
    fn erdos_renyi_density_plausible() {
        let mut rng = SimRng::seed_from_u64(2);
        let g = erdos_renyi(60, 0.3, &mut rng);
        let expected = (60.0 * 59.0 / 2.0) * 0.3;
        let got = g.edges().len() as f64;
        assert!(
            (got - expected).abs() < expected * 0.25,
            "edges {got} vs {expected}"
        );
    }

    #[test]
    fn barabasi_albert_properties() {
        let mut rng = SimRng::seed_from_u64(3);
        let g = barabasi_albert(200, 2, &mut rng);
        assert_eq!(g.node_count(), 200);
        assert!(is_connected(&g));
        // Heavy tail: the max degree must far exceed the median.
        let mut degs: Vec<usize> = (0..200).map(|v| g.degree(v)).collect();
        degs.sort_unstable();
        assert!(
            degs[199] >= 3 * degs[100],
            "max {} median {}",
            degs[199],
            degs[100]
        );
    }

    #[test]
    fn barabasi_albert_m1_is_a_tree() {
        let mut rng = SimRng::seed_from_u64(4);
        let g = barabasi_albert(50, 1, &mut rng);
        assert_eq!(g.edges().len(), 49);
        assert!(is_connected(&g));
    }

    #[test]
    fn waxman_generates_coords_and_some_edges() {
        let mut rng = SimRng::seed_from_u64(5);
        let (g, coords) = waxman(80, 0.9, 0.5, &mut rng);
        assert_eq!(coords.len(), 80);
        assert!(!g.edges().is_empty());
        assert!(coords
            .iter()
            .all(|&(x, y)| (0.0..1.0).contains(&x) && (0.0..1.0).contains(&y)));
    }

    #[test]
    fn ensure_connected_connects() {
        let mut rng = SimRng::seed_from_u64(6);
        let mut g = Graph::new(20); // no edges at all: 20 components
        ensure_connected(&mut g, &mut rng);
        assert!(is_connected(&g));
        assert_eq!(g.edges().len(), 19, "minimum edges added");
    }

    #[test]
    fn generators_are_deterministic() {
        let g1 = barabasi_albert(100, 2, &mut SimRng::seed_from_u64(9));
        let g2 = barabasi_albert(100, 2, &mut SimRng::seed_from_u64(9));
        assert_eq!(g1.edges(), g2.edges());
    }
}
