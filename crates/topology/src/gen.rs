//! Topology generators: the "artificial" topology of the paper's
//! Figure 2, the 16-AS clique. Internet-like graphs come from
//! [`crate::caida::synthesize`] or the dataset parsers.

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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clique_counts() {
        let g = clique(16);
        assert_eq!(g.node_count(), 16);
        assert_eq!(g.edges().len(), 16 * 15 / 2);
        for v in 0..16 {
            let degree = g.edges().iter().filter(|&&(a, b)| a == v || b == v).count();
            assert_eq!(degree, 15);
        }
    }
}
