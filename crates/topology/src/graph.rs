//! A small undirected graph library for topology work.
//!
//! Vertices are dense `usize` indices; parallel edges and self-loops are
//! rejected.

/// An undirected graph.
#[derive(Debug, Clone, Default)]
pub struct Graph {
    /// adjacency[v] = neighbours of v
    adj: Vec<Vec<usize>>,
    edges: Vec<(usize, usize)>,
}

impl Graph {
    /// An empty graph with `n` vertices.
    pub fn new(n: usize) -> Graph {
        Graph {
            adj: vec![Vec::new(); n],
            edges: Vec::new(),
        }
    }

    /// Number of vertices.
    pub(crate) fn node_count(&self) -> usize {
        self.adj.len()
    }

    /// Add an undirected edge.
    /// Panics on self-loops, out-of-range vertices or duplicate edges.
    pub fn add_edge(&mut self, a: usize, b: usize) {
        assert!(a != b, "self-loop {a}");
        assert!(
            a < self.adj.len() && b < self.adj.len(),
            "vertex out of range"
        );
        assert!(
            !self.has_edge(a, b),
            "duplicate edge {a}-{b} (parallel edges unsupported)"
        );
        self.edges.push((a, b));
        self.adj[a].push(b);
        self.adj[b].push(a);
    }

    /// True when an edge `a`–`b` exists.
    pub(crate) fn has_edge(&self, a: usize, b: usize) -> bool {
        self.adj[a].contains(&b)
    }

    /// All edges as `(a, b)` in insertion order.
    pub(crate) fn edges(&self) -> &[(usize, usize)] {
        &self.edges
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    /// True when every vertex is reachable from vertex 0 (and the graph is
    /// non-empty): the oracle the generator and parser tests check with.
    pub(crate) fn is_connected(g: &Graph) -> bool {
        if g.node_count() == 0 {
            return false;
        }
        let mut seen = vec![false; g.node_count()];
        let mut stack = vec![0];
        while let Some(v) = stack.pop() {
            if !std::mem::replace(&mut seen[v], true) {
                stack.extend(g.adj[v].iter().copied());
            }
        }
        seen.iter().all(|&s| s)
    }

    #[test]
    fn construction_and_counts() {
        let mut g = Graph::new(4);
        assert_eq!(g.node_count(), 4);
        g.add_edge(0, 1);
        g.add_edge(1, 2);
        assert_eq!(g.edges().len(), 2);
        assert!(g.has_edge(1, 0));
        assert!(!g.has_edge(0, 2));
        assert_eq!(g.adj[1].len(), 2);
        assert_eq!(g.edges()[0], (0, 1));
    }

    #[test]
    #[should_panic]
    fn self_loop_rejected() {
        Graph::new(2).add_edge(1, 1);
    }

    #[test]
    #[should_panic]
    fn duplicate_edge_rejected() {
        let mut g = Graph::new(2);
        g.add_edge(0, 1);
        g.add_edge(1, 0);
    }

    #[test]
    fn components_and_connectivity() {
        let mut g = Graph::new(5);
        g.add_edge(0, 1);
        g.add_edge(2, 3);
        assert!(!is_connected(&g));
        g.add_edge(1, 2);
        assert!(!is_connected(&g), "vertex 4 is still alone");
        g.add_edge(3, 4);
        assert!(is_connected(&g));
        assert!(!is_connected(&Graph::new(0)));
    }
}
