//! A small undirected graph library for topology work.
//!
//! Vertices are dense `usize` indices; parallel edges and self-loops are
//! rejected. Provides the one traversal the framework needs: connected
//! components.

use std::collections::VecDeque;

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
    pub fn node_count(&self) -> usize {
        self.adj.len()
    }

    /// Append a new vertex, returning its index.
    pub fn add_node(&mut self) -> usize {
        self.adj.push(Vec::new());
        self.adj.len() - 1
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

    /// Degree of `v`.
    pub fn degree(&self, v: usize) -> usize {
        self.adj[v].len()
    }

    /// All edges as `(a, b)` in insertion order.
    pub fn edges(&self) -> &[(usize, usize)] {
        &self.edges
    }

    /// Connected component id per vertex (ids dense from 0 in discovery
    /// order) plus the number of components.
    pub fn components(&self) -> (Vec<usize>, usize) {
        let mut comp = vec![usize::MAX; self.adj.len()];
        let mut count = 0;
        for start in 0..self.adj.len() {
            if comp[start] != usize::MAX {
                continue;
            }
            let mut q = VecDeque::new();
            comp[start] = count;
            q.push_back(start);
            while let Some(v) = q.pop_front() {
                for &n in &self.adj[v] {
                    if comp[n] == usize::MAX {
                        comp[n] = count;
                        q.push_back(n);
                    }
                }
            }
            count += 1;
        }
        (comp, count)
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    /// True when every vertex is reachable from every other (and the
    /// graph is non-empty): the oracle the generator tests check with.
    pub(crate) fn is_connected(g: &Graph) -> bool {
        g.node_count() > 0 && g.components().1 == 1
    }

    #[test]
    fn construction_and_counts() {
        let mut g = Graph::new(3);
        assert_eq!(g.node_count(), 3);
        let v = g.add_node();
        assert_eq!(v, 3);
        g.add_edge(0, 1);
        g.add_edge(1, 2);
        assert_eq!(g.edges().len(), 2);
        assert!(g.has_edge(1, 0));
        assert!(!g.has_edge(0, 2));
        assert_eq!(g.degree(1), 2);
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
        let (comp, n) = g.components();
        assert_eq!(n, 3);
        assert_eq!(comp[0], comp[1]);
        assert_eq!(comp[2], comp[3]);
        assert_ne!(comp[0], comp[2]);
        assert_ne!(comp[4], comp[0]);
        assert!(!is_connected(&g));
        g.add_edge(1, 2);
        g.add_edge(3, 4);
        assert!(is_connected(&g));
        assert!(!is_connected(&Graph::new(0)));
    }
}
