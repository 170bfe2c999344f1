//! A small undirected graph library for topology work.
//!
//! Vertices are dense `usize` indices; parallel edges and self-loops are
//! rejected. Provides the traversals and shortest-path machinery the
//! framework needs: connected components and Dijkstra.

use std::collections::{BinaryHeap, VecDeque};

/// An undirected graph with optional edge weights.
#[derive(Debug, Clone, Default)]
pub struct Graph {
    /// adjacency[v] = (neighbor, edge index)
    adj: Vec<Vec<(usize, usize)>>,
    edges: Vec<(usize, usize, f64)>,
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

    /// Number of edges.
    pub fn edge_count(&self) -> usize {
        self.edges.len()
    }

    /// Append a new vertex, returning its index.
    pub fn add_node(&mut self) -> usize {
        self.adj.push(Vec::new());
        self.adj.len() - 1
    }

    /// Add an undirected edge with weight 1. Returns its index.
    /// Panics on self-loops, out-of-range vertices or duplicate edges.
    pub fn add_edge(&mut self, a: usize, b: usize) -> usize {
        self.add_weighted_edge(a, b, 1.0)
    }

    /// Add an undirected weighted edge. Returns its index.
    pub fn add_weighted_edge(&mut self, a: usize, b: usize, w: f64) -> usize {
        assert!(a != b, "self-loop {a}");
        assert!(
            a < self.adj.len() && b < self.adj.len(),
            "vertex out of range"
        );
        assert!(
            !self.has_edge(a, b),
            "duplicate edge {a}-{b} (parallel edges unsupported)"
        );
        assert!(w.is_finite() && w >= 0.0, "bad weight {w}");
        let idx = self.edges.len();
        self.edges.push((a, b, w));
        self.adj[a].push((b, idx));
        self.adj[b].push((a, idx));
        idx
    }

    /// True when an edge `a`–`b` exists.
    pub fn has_edge(&self, a: usize, b: usize) -> bool {
        self.adj[a].iter().any(|&(n, _)| n == b)
    }

    /// Degree of `v`.
    pub fn degree(&self, v: usize) -> usize {
        self.adj[v].len()
    }

    /// All edges as `(a, b, weight)` in insertion order.
    pub fn edges(&self) -> &[(usize, usize, f64)] {
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
                for &(n, _) in &self.adj[v] {
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

    /// True when every vertex is reachable from every other (and the graph
    /// is non-empty).
    pub fn is_connected(&self) -> bool {
        if self.adj.is_empty() {
            return false;
        }
        self.components().1 == 1
    }

    /// Dijkstra shortest weighted distances and predecessor edges from `src`.
    /// Ties are broken toward the lower-indexed predecessor, so results are
    /// deterministic.
    pub fn dijkstra(&self, src: usize) -> ShortestPaths {
        #[derive(PartialEq)]
        struct Item(f64, usize);
        impl Eq for Item {}
        impl PartialOrd for Item {
            fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
                Some(self.cmp(other))
            }
        }
        impl Ord for Item {
            fn cmp(&self, other: &Self) -> std::cmp::Ordering {
                // Reverse for a min-heap; break distance ties by vertex index.
                other
                    .0
                    .partial_cmp(&self.0)
                    .expect("weights are finite")
                    .then(other.1.cmp(&self.1))
            }
        }

        let n = self.adj.len();
        let mut dist: Vec<f64> = vec![f64::INFINITY; n];
        let mut prev: Vec<Option<usize>> = vec![None; n];
        let mut heap = BinaryHeap::new();
        dist[src] = 0.0;
        heap.push(Item(0.0, src));
        while let Some(Item(d, v)) = heap.pop() {
            if d > dist[v] {
                continue;
            }
            for &(nbr, e) in &self.adj[v] {
                let nd = d + self.edges[e].2;
                let better = nd < dist[nbr]
                    || (nd == dist[nbr] && prev[nbr].map(|pv| v < pv).unwrap_or(false));
                if better {
                    dist[nbr] = nd;
                    prev[nbr] = Some(v);
                    heap.push(Item(nd, nbr));
                }
            }
        }
        ShortestPaths { src, dist, prev }
    }
}

/// Result of a Dijkstra run.
#[derive(Debug, Clone)]
pub struct ShortestPaths {
    /// The source vertex.
    pub src: usize,
    /// Weighted distance per vertex (`f64::INFINITY` = unreachable).
    pub dist: Vec<f64>,
    /// Predecessor vertex on a shortest path.
    pub prev: Vec<Option<usize>>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_counts() {
        let mut g = Graph::new(3);
        assert_eq!(g.node_count(), 3);
        let v = g.add_node();
        assert_eq!(v, 3);
        g.add_edge(0, 1);
        g.add_edge(1, 2);
        assert_eq!(g.edge_count(), 2);
        assert!(g.has_edge(1, 0));
        assert!(!g.has_edge(0, 2));
        assert_eq!(g.degree(1), 2);
        assert_eq!(g.edges()[0], (0, 1, 1.0));
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
        assert!(!g.is_connected());
        g.add_edge(1, 2);
        g.add_edge(3, 4);
        assert!(g.is_connected());
        assert!(!Graph::new(0).is_connected());
    }

    #[test]
    fn dijkstra_weighted_prefers_cheap_detour() {
        let mut g = Graph::new(4);
        g.add_weighted_edge(0, 1, 10.0);
        g.add_weighted_edge(0, 2, 1.0);
        g.add_weighted_edge(2, 3, 1.0);
        g.add_weighted_edge(3, 1, 1.0);
        let sp = g.dijkstra(0);
        assert_eq!(sp.dist, [0.0, 3.0, 1.0, 2.0]);
        // The path to 1 runs 0-2-3-1; the source has no predecessor.
        assert_eq!(sp.prev, [None, Some(3), Some(0), Some(2)]);
    }

    #[test]
    fn dijkstra_unreachable() {
        let mut g = Graph::new(3);
        g.add_edge(0, 1);
        let sp = g.dijkstra(0);
        assert!(sp.dist[2].is_infinite());
        assert_eq!(sp.prev[2], None);
    }

    #[test]
    fn dijkstra_tiebreak_is_deterministic() {
        // Two equal-cost paths 0-1-3 and 0-2-3: predecessor of 3 must be the
        // lower-indexed vertex 1.
        let mut g = Graph::new(4);
        g.add_edge(0, 1);
        g.add_edge(0, 2);
        g.add_edge(1, 3);
        g.add_edge(2, 3);
        let sp = g.dijkstra(0);
        assert_eq!(sp.prev[3], Some(1));
    }
}
