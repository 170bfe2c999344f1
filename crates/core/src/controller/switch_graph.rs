//! The switch graph: the physical topology of the cluster's switches.
//!
//! One of the two graphs the paper's controller maintains ("the *Switch
//! graph*, representing the physical topology of the switches in the
//! cluster"). Vertices are cluster members (dense local indices), edges are
//! intra-cluster links with live up/down state fed by PortStatus messages.
//! Connected components define the sub-clusters: the paper's §2 goal is that
//! "an intra-cluster link failure does not isolate the controlled ASes".

use std::collections::VecDeque;

use bgpsdn_netsim::LinkId;

/// One intra-cluster link.
#[derive(Debug, Clone)]
pub struct IntraLink {
    /// Member index of one endpoint.
    pub a: usize,
    /// Member index of the other endpoint.
    pub b: usize,
    /// The simulator link.
    pub link: LinkId,
    /// Operational state.
    pub up: bool,
}

/// The physical cluster topology.
#[derive(Debug, Clone)]
pub struct SwitchGraph {
    n: usize,
    links: Vec<IntraLink>,
    /// Per member, `(neighbor, index into links)` in link insertion order:
    /// a traversal visits a member's links without scanning everyone's.
    adj: Vec<Vec<(usize, usize)>>,
}

impl SwitchGraph {
    /// A graph over `n` members with the given links (all initially up).
    pub fn new(n: usize, links: Vec<(usize, usize, LinkId)>) -> SwitchGraph {
        let mut adj = vec![Vec::new(); n];
        for (i, &(a, b, _)) in links.iter().enumerate() {
            assert!(a < n && b < n && a != b, "bad intra link {a}-{b}");
            adj[a].push((b, i));
            adj[b].push((a, i));
        }
        SwitchGraph {
            n,
            adj,
            links: links
                .into_iter()
                .map(|(a, b, link)| IntraLink {
                    a,
                    b,
                    link,
                    up: true,
                })
                .collect(),
        }
    }

    /// Number of members.
    pub(crate) fn len(&self) -> usize {
        self.n
    }

    /// All intra-cluster links.
    pub(crate) fn links(&self) -> &[IntraLink] {
        &self.links
    }

    /// Update a link's state from a PortStatus. Returns true when this
    /// link is an intra-cluster link and its state actually changed.
    // detlint: allow test-oracle step proptest_switch_graph drives against its edge list
    pub fn set_link_state(&mut self, link: LinkId, up: bool) -> bool {
        for l in &mut self.links {
            if l.link == link {
                if l.up != up {
                    l.up = up;
                    return true;
                }
                return false;
            }
        }
        false
    }

    /// Up neighbors of a member: `(other member, link)`, in link insertion
    /// order, so traversals stay deterministic.
    pub(crate) fn neighbors_up_iter(&self, m: usize) -> impl Iterator<Item = (usize, LinkId)> + '_ {
        self.adj[m].iter().filter_map(|&(nbr, i)| {
            let l = &self.links[i];
            l.up.then_some((nbr, l.link))
        })
    }

    /// The link between two members, if up.
    // detlint: allow test-oracle read-only view proptest_switch_graph checks against its edge list
    pub fn link_between(&self, a: usize, b: usize) -> Option<LinkId> {
        self.neighbors_up_iter(a)
            .find(|&(nbr, _)| nbr == b)
            .map(|(_, link)| link)
    }

    /// Component id per member (dense from 0) and the component count —
    /// the current sub-cluster structure.
    pub fn components(&self) -> (Vec<usize>, usize) {
        let mut comp = vec![usize::MAX; self.n];
        let mut count = 0;
        for start in 0..self.n {
            if comp[start] != usize::MAX {
                continue;
            }
            comp[start] = count;
            let mut q = VecDeque::from([start]);
            while let Some(v) = q.pop_front() {
                for (nbr, _) in self.neighbors_up_iter(v) {
                    if comp[nbr] == usize::MAX {
                        comp[nbr] = count;
                        q.push_back(nbr);
                    }
                }
            }
            count += 1;
        }
        (comp, count)
    }

    /// BFS hop distances from `src` over up links, with the predecessor
    /// member toward `src`, into caller-provided buffers, so a hot loop
    /// running one search per prefix reuses its allocations.
    pub(crate) fn bfs_into(
        &self,
        src: usize,
        dist: &mut Vec<Option<usize>>,
        prev: &mut Vec<Option<usize>>,
        q: &mut VecDeque<usize>,
    ) {
        dist.clear();
        dist.resize(self.n, None);
        prev.clear();
        prev.resize(self.n, None);
        q.clear();
        dist[src] = Some(0);
        q.push_back(src);
        while let Some(v) = q.pop_front() {
            let d = dist[v].expect("queued implies visited");
            // Deterministic order: neighbors preserve link insertion order.
            for (nbr, _) in self.neighbors_up_iter(v) {
                if dist[nbr].is_none() {
                    dist[nbr] = Some(d + 1);
                    prev[nbr] = Some(v);
                    q.push_back(nbr);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lid(i: u32) -> LinkId {
        LinkId(i)
    }

    fn bfs(g: &SwitchGraph, src: usize) -> (Vec<Option<usize>>, Vec<Option<usize>>) {
        let (mut dist, mut prev) = (Vec::new(), Vec::new());
        g.bfs_into(src, &mut dist, &mut prev, &mut VecDeque::new());
        (dist, prev)
    }

    fn triangle() -> SwitchGraph {
        SwitchGraph::new(3, vec![(0, 1, lid(0)), (1, 2, lid(1)), (0, 2, lid(2))])
    }

    #[test]
    fn components_track_failures() {
        let mut g = triangle();
        assert_eq!(g.components().1, 1);
        assert!(g.set_link_state(lid(0), false));
        assert!(!g.set_link_state(lid(0), false), "no change");
        assert_eq!(g.components().1, 1, "triangle survives one failure");
        assert!(g.set_link_state(lid(2), false));
        let (comp, n) = g.components();
        assert_eq!(n, 2);
        assert_eq!(comp[1], comp[2]);
        assert_ne!(comp[0], comp[1]);
        // Unknown link ids are ignored.
        assert!(!g.set_link_state(lid(99), false));
    }

    #[test]
    fn paths_and_neighbors() {
        let mut g = triangle();
        assert_eq!(bfs(&g, 0).0[2], Some(1));
        g.set_link_state(lid(2), false);
        // The shortest path to 2 now runs 0-1-2.
        let (dist, prev) = bfs(&g, 0);
        assert_eq!((dist[2], prev[2], prev[1]), (Some(2), Some(1), Some(0)));
        g.set_link_state(lid(0), false);
        assert_eq!(bfs(&g, 0).0[2], None, "0 is isolated");
        assert!(g.neighbors_up_iter(0).next().is_none());
        assert_eq!(g.link_between(1, 2), Some(lid(1)));
        assert_eq!(g.link_between(0, 1), None);
    }

    #[test]
    fn bfs_distances() {
        let g = SwitchGraph::new(4, vec![(0, 1, lid(0)), (1, 2, lid(1)), (2, 3, lid(2))]);
        let (dist, _) = bfs(&g, 0);
        assert_eq!(dist, vec![Some(0), Some(1), Some(2), Some(3)]);
    }

    #[test]
    #[should_panic]
    fn rejects_out_of_range_links() {
        SwitchGraph::new(2, vec![(0, 5, lid(0))]);
    }
}
