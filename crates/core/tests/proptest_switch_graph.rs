//! Oracle property test for the switch graph's adjacency lists: for random
//! member counts, link lists (parallel links between one pair included) and
//! up/down sequences, the components and the link between each pair must
//! be exactly what a scan of the whole edge list finds.

use std::collections::VecDeque;

use proptest::prelude::*;

use bgpsdn_core::SwitchGraph;
use bgpsdn_netsim::LinkId;

/// The edge-list reference: `(a, b, link, up)` in insertion order.
struct EdgeList {
    n: usize,
    links: Vec<(usize, usize, LinkId, bool)>,
}

impl EdgeList {
    fn neighbors_up(&self, m: usize) -> Vec<(usize, LinkId)> {
        self.links
            .iter()
            .filter(|l| l.3)
            .filter_map(|&(a, b, link, _)| {
                if m == a {
                    Some((b, link))
                } else if m == b {
                    Some((a, link))
                } else {
                    None
                }
            })
            .collect()
    }

    fn link_between(&self, x: usize, y: usize) -> Option<LinkId> {
        self.links
            .iter()
            .find(|&&(a, b, _, up)| up && ((a, b) == (x, y) || (a, b) == (y, x)))
            .map(|l| l.2)
    }

    fn bfs(&self, src: usize) -> (Vec<Option<usize>>, Vec<Option<usize>>) {
        let mut dist = vec![None; self.n];
        let mut prev = vec![None; self.n];
        dist[src] = Some(0);
        let mut q = VecDeque::from([src]);
        while let Some(v) = q.pop_front() {
            for (nbr, _) in self.neighbors_up(v) {
                if dist[nbr].is_none() {
                    dist[nbr] = dist[v].map(|d| d + 1);
                    prev[nbr] = Some(v);
                    q.push_back(nbr);
                }
            }
        }
        (dist, prev)
    }

    fn components(&self) -> (Vec<usize>, usize) {
        let mut comp = vec![usize::MAX; self.n];
        let mut count = 0;
        for start in 0..self.n {
            if comp[start] != usize::MAX {
                continue;
            }
            for (m, d) in self.bfs(start).0.iter().enumerate() {
                if d.is_some() {
                    comp[m] = count;
                }
            }
            count += 1;
        }
        (comp, count)
    }
}

fn assert_same(sg: &SwitchGraph, reference: &EdgeList) -> Result<(), TestCaseError> {
    let n = reference.n;
    prop_assert_eq!(sg.components(), reference.components());
    for m in 0..n {
        for other in 0..n {
            prop_assert_eq!(
                sg.link_between(m, other),
                reference.link_between(m, other),
                "link {}-{}",
                m,
                other
            );
        }
    }
    Ok(())
}

proptest! {
    #[test]
    fn adjacency_lists_match_the_edge_list(
        n in 2usize..9,
        raw_links in prop::collection::vec((0usize..64, 1usize..64), 0..24),
        flips in prop::collection::vec((0usize..64, any::<bool>()), 0..40),
    ) {
        // Endpoints reduced into range, never a self-loop; a small `n`
        // with up to 24 links makes parallel links common.
        let links: Vec<(usize, usize, LinkId)> = raw_links
            .iter()
            .enumerate()
            .map(|(i, &(a, d))| (a % n, (a % n + 1 + d % (n - 1)) % n, LinkId(i as u32)))
            .collect();
        let mut reference = EdgeList {
            n,
            links: links.iter().map(|&(a, b, l)| (a, b, l, true)).collect(),
        };
        let mut sg = SwitchGraph::new(n, links);
        assert_same(&sg, &reference)?;

        for (raw, up) in flips {
            // One id past the end: an unknown link must change nothing.
            let i = raw % (reference.links.len() + 1);
            let changed = match reference.links.get_mut(i) {
                Some(l) => std::mem::replace(&mut l.3, up) != up,
                None => false,
            };
            prop_assert_eq!(sg.set_link_state(LinkId(i as u32), up), changed);
            assert_same(&sg, &reference)?;
        }
    }
}
