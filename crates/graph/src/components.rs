//! Connected components of a multigraph.

use crate::{Multigraph, NodeId};

/// A partition of a graph's nodes into connected components.
///
/// Produced by [`connected_components`]. Isolated nodes form singleton
/// components. Component ids are dense (`0..count`) and assigned in order of
/// the smallest node id they contain.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Components {
    component_of: Vec<usize>,
    count: usize,
}

impl Components {
    /// Number of connected components.
    #[inline]
    #[must_use]
    pub fn count(&self) -> usize {
        self.count
    }

    /// Component id of node `v`.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    #[inline]
    #[must_use]
    pub fn component_of(&self, v: NodeId) -> usize {
        self.component_of[v.index()]
    }

    /// Returns `true` if `u` and `v` lie in the same component.
    #[inline]
    #[must_use]
    pub fn same_component(&self, u: NodeId, v: NodeId) -> bool {
        self.component_of(u) == self.component_of(v)
    }

    /// Returns the nodes of each component, grouped by component id.
    #[must_use]
    pub fn groups(&self) -> Vec<Vec<NodeId>> {
        let mut out = vec![Vec::new(); self.count];
        for (i, &c) in self.component_of.iter().enumerate() {
            out[c].push(NodeId::new(i));
        }
        out
    }
}

/// Computes the connected components of `g` by union-find over the edge
/// list.
///
/// Every union hangs the larger root under the smaller one, so each node's
/// parent id is at most its own and every root is its component's smallest
/// node. One ascending pass then turns parents into dense ids in place: a
/// root opens the next id, any other node copies the (already final) id of
/// its parent. That is the same labelling a DFS started from each unvisited
/// node in ascending order gives.
///
/// # Example
///
/// ```
/// use dmig_graph::{GraphBuilder, components::connected_components};
///
/// let g = GraphBuilder::new().nodes(5).edge(0, 1).edge(2, 3).build();
/// let comps = connected_components(&g);
/// assert_eq!(comps.count(), 3); // {0,1}, {2,3}, {4}
/// assert!(comps.same_component(0.into(), 1.into()));
/// assert!(!comps.same_component(1.into(), 2.into()));
/// ```
#[must_use]
pub fn connected_components(g: &Multigraph) -> Components {
    let mut parent: Vec<usize> = (0..g.num_nodes()).collect();
    let find = |parent: &mut [usize], mut x: usize| {
        while parent[x] != x {
            parent[x] = parent[parent[x]]; // path halving keeps parent ≤ id
            x = parent[x];
        }
        x
    };
    for ep in g.endpoints_slice() {
        let ru = find(&mut parent, ep.u.index());
        let rv = find(&mut parent, ep.v.index());
        parent[ru.max(rv)] = ru.min(rv);
    }
    let mut count = 0;
    for v in 0..parent.len() {
        parent[v] = if parent[v] == v {
            count += 1;
            count - 1
        } else {
            parent[parent[v]]
        };
    }
    Components {
        component_of: parent,
        count,
    }
}

/// Returns `true` if every pair of non-isolated nodes is connected, i.e. the
/// edges of `g` span a single connected component (isolated nodes ignored).
#[must_use]
pub fn edges_connected(g: &Multigraph) -> bool {
    let comps = connected_components(g);
    let mut seen: Option<usize> = None;
    for v in g.nodes() {
        if g.degree(v) == 0 {
            continue;
        }
        let c = comps.component_of(v);
        match seen {
            None => seen = Some(c),
            Some(c0) if c0 != c => return false,
            _ => {}
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::{complete_multigraph, GraphBuilder};

    #[test]
    fn empty_graph_has_no_components() {
        let comps = connected_components(&Multigraph::new());
        assert_eq!(comps.count(), 0);
        assert!(comps.groups().is_empty());
    }

    #[test]
    fn isolated_nodes_are_singletons() {
        let g = Multigraph::with_nodes(3);
        let comps = connected_components(&g);
        assert_eq!(comps.count(), 3);
        assert_eq!(
            comps.groups(),
            vec![
                vec![NodeId::new(0)],
                vec![NodeId::new(1)],
                vec![NodeId::new(2)],
            ]
        );
    }

    #[test]
    fn single_component_complete_graph() {
        let g = complete_multigraph(5, 2);
        let comps = connected_components(&g);
        assert_eq!(comps.count(), 1);
    }

    #[test]
    fn self_loops_do_not_merge_components() {
        let mut g = Multigraph::with_nodes(2);
        g.add_edge(0.into(), 0.into());
        let comps = connected_components(&g);
        assert_eq!(comps.count(), 2);
    }

    #[test]
    fn component_ids_ordered_by_smallest_member() {
        let g = GraphBuilder::new().nodes(6).edge(4, 5).edge(0, 2).build();
        let comps = connected_components(&g);
        assert_eq!(comps.component_of(0.into()), 0);
        assert_eq!(comps.component_of(2.into()), 0);
        assert_eq!(comps.component_of(1.into()), 1);
        assert_eq!(comps.component_of(4.into()), 3);
    }

    /// The DFS labelling `connected_components` used before union-find:
    /// ids in order of each component's smallest node.
    fn dfs_labels(g: &Multigraph) -> (Vec<usize>, usize) {
        let mut label = vec![usize::MAX; g.num_nodes()];
        let mut count = 0;
        for start in g.nodes() {
            if label[start.index()] != usize::MAX {
                continue;
            }
            label[start.index()] = count;
            let mut stack = vec![start];
            while let Some(v) = stack.pop() {
                for &e in g.incident_edges(v) {
                    let w = g.endpoints(e).other(v);
                    if label[w.index()] == usize::MAX {
                        label[w.index()] = count;
                        stack.push(w);
                    }
                }
            }
            count += 1;
        }
        (label, count)
    }

    #[test]
    fn union_find_matches_dfs_labelling() {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(0xC0C0);
        let mut isolated_seen = 0;
        for _ in 0..500 {
            let n = rng.gen_range(1..40);
            let mut g = Multigraph::with_nodes(n);
            // Sparse enough that many graphs keep isolated disks; loops
            // and parallel edges included.
            for _ in 0..rng.gen_range(0..n + n / 2) {
                g.add_edge(
                    NodeId::new(rng.gen_range(0..n)),
                    NodeId::new(rng.gen_range(0..n)),
                );
            }
            isolated_seen += g.nodes().filter(|&v| g.degree(v) == 0).count();
            let comps = connected_components(&g);
            let (label, count) = dfs_labels(&g);
            assert_eq!(comps.count(), count);
            for v in g.nodes() {
                assert_eq!(comps.component_of(v), label[v.index()], "node {v}");
            }
        }
        assert!(isolated_seen > 0, "the corpus must include isolated disks");
    }

    #[test]
    fn edges_connected_ignores_isolated() {
        let g = GraphBuilder::new().nodes(5).edge(0, 1).edge(1, 2).build();
        assert!(edges_connected(&g));
        let g2 = GraphBuilder::new().nodes(5).edge(0, 1).edge(2, 3).build();
        assert!(!edges_connected(&g2));
        assert!(edges_connected(&Multigraph::with_nodes(4)));
    }
}
