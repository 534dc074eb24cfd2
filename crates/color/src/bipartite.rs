//! Optimal edge coloring of bipartite multigraphs (König's theorem).
//!
//! A bipartite multigraph has chromatic index exactly `Δ`. Constructively:
//! regularize the graph (equal sides, every degree exactly `Δ` after adding
//! dummy edges), orient every edge left → right, and split the arcs into
//! `Δ` rounds with one out-arc per left node and one in-arc per right node
//! — `Δ` perfect matchings — by one call to the quota kernel
//! [`quota_round_partition`] (all quotas 1, `rounds = Δ`). The kernel
//! halves even round counts by Euler splits and runs max flow only at the
//! `O(log Δ)` odd levels. Round `k` is color `k`.
//!
//! In migration terms this is the optimal scheduler for *reconfiguration*
//! workloads, whose transfer graphs (old layout → new layout) are bipartite;
//! `dmig-core`'s capacitated bipartite solver runs the same kernel with
//! quotas `⌈load/Δ'⌉ ≤ c_v` instead of 1.

use dmig_flow::quota_round_partition;
use dmig_graph::{bipartite::bipartition, EdgeId, GraphError, Multigraph};

use crate::EdgeColoring;

/// Colors a bipartite multigraph with exactly `Δ` colors.
///
/// # Errors
///
/// Returns [`GraphError::NotBipartite`] if `g` is not bipartite.
///
/// # Example
///
/// ```
/// use dmig_graph::GraphBuilder;
/// use dmig_color::bipartite::bipartite_coloring;
///
/// let g = GraphBuilder::new()
///     .parallel_edges(0, 2, 2)
///     .edge(0, 3)
///     .edge(1, 2)
///     .build();
/// let coloring = bipartite_coloring(&g)?;
/// coloring.validate_proper(&g).unwrap();
/// assert_eq!(coloring.num_colors() as usize, g.max_degree()); // König
/// # Ok::<(), dmig_graph::GraphError>(())
/// ```
pub fn bipartite_coloring(g: &Multigraph) -> Result<EdgeColoring, GraphError> {
    let sides = bipartition(g)?;
    let delta = g.max_degree();
    let mut coloring = EdgeColoring::uncolored(g.num_edges());
    if delta == 0 {
        return Ok(coloring);
    }

    // Map graph nodes to per-side dense indices.
    let n = g.num_nodes();
    let mut side_index = vec![usize::MAX; n];
    let (mut num_left, mut num_right) = (0usize, 0usize);
    for v in g.nodes() {
        let count = if sides.is_left(v) {
            &mut num_left
        } else {
            &mut num_right
        };
        side_index[v.index()] = *count;
        *count += 1;
    }
    let s = num_left.max(num_right);

    // Regularize: `arcs` lists left-index → right-index pairs, the graph's
    // edges first (arc position i < m is edge i), then dummy arcs. Kernel
    // node layout: left nodes are 0..s, right nodes s..2s.
    let mut arcs: Vec<(usize, usize)> = Vec::with_capacity(s * delta);
    let mut left_deg = vec![0usize; s];
    let mut right_deg = vec![0usize; s];
    for (_, ep) in g.edges() {
        let (l, r) = if sides.is_left(ep.u) {
            (side_index[ep.u.index()], side_index[ep.v.index()])
        } else {
            (side_index[ep.v.index()], side_index[ep.u.index()])
        };
        arcs.push((l, s + r));
        left_deg[l] += 1;
        right_deg[r] += 1;
    }
    // Pad with dummy arcs until both sides are Δ-regular. Total deficits
    // match: Σ(Δ - left_deg) = sΔ - m = Σ(Δ - right_deg).
    let mut l_cursor = 0usize;
    let mut r_cursor = 0usize;
    loop {
        while l_cursor < s && left_deg[l_cursor] >= delta {
            l_cursor += 1;
        }
        while r_cursor < s && right_deg[r_cursor] >= delta {
            r_cursor += 1;
        }
        if l_cursor == s || r_cursor == s {
            break;
        }
        arcs.push((l_cursor, s + r_cursor));
        left_deg[l_cursor] += 1;
        right_deg[r_cursor] += 1;
    }
    debug_assert!(left_deg.iter().all(|&d| d == delta));
    debug_assert!(right_deg.iter().all(|&d| d == delta));

    // Split into Δ perfect matchings: per round, one out-arc at each left
    // node and one in-arc at each right node.
    let quota_out: Vec<u32> = (0..2 * s).map(|v| u32::from(v < s)).collect();
    let quota_in: Vec<u32> = (0..2 * s).map(|v| u32::from(v >= s)).collect();
    let matchings = quota_round_partition(2 * s, &arcs, &quota_out, &quota_in, delta)
        .expect("a Δ-regular bipartite multigraph splits into Δ perfect matchings");
    let m = g.num_edges();
    for (color, matching) in matchings.iter().enumerate() {
        let color = u32::try_from(color).expect("color id overflow");
        for &pos in matching.iter().filter(|&&pos| pos < m) {
            coloring.set(EdgeId::new(pos), color);
        }
    }
    debug_assert!(coloring.is_complete());
    coloring.compact();
    Ok(coloring)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dmig_graph::builder::{cycle_multigraph, GraphBuilder};
    use rand::{rngs::StdRng, Rng, SeedableRng};

    fn check_koenig(g: &Multigraph) {
        let c = bipartite_coloring(g).unwrap();
        c.validate_proper(g).unwrap();
        assert_eq!(c.num_colors() as usize, g.max_degree(), "König: χ' = Δ");
    }

    #[test]
    fn empty_graph() {
        let g = Multigraph::with_nodes(4);
        let c = bipartite_coloring(&g).unwrap();
        assert_eq!(c.num_colors(), 0);
    }

    #[test]
    fn single_and_parallel_edges() {
        check_koenig(&GraphBuilder::new().edge(0, 1).build());
        check_koenig(&GraphBuilder::new().parallel_edges(0, 1, 5).build());
    }

    #[test]
    fn even_cycles() {
        for n in [4usize, 6, 8] {
            check_koenig(&cycle_multigraph(n, 1));
            check_koenig(&cycle_multigraph(n, 3));
        }
    }

    #[test]
    fn complete_bipartite() {
        // K_{3,4}: Δ = 4.
        let mut b = GraphBuilder::new();
        for l in 0..3 {
            for r in 3..7 {
                b = b.edge(l, r);
            }
        }
        check_koenig(&b.build());
    }

    #[test]
    fn unbalanced_sides_and_multiplicities() {
        let g = GraphBuilder::new()
            .parallel_edges(0, 5, 4)
            .parallel_edges(1, 5, 2)
            .edge(2, 5)
            .edge(0, 6)
            .build();
        check_koenig(&g);
    }

    #[test]
    fn non_bipartite_rejected() {
        let g = cycle_multigraph(5, 1);
        assert!(bipartite_coloring(&g).is_err());
    }

    #[test]
    fn random_bipartite_multigraphs() {
        let mut rng = StdRng::seed_from_u64(99);
        for _ in 0..30 {
            let nl = rng.gen_range(1..8);
            let nr = rng.gen_range(1..8);
            let m = rng.gen_range(0..40);
            let mut g = Multigraph::with_nodes(nl + nr);
            for _ in 0..m {
                let l = rng.gen_range(0..nl);
                let r = nl + rng.gen_range(0..nr);
                g.add_edge(l.into(), r.into());
            }
            if g.num_edges() == 0 {
                continue;
            }
            check_koenig(&g);
        }
    }

    #[test]
    fn disconnected_components() {
        let g = GraphBuilder::new()
            .parallel_edges(0, 1, 3)
            .parallel_edges(2, 3, 2)
            .nodes(6)
            .build();
        check_koenig(&g);
    }
}
