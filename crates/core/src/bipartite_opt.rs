//! Exact optimum for bipartite transfer graphs.
//!
//! Reconfiguration workloads — moving items from an old layout to a new
//! one, rebuilding onto freshly added disks, draining disks before removal
//! — produce bipartite transfer graphs. There the problem is solvable
//! exactly for *any* capacities in `Δ' = LB1` rounds — no 1.5 loss, no
//! parity condition. Coffman et al. \[8\] singled out the bipartite case as
//! optimally solvable; this is the capacitated version.
//!
//! Orienting every transfer left → right already gives the out × in
//! multigraph that the quota kernel ([`quota_round_partition`], the
//! Kariv–Gabow recursion behind the §IV solver) partitions. A disk alone
//! would get the per-round quota `q_v = ⌈d_v/Δ'⌉ ≤ c_v`; to keep padding
//! linear, same-side disks are packed into next-fit bins whose quota
//! `⌈load/Δ'⌉` stays within every member's `c_v`. Padding arcs raise each
//! bin's degree to exactly `q · Δ'`, with one dummy node on the lighter
//! side balancing `Σ_L q` against `Σ_R q`. The kernel then splits the
//! padded arcs into `Δ'` rounds in which each bin carries exactly `q`
//! arcs, so no member exceeds its `c_v`. Nothing is built per unit of
//! capacity or per disk·round, so time and memory follow the instance
//! size, not the size of `c_v` or `Δ'`.

use dmig_flow::quota_round_partition;
use dmig_graph::{bipartite::bipartition, EdgeId};

use crate::{MigrationProblem, MigrationSchedule, SolveError};

/// Computes an optimal schedule (exactly `Δ'` rounds) for a bipartite
/// transfer graph with arbitrary capacities.
///
/// # Errors
///
/// Returns [`SolveError::NotBipartite`] when the transfer graph is not
/// bipartite, or [`SolveError::Internal`] if an internal invariant is
/// violated (a bug).
///
/// # Example
///
/// ```
/// use dmig_core::{bipartite_opt::solve_bipartite, MigrationProblem};
/// use dmig_graph::GraphBuilder;
///
/// // Drain disks {0,1} onto disks {2,3}.
/// let g = GraphBuilder::new()
///     .parallel_edges(0, 2, 3)
///     .parallel_edges(0, 3, 2)
///     .parallel_edges(1, 3, 3)
///     .build();
/// let p = MigrationProblem::uniform(g, 3)?;
/// let s = solve_bipartite(&p)?;
/// s.validate(&p)?;
/// assert_eq!(s.makespan(), p.delta_prime());
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn solve_bipartite(problem: &MigrationProblem) -> Result<MigrationSchedule, SolveError> {
    let g = problem.graph();
    let sides = bipartition(g).map_err(|_| SolveError::NotBipartite)?;
    let delta_prime = problem.delta_prime();
    if delta_prime == 0 {
        return Ok(MigrationSchedule::default());
    }
    let _span = dmig_obs::span_labeled("solve_bipartite", || {
        format!(
            "n={} m={} delta_prime={delta_prime}",
            g.num_nodes(),
            g.num_edges()
        )
    });
    let caps = problem.capacities();

    // Pack the active disks of each side, in index order, into next-fit
    // bins. A bin with load L runs at quota ⌈L/Δ'⌉ and admits a disk only
    // while that quota stays within every member's c_v, so a bin's arcs
    // in one round never overload a member. Two consecutive bins of a
    // side carry more than Δ' transfers, so a side has at most 2m/Δ' + 1
    // bins and the padding below stays O(m); padding disks one by one
    // would cost (active disks)·Δ' arcs on star-shaped drains.
    let mut bin_of = vec![usize::MAX; g.num_nodes()];
    let mut bins: Vec<Bin> = Vec::new();
    let mut open: [Option<usize>; 2] = [None, None];
    for v in g.nodes() {
        let d = g.degree(v);
        if d == 0 {
            continue;
        }
        let (left, c) = (sides.is_left(v), caps.get(v) as usize);
        let fits = |b: &Bin| (b.load + d).div_ceil(delta_prime) <= b.cap.min(c);
        let b = match open[usize::from(left)] {
            Some(b) if fits(&bins[b]) => b,
            _ => {
                bins.push(Bin {
                    left,
                    load: 0,
                    cap: c,
                });
                bins.len() - 1
            }
        };
        open[usize::from(left)] = Some(b);
        bins[b].load += d;
        bins[b].cap = bins[b].cap.min(c);
        bin_of[v.index()] = b;
    }

    // Per-round quota of each bin. A dummy node per side follows the bins;
    // the one on the lighter side balances Σ out-quota against Σ in-quota,
    // the other keeps quota 0.
    let mut quota: Vec<usize> = bins.iter().map(|b| b.load.div_ceil(delta_prime)).collect();
    debug_assert!(bins.iter().zip(&quota).all(|(b, &q)| q <= b.cap));
    let side_sum = |left: bool| -> usize {
        bins.iter()
            .zip(&quota)
            .filter(|(b, _)| b.left == left)
            .map(|(_, &q)| q)
            .sum()
    };
    let (left_sum, right_sum) = (side_sum(true), side_sum(false));
    for (left, q) in [
        (true, right_sum.saturating_sub(left_sum)),
        (false, left_sum.saturating_sub(right_sum)),
    ] {
        // A dummy has no member disks, so no capacity binds it.
        bins.push(Bin {
            left,
            load: 0,
            cap: usize::MAX,
        });
        quota.push(q);
    }
    let k = bins.len();
    let mut out_quota = vec![0u32; k];
    let mut in_quota = vec![0u32; k];
    // `need[b]`: padding arcs node b still lacks to reach degree q_b·Δ'.
    let mut need = vec![0usize; k];
    for (i, (bin, &q)) in bins.iter().zip(&quota).enumerate() {
        need[i] = q * delta_prime - bin.load;
        let q = u32::try_from(q)
            .map_err(|_| SolveError::Internal(format!("bipartite quota {q} overflows")))?;
        if bin.left {
            out_quota[i] = q;
        } else {
            in_quota[i] = q;
        }
    }

    // Arc position i < m is transfer i, oriented left bin → right bin.
    let mut arcs: Vec<(usize, usize)> = g
        .edges()
        .map(|(_, ep)| {
            let (u, v) = (bin_of[ep.u.index()], bin_of[ep.v.index()]);
            if sides.is_left(ep.u) {
                (u, v)
            } else {
                (v, u)
            }
        })
        .collect();
    // Pair left and right deficits with a two-cursor walk. Both sides lack
    // the same total, Σ q·Δ' − m, so the cursors run out together.
    let (mut l, mut r) = (0usize, 0usize);
    loop {
        while l < k && (!bins[l].left || need[l] == 0) {
            l += 1;
        }
        while r < k && (bins[r].left || need[r] == 0) {
            r += 1;
        }
        if l == k || r == k {
            break;
        }
        let pad = need[l].min(need[r]);
        arcs.extend(std::iter::repeat((l, r)).take(pad));
        need[l] -= pad;
        need[r] -= pad;
    }

    let partition = quota_round_partition(k, &arcs, &out_quota, &in_quota, delta_prime)
        .map_err(|e| SolveError::Internal(format!("round decomposition infeasible: {e}")))?;
    let m = g.num_edges();
    let rounds: Vec<Vec<EdgeId>> = partition
        .into_iter()
        .map(|selected| {
            let mut round: Vec<EdgeId> = selected
                .into_iter()
                .filter(|&pos| pos < m)
                .map(EdgeId::new)
                .collect();
            round.sort_unstable();
            round
        })
        .collect();
    let mut schedule = MigrationSchedule::from_rounds(rounds);
    schedule.trim_empty_rounds();
    Ok(schedule)
}

/// A next-fit bin of same-side disks that share one kernel node.
struct Bin {
    left: bool,
    /// Transfers of the member disks.
    load: usize,
    /// Smallest member capacity: the bin's quota may not exceed it.
    cap: usize,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Capacities;
    use dmig_graph::builder::cycle_multigraph;
    use dmig_graph::{GraphBuilder, Multigraph};
    use rand::{rngs::StdRng, Rng, SeedableRng};

    fn check_optimal(p: &MigrationProblem) {
        let s = solve_bipartite(p).unwrap();
        s.validate(p).unwrap();
        assert_eq!(
            s.makespan(),
            p.delta_prime(),
            "the quota kernel must hit Δ' on {p}"
        );
    }

    #[test]
    fn empty_instance() {
        let p = MigrationProblem::uniform(Multigraph::with_nodes(3), 1).unwrap();
        assert_eq!(solve_bipartite(&p).unwrap().makespan(), 0);
    }

    #[test]
    fn non_bipartite_rejected() {
        let p =
            MigrationProblem::uniform(dmig_graph::builder::complete_multigraph(3, 1), 1).unwrap();
        assert_eq!(solve_bipartite(&p).unwrap_err(), SolveError::NotBipartite);
    }

    #[test]
    fn odd_capacities_still_optimal() {
        let g = GraphBuilder::new()
            .parallel_edges(0, 2, 5)
            .parallel_edges(1, 2, 3)
            .parallel_edges(0, 3, 2)
            .build();
        let p = MigrationProblem::new(g, Capacities::from_vec(vec![3, 1, 5, 2])).unwrap();
        check_optimal(&p);
    }

    #[test]
    fn even_cycles() {
        for n in [4usize, 6, 10] {
            let p = MigrationProblem::uniform(cycle_multigraph(n, 3), 2).unwrap();
            check_optimal(&p);
        }
    }

    #[test]
    fn randomized_bipartite_instances() {
        let mut rng = StdRng::seed_from_u64(0xB1);
        for _ in 0..30 {
            let nl = rng.gen_range(1..7);
            let nr = rng.gen_range(1..7);
            let mut g = Multigraph::with_nodes(nl + nr);
            for _ in 0..rng.gen_range(1..40) {
                let l = rng.gen_range(0..nl);
                let r = nl + rng.gen_range(0..nr);
                g.add_edge(l.into(), r.into());
            }
            if g.num_edges() == 0 {
                continue;
            }
            let caps: Capacities = (0..nl + nr).map(|_| rng.gen_range(1..6u32)).collect();
            let p = MigrationProblem::new(g, caps).unwrap();
            check_optimal(&p);
        }
    }
}
