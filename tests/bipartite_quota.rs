//! Property tests for the bipartite-optimal solver on random drains and
//! reconfigurations: unbalanced sides, isolated disks, odd and huge
//! capacities, solved at every worker count.

use dmig::flow::pool;
use dmig::prelude::*;
use proptest::prelude::*;

/// Largest capacity drawn; capacities far above any degree exercise the
/// `c_v ≫ d_v` regime where time and memory must not follow `c_v`.
const MAX_CAPACITY: u32 = 1_000_000_000;

/// Strategy: a side per disk (so left and right ids interleave and the
/// sides are usually unbalanced), transfers between random left/right
/// picks, up to two trailing idle disks, and per-disk capacities that are
/// small odd, small even or huge.
fn bipartite_strategy() -> impl Strategy<Value = (Vec<bool>, Vec<(usize, usize)>, Vec<u32>)> {
    (2usize..14, 0usize..3).prop_flat_map(|(n, idle)| {
        let sides = proptest::collection::vec(proptest::bool::ANY, n);
        let picks = proptest::collection::vec((0..n, 0..n), 0..80);
        let cap = (0u8..5, 1u32..8, 0u32..MAX_CAPACITY / 2, 1u32..=MAX_CAPACITY).prop_map(
            |(kind, small, half, huge)| match kind {
                0..=2 => small,
                3 => 2 * half + 1,
                _ => huge,
            },
        );
        let caps = proptest::collection::vec(cap, n + idle);
        (sides, picks, caps)
    })
}

/// Builds the instance: each pick `(a, b)` becomes a transfer from the
/// `a`-th left disk to the `b`-th right disk (modulo side sizes). Disks
/// past `sides`, and any no pick lands on, stay isolated.
fn build_problem(sides: &[bool], picks: &[(usize, usize)], caps: &[u32]) -> MigrationProblem {
    let left: Vec<usize> = (0..sides.len()).filter(|&v| sides[v]).collect();
    let right: Vec<usize> = (0..sides.len()).filter(|&v| !sides[v]).collect();
    let mut g = Multigraph::with_nodes(caps.len());
    if !left.is_empty() && !right.is_empty() {
        for &(a, b) in picks {
            g.add_edge(left[a % left.len()].into(), right[b % right.len()].into());
        }
    }
    MigrationProblem::new(g, Capacities::from_vec(caps.to_vec())).expect("bipartite, caps ≥ 1")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Every schedule validates, takes exactly `Δ'` rounds, and is the
    /// same schedule at 1, 2, 3 and 4 worker threads.
    #[test]
    fn bipartite_optimal_and_thread_invariant((sides, picks, caps) in bipartite_strategy()) {
        // Let the quota recursion recruit workers even on tiny instances.
        pool::set_spawn_min_work(0);
        let p = build_problem(&sides, &picks, &caps);
        let mut first: Option<MigrationSchedule> = None;
        for threads in 1..=4 {
            let s = ParallelSolver::with_threads(Box::new(BipartiteOptimalSolver), threads)
                .solve(&p)
                .expect("bipartite by construction");
            prop_assert!(s.validate(&p).is_ok(), "invalid at {} threads", threads);
            prop_assert_eq!(s.makespan(), p.delta_prime());
            match &first {
                None => first = Some(s),
                Some(f) => prop_assert_eq!(f, &s, "schedule differs at {} threads", threads),
            }
        }
    }
}
