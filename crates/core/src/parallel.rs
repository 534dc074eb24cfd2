//! Component-parallel solving: split, solve concurrently, merge.
//!
//! Connected components of the transfer graph are provably independent
//! subproblems — a round never couples disks from different components, and
//! `Δ'` of the whole instance is the maximum of the per-component `Δ'`s. So
//! any solver can be run per component and the per-component rounds merged
//! **index-wise**: merged round `r` is the union of every component's round
//! `r` (disjoint disk sets keep each merged round feasible), and the merged
//! makespan is the maximum per-component makespan.
//!
//! The merge is bit-for-bit deterministic regardless of thread count or
//! scheduling: components are processed in a canonical order (ascending
//! smallest node id, as produced by
//! [`dmig_graph::components::connected_components`]), each worker writes its
//! result into the slot of its component index, and the merge walks the
//! slots in order.
//!
//! # Example
//!
//! ```
//! use dmig_core::{parallel::ParallelSolver, solver::{EvenOptimalSolver, Solver}, MigrationProblem};
//! use dmig_graph::GraphBuilder;
//!
//! // Two independent components; each is solved separately and the
//! // rounds are merged index-wise.
//! let g = GraphBuilder::new().parallel_edges(0, 1, 4).parallel_edges(2, 3, 2).build();
//! let p = MigrationProblem::uniform(g, 2)?;
//! let s = ParallelSolver::with_threads(Box::new(EvenOptimalSolver), 2).solve(&p)?;
//! s.validate(&p)?;
//! assert_eq!(s.makespan(), 2); // max(⌈8/2⌉ /2 …) = Δ' = 2
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use dmig_flow::pool;
use dmig_graph::{components::connected_components, EdgeId, Multigraph, NodeId};

use crate::solver::Solver;
use crate::{Capacities, MigrationProblem, MigrationSchedule, SolveError};

/// One connected component of a [`MigrationProblem`], remapped to dense
/// local ids, plus the mapping back to the original instance.
#[derive(Clone, Debug)]
pub struct ComponentPart {
    /// The component as a standalone instance (local node/edge ids).
    pub problem: MigrationProblem,
    /// `edge_map[local_edge] = original EdgeId`.
    pub edge_map: Vec<EdgeId>,
}

/// Number of worker threads the host offers (`available_parallelism`,
/// falling back to 1 when unknown).
#[must_use]
pub fn default_threads() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// Splits a problem into its connected components with at least one edge.
///
/// Components appear in a canonical order: ascending smallest original node
/// id. Within a component, local node ids follow ascending original node id
/// and local edge ids follow ascending original edge id, so a deterministic
/// solver sees a deterministic subinstance.
#[must_use]
pub fn split_components(problem: &MigrationProblem) -> Vec<ComponentPart> {
    let g = problem.graph();
    let comps = connected_components(g);
    // One component with an item that covers every disk: the one part is
    // the problem itself, node and edge ids unchanged. An isolated disk is
    // a component of its own, so a problem with one never takes this path;
    // its split drops that disk, and since solvers read every disk's
    // capacity (the auto dispatch decides parity over all of them) the
    // part is not interchangeable with the problem.
    if comps.count() == 1 && problem.num_items() > 0 {
        return vec![ComponentPart {
            problem: problem.clone(),
            edge_map: (0..g.num_edges()).map(EdgeId::new).collect(),
        }];
    }
    let groups = comps.groups();

    // Dense local node ids per component, ascending original id (groups()
    // lists members in ascending order already).
    let mut local_of = vec![0usize; g.num_nodes()];
    for group in &groups {
        for (local, v) in group.iter().enumerate() {
            local_of[v.index()] = local;
        }
    }

    // Edges per component, in original edge-id order.
    let mut edges: Vec<Vec<(usize, usize)>> = vec![Vec::new(); groups.len()];
    let mut edge_maps: Vec<Vec<EdgeId>> = vec![Vec::new(); groups.len()];
    for (e, ep) in g.edges() {
        let c = comps.component_of(ep.u);
        edges[c].push((local_of[ep.u.index()], local_of[ep.v.index()]));
        edge_maps[c].push(e);
    }

    groups
        .iter()
        .zip(edges)
        .zip(edge_maps)
        .filter(|((_, es), _)| !es.is_empty())
        .map(|((group, es), edge_map)| {
            let mut sub = Multigraph::with_capacity(group.len(), es.len());
            for (u, v) in es {
                sub.add_edge(NodeId::new(u), NodeId::new(v));
            }
            let caps: Capacities = group.iter().map(|&v| problem.capacities().get(v)).collect();
            let problem = MigrationProblem::new(sub, caps)
                .expect("a component of a valid problem is a valid problem");
            ComponentPart { problem, edge_map }
        })
        .collect()
}

/// Extracts an arbitrary node/edge subset of `problem` as a standalone
/// [`ComponentPart`], using the same canonical remapping as
/// [`split_components`]: local node ids follow ascending original node id
/// (`nodes` must be sorted ascending), local edge ids follow `edges`
/// order (callers pass ascending original edge ids). The shard layer uses
/// this for partition cells and the boundary subproblem; on the groups of
/// [`connected_components`] it reproduces `split_components` exactly.
///
/// # Panics
///
/// Panics if an edge in `edges` has an endpoint outside `nodes`, or if
/// `nodes` contains an out-of-range or duplicate id.
#[must_use]
pub fn extract_part(
    problem: &MigrationProblem,
    nodes: &[NodeId],
    edges: &[EdgeId],
) -> ComponentPart {
    debug_assert!(nodes.windows(2).all(|w| w[0] < w[1]), "nodes ascending");
    let g = problem.graph();
    let mut local_of = vec![usize::MAX; g.num_nodes()];
    for (local, v) in nodes.iter().enumerate() {
        local_of[v.index()] = local;
    }
    let mut sub = Multigraph::with_capacity(nodes.len(), edges.len());
    for &e in edges {
        let ep = g.endpoints(e);
        let (u, v) = (local_of[ep.u.index()], local_of[ep.v.index()]);
        assert!(
            u != usize::MAX && v != usize::MAX,
            "edge endpoints must lie in the node subset"
        );
        sub.add_edge(NodeId::new(u), NodeId::new(v));
    }
    let caps: Capacities = nodes.iter().map(|&v| problem.capacities().get(v)).collect();
    let problem =
        MigrationProblem::new(sub, caps).expect("a subset of a valid problem is a valid problem");
    ComponentPart {
        problem,
        edge_map: edges.to_vec(),
    }
}

/// Solves every part with `solve`, using up to `threads` worker threads.
///
/// The calling thread always works; *extra* workers are recruited from the
/// process-wide [`dmig_flow::pool::budget`] shared with the intra-component
/// quota recursion, so component- and recursion-level parallelism together
/// never exceed the configured thread budget. When no permits are left
/// (e.g. the budget went to a sibling solve) the components are simply
/// solved on the calling thread — the schedules are identical either way.
///
/// Results come back indexed like `parts`, so the outcome is independent of
/// thread count and scheduling. If several components fail, the error of
/// the lowest component index is returned.
///
/// # Errors
///
/// Returns the first (lowest component index) error produced by `solve`.
pub fn solve_components<F>(
    parts: &[ComponentPart],
    threads: usize,
    solve: F,
) -> Result<Vec<MigrationSchedule>, SolveError>
where
    F: Fn(&MigrationProblem) -> Result<MigrationSchedule, SolveError> + Sync,
{
    let workers = threads.max(1).min(parts.len());
    let permits: Vec<pool::WorkerPermit<'_>> =
        pool::budget().try_acquire_many(workers.saturating_sub(1));
    if permits.is_empty() {
        return parts
            .iter()
            .enumerate()
            .map(|(i, p)| {
                let _span = solve_component_span(None, i, p);
                solve(&p.problem)
            })
            .collect();
    }

    // Work-stealing over a shared index; each worker writes into the slot
    // of the component it claimed, so completion order is irrelevant.
    // Helper spans attach to the coordinator's span explicitly — the
    // thread-local span stack does not cross `scope.spawn`; the calling
    // thread's spans nest naturally (parent `None`).
    let parent = dmig_obs::current_span();
    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<Result<MigrationSchedule, SolveError>>>> =
        parts.iter().map(|_| Mutex::new(None)).collect();
    let work = |span_parent: Option<dmig_obs::SpanId>| loop {
        let i = next.fetch_add(1, Ordering::Relaxed);
        let Some(part) = parts.get(i) else { break };
        let span = solve_component_span(span_parent, i, part);
        let result = solve(&part.problem);
        drop(span);
        *slots[i].lock().expect("result slot poisoned") = Some(result);
    };
    std::thread::scope(|scope| {
        for permit in permits {
            let work = &work;
            scope.spawn(move || {
                let _permit = permit;
                work(parent);
            });
        }
        work(None);
    });
    slots
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .expect("result slot poisoned")
                .expect("every component slot is filled before scope exit")
        })
        .collect()
}

/// Telemetry common to both solve paths: a per-component span (attributed
/// to `parent` when solving off-thread), a solve-time histogram sample,
/// and the component counter.
fn solve_component_span(
    parent: Option<dmig_obs::SpanId>,
    index: usize,
    part: &ComponentPart,
) -> (dmig_obs::SpanGuard, dmig_obs::Stopwatch) {
    dmig_obs::counter_add(dmig_obs::keys::COMPONENTS_SOLVED, 1);
    (
        dmig_obs::span_under(parent, "component", || {
            format!(
                "#{index} disks={} items={}",
                part.problem.num_disks(),
                part.problem.num_items()
            )
        }),
        dmig_obs::stopwatch(dmig_obs::keys::COMPONENT_SOLVE_NS),
    )
}

/// Merges per-component schedules index-wise back into original edge ids.
///
/// Merged round `r` concatenates every component's round `r` (components in
/// `parts` order, edges mapped through
/// [`ComponentPart::edge_map`]); the merged makespan is the maximum
/// per-component makespan.
///
/// # Panics
///
/// Panics if `schedules` is not aligned with `parts`.
#[must_use]
pub fn merge_component_schedules(
    parts: &[ComponentPart],
    schedules: &[MigrationSchedule],
) -> MigrationSchedule {
    assert_eq!(parts.len(), schedules.len(), "one schedule per component");
    let makespan = schedules
        .iter()
        .map(MigrationSchedule::makespan)
        .max()
        .unwrap_or(0);
    let mut rounds: Vec<Vec<EdgeId>> = vec![Vec::new(); makespan];
    for (part, schedule) in parts.iter().zip(schedules) {
        for (r, round) in schedule.rounds().iter().enumerate() {
            rounds[r].extend(round.iter().map(|&e| part.edge_map[e.index()]));
        }
    }
    let mut merged = MigrationSchedule::from_rounds(rounds);
    merged.trim_empty_rounds();
    merged
}

/// Full split → solve-concurrently → merge pipeline.
///
/// # Errors
///
/// Returns the first (lowest component index) error produced by `solve`.
pub fn solve_split<F>(
    problem: &MigrationProblem,
    threads: usize,
    solve: F,
) -> Result<MigrationSchedule, SolveError>
where
    F: Fn(&MigrationProblem) -> Result<MigrationSchedule, SolveError> + Sync,
{
    let _span = dmig_obs::span_labeled("solve_split", || format!("threads={threads}"));
    // One budget for the whole solve: `threads - 1` extra workers beyond
    // this thread, shared between the component fan-out below and the
    // intra-component quota recursion (dmig-flow). Whichever layer asks
    // first gets the spare threads; a single giant component hands them
    // all to the recursion.
    pool::budget().set_parallelism(threads);
    let parts = split_components(problem);
    let schedules = solve_components(&parts, threads, solve)?;
    Ok(merge_component_schedules(&parts, &schedules))
}

/// A [`Solver`] adapter that runs any inner solver per connected component,
/// concurrently, and merges the rounds (see the module docs).
///
/// The schedule is identical for every thread count; `threads` only
/// controls how many components are solved at once.
pub struct ParallelSolver {
    inner: Box<dyn Solver>,
    threads: usize,
}

impl std::fmt::Debug for ParallelSolver {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ParallelSolver")
            .field("inner", &self.inner.name())
            .field("threads", &self.threads)
            .finish()
    }
}

impl ParallelSolver {
    /// Wraps `inner`, using all available hardware threads.
    #[must_use]
    pub fn new(inner: Box<dyn Solver>) -> Self {
        let threads = default_threads();
        ParallelSolver { inner, threads }
    }

    /// Wraps `inner` with an explicit worker-thread budget (min 1).
    #[must_use]
    pub fn with_threads(inner: Box<dyn Solver>, threads: usize) -> Self {
        ParallelSolver {
            inner,
            threads: threads.max(1),
        }
    }

    /// The wrapped solver.
    #[must_use]
    pub fn inner(&self) -> &dyn Solver {
        self.inner.as_ref()
    }

    /// The worker-thread budget.
    #[must_use]
    pub fn threads(&self) -> usize {
        self.threads
    }
}

impl Solver for ParallelSolver {
    fn name(&self) -> &'static str {
        "parallel"
    }
    fn solve(&self, problem: &MigrationProblem) -> Result<MigrationSchedule, SolveError> {
        solve_split(problem, self.threads, |sub| self.inner.solve(sub))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::solver::{AutoSolver, EvenOptimalSolver, GreedySolver};
    use dmig_graph::builder::{complete_multigraph, GraphBuilder};

    /// 3 components: K3×2 (Δ'=2), a 4-parallel pair (Δ'=2), a 6-parallel
    /// pair (Δ'=3), plus an isolated node.
    fn multi_component() -> MigrationProblem {
        let g = GraphBuilder::new()
            .nodes(9)
            .edge(0, 1)
            .edge(1, 2)
            .edge(2, 0)
            .edge(0, 1)
            .edge(1, 2)
            .edge(2, 0)
            .parallel_edges(3, 4, 4)
            .parallel_edges(6, 7, 6)
            .build();
        MigrationProblem::uniform(g, 2).unwrap()
    }

    #[test]
    fn spanning_part_equals_the_rebuilt_copy() {
        let p = MigrationProblem::uniform(complete_multigraph(4, 2), 3).unwrap();
        let parts = split_components(&p);
        assert_eq!(parts.len(), 1);
        let all: Vec<EdgeId> = (0..p.num_items()).map(EdgeId::new).collect();
        let rebuilt = extract_part(&p, &p.graph().nodes().collect::<Vec<_>>(), &all);
        assert_eq!(parts[0].problem, rebuilt.problem);
        assert_eq!(parts[0].edge_map, rebuilt.edge_map);

        // An isolated disk is dropped from the one part, not copied.
        let isolated = MigrationProblem::new(
            GraphBuilder::new()
                .nodes(4)
                .edge(0, 1)
                .edge(1, 2)
                .edge(2, 0)
                .build(),
            Capacities::from_vec(vec![1, 1, 1, 2]),
        )
        .unwrap();
        let parts = split_components(&isolated);
        assert_eq!(parts.len(), 1);
        assert_eq!(parts[0].problem.num_disks(), 3);
    }

    #[test]
    fn split_is_canonical_and_covers_all_edges() {
        let p = multi_component();
        let parts = split_components(&p);
        assert_eq!(parts.len(), 3, "isolated node 5/8 contribute no parts");
        // Canonical order: ascending smallest original node id.
        assert_eq!(parts[0].problem.num_disks(), 3);
        assert_eq!(parts[1].edge_map[0].index(), 6);
        let total: usize = parts.iter().map(|p| p.edge_map.len()).sum();
        assert_eq!(total, p.num_items());
        // Edge maps are ascending (original edge-id order).
        for part in &parts {
            assert!(part.edge_map.windows(2).all(|w| w[0] < w[1]));
        }
    }

    #[test]
    fn merged_schedule_is_valid_and_optimal() {
        let p = multi_component();
        let s = solve_split(&p, 4, crate::even::solve_even).unwrap();
        s.validate(&p).unwrap();
        assert_eq!(s.makespan(), p.delta_prime());
        assert_eq!(s.makespan(), 3);
    }

    #[test]
    fn merged_makespan_is_max_of_parts() {
        let p = multi_component();
        let parts = split_components(&p);
        let schedules = solve_components(&parts, 2, crate::even::solve_even).unwrap();
        let merged = merge_component_schedules(&parts, &schedules);
        assert_eq!(
            merged.makespan(),
            schedules
                .iter()
                .map(MigrationSchedule::makespan)
                .max()
                .unwrap()
        );
    }

    #[test]
    fn thread_count_does_not_change_the_schedule() {
        let p = multi_component();
        let s1 = solve_split(&p, 1, crate::even::solve_even).unwrap();
        for threads in [2, 3, 8] {
            let st = solve_split(&p, threads, crate::even::solve_even).unwrap();
            assert_eq!(s1, st, "schedule differs at {threads} threads");
        }
    }

    #[test]
    fn error_of_lowest_component_wins() {
        // Components in canonical order: {0,1} (even caps), {2,3} (odd cap
        // on a used disk → OddCapacity from solve_even).
        let g = GraphBuilder::new().edge(0, 1).edge(2, 3).build();
        let p = MigrationProblem::new(g, Capacities::from_vec(vec![2, 2, 1, 1])).unwrap();
        let err = solve_split(&p, 4, crate::even::solve_even).unwrap_err();
        match err {
            SolveError::OddCapacity { node, .. } => assert_eq!(node.index(), 0, "local id"),
            other => panic!("unexpected error {other}"),
        }
    }

    #[test]
    fn single_component_round_trips() {
        let p = MigrationProblem::uniform(complete_multigraph(4, 2), 2).unwrap();
        let s = solve_split(&p, 4, crate::even::solve_even).unwrap();
        s.validate(&p).unwrap();
        assert_eq!(s.makespan(), p.delta_prime());
    }

    #[test]
    fn empty_problem_yields_empty_schedule() {
        let p = MigrationProblem::uniform(dmig_graph::Multigraph::with_nodes(3), 2).unwrap();
        let s = solve_split(&p, 4, crate::even::solve_even).unwrap();
        assert_eq!(s.makespan(), 0);
    }

    #[test]
    fn parallel_solver_wraps_any_inner() {
        let p = multi_component();
        for inner in [
            Box::new(EvenOptimalSolver) as Box<dyn Solver>,
            Box::new(AutoSolver),
            Box::new(GreedySolver),
        ] {
            let solver = ParallelSolver::with_threads(inner, 3);
            let s = solver.solve(&p).unwrap();
            s.validate(&p).unwrap();
        }
        let default = ParallelSolver::new(Box::new(EvenOptimalSolver));
        assert!(default.threads() >= 1);
        assert_eq!(default.name(), "parallel");
        assert_eq!(default.inner().name(), "even-optimal");
    }
}
