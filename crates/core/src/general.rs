//! The general solver for arbitrary transfer constraints (paper §V).
//!
//! The paper generalizes Sanders–Steurer multigraph edge coloring: keep a
//! partial coloring with `q` colors (each usable `c_v` times at disk `v`),
//! make progress with three structure-driven moves, and only grow `q` when
//! a *witness* certifies the current budget is (near-)exhausted. This
//! implementation keeps the same skeleton with practical counterparts:
//!
//! * **direct coloring** — a color missing at both endpoints (the trivial
//!   case of a balancing orbit, Lemma 5.1);
//! * **alternating-walk flips** — the paper's capacitated `ab`-paths
//!   (Def. 5.2): the two-color subgraph is no longer a union of simple
//!   paths (a color may repeat up to `c_v` times at a node), so walks are
//!   edge-disjoint but may revisit vertices; a flip is applied and
//!   *verified*, rolling back in the rare multi-visit overflow case;
//! * **shift moves** — uncolor an adjacent edge to admit the current one
//!   and recursively re-place the evicted edge (bounded depth): the
//!   practical counterpart of growing edge orbits (Def. 5.6, Lemma 5.4);
//! * **escalation** — when no move applies to any pending edge, the state
//!   is the paper's witness situation (Def. 5.7) and the color budget
//!   grows by one.
//!
//! Phase 2 of the paper (§V-C3) — coloring the sparse residue `G_0` by
//! node-splitting + Vizing — is available as an alternative residue
//! strategy ([`ResidueStrategy::SplitColor`]) and exercised by the
//! ablation experiments; escalation dominates it in schedule quality, as
//! the theory predicts (it exists for the analysis, not for practice).
//!
//! Starting budget is `LB1 = Δ'`; every escalation certifies a round the
//! lower bound cannot see, so `final_colors − max(Δ', Γ')` is a measured
//! upper bound on the optimality gap (experiment E4 tracks its `O(√OPT)`
//! shape).

use dmig_color::kempe::kempe_coloring;
use dmig_color::misra_gries::misra_gries_coloring;
use dmig_graph::{EdgeId, Multigraph, NodeId};

use crate::split::split_graph_round_robin;
use crate::{Capacities, MigrationProblem, MigrationSchedule};

/// How the solver finishes off edges that resist all recoloring moves.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum ResidueStrategy {
    /// Grow the budget one color at a time and keep recoloring (the
    /// witness case of §V; best schedules).
    #[default]
    Escalate,
    /// Color the residue in one shot by node-splitting + Vizing/Kempe with
    /// fresh colors (the paper's Phase 2, §V-C3; used for ablation).
    SplitColor,
}

/// Order in which the solver first attempts pending edges.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum EdgeOrder {
    /// Insertion (edge-id) order — deterministic baseline.
    #[default]
    Input,
    /// Heaviest first: descending endpoint degree-over-capacity pressure
    /// (`⌈d_u/c_u⌉ + ⌈d_v/c_v⌉`) — the fail-first heuristic; constrained
    /// edges get colored while the palette is still flexible.
    HeavyFirst,
}

/// Tuning knobs for [`solve_general_with`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct GeneralConfig {
    /// Residue handling (default: escalate).
    pub residue_strategy: ResidueStrategy,
    /// Initial edge processing order (default: input order).
    pub edge_order: EdgeOrder,
    /// Maximum recursion depth of shift moves (orbit growth).
    pub shift_depth: usize,
    /// Evicted-edge candidates tried per shift level.
    pub shift_fanout: usize,
    /// Total recoloring work (alternating-walk steps + shift-tree nodes)
    /// spent per edge attempt. Bounds the otherwise super-polynomial
    /// effort the walk×shift machinery can burn on tight instances (fat
    /// triangles spend `Θ(m)` escalations, each sweeping every pending
    /// edge); exhausting the budget just fails the attempt and falls
    /// through to escalation.
    pub work_budget: u64,
}

impl Default for GeneralConfig {
    fn default() -> Self {
        GeneralConfig {
            residue_strategy: ResidueStrategy::Escalate,
            edge_order: EdgeOrder::Input,
            shift_depth: 4,
            shift_fanout: 4,
            work_budget: 20_000,
        }
    }
}

/// Counters describing how a [`solve_general`] run made progress.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct GeneralStats {
    /// Starting color budget (`LB1`).
    pub initial_colors: usize,
    /// Final number of colors (= schedule makespan before trimming).
    pub final_colors: usize,
    /// Edges colored directly.
    pub direct: usize,
    /// Edges colored after an alternating-walk flip.
    pub walk_flips: usize,
    /// Edges colored through a shift (orbit-growth) move.
    pub shifts: usize,
    /// Budget escalations (witness events).
    pub escalations: usize,
    /// Edges colored by the Phase-2 residue colorer (SplitColor only).
    pub residue_colored: usize,
}

/// Outcome of the general solver.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct GeneralReport {
    /// The feasible schedule.
    pub schedule: MigrationSchedule,
    /// Progress counters.
    pub stats: GeneralStats,
}

/// Solves an arbitrary-capacity instance with the default configuration.
///
/// # Example
///
/// ```
/// use dmig_core::{general::solve_general, bounds, MigrationProblem};
/// use dmig_graph::builder::complete_multigraph;
///
/// let p = MigrationProblem::uniform(complete_multigraph(4, 3), 3)?;
/// let report = solve_general(&p);
/// report.schedule.validate(&p)?;
/// assert!(report.schedule.makespan() >= bounds::lower_bound(&p));
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[must_use]
pub fn solve_general(problem: &MigrationProblem) -> GeneralReport {
    solve_general_with(problem, &GeneralConfig::default())
}

/// Solves an arbitrary-capacity instance with explicit configuration.
#[must_use]
pub fn solve_general_with(problem: &MigrationProblem, config: &GeneralConfig) -> GeneralReport {
    let g = problem.graph();
    let m = g.num_edges();
    let _span = dmig_obs::span_labeled("solve_general", || format!("n={} m={m}", g.num_nodes()));
    let lb = problem.delta_prime();
    let mut stats = GeneralStats {
        initial_colors: lb.max(usize::from(m > 0)),
        ..Default::default()
    };
    if m == 0 {
        return GeneralReport {
            schedule: MigrationSchedule::default(),
            stats,
        };
    }

    let mut state = State::new(g, problem.capacities(), stats.initial_colors, config);
    let mut pending: Vec<EdgeId> = g.edges().map(|(e, _)| e).collect();
    if config.edge_order == EdgeOrder::HeavyFirst {
        let caps = problem.capacities();
        let pressure = |v: dmig_graph::NodeId| g.degree(v).div_ceil(caps.get(v).max(1) as usize);
        pending.sort_by_key(|&e| {
            let ep = g.endpoints(e);
            std::cmp::Reverse(pressure(ep.u) + pressure(ep.v))
        });
    }

    loop {
        // Keep sweeping while any sweep makes progress.
        loop {
            let before = pending.len();
            pending.retain(|&e| !state.try_color_edge(e, &mut stats));
            if pending.is_empty() || pending.len() == before {
                break;
            }
        }
        if pending.is_empty() {
            break;
        }
        match config.residue_strategy {
            ResidueStrategy::Escalate => {
                state.add_color();
                stats.escalations += 1;
            }
            ResidueStrategy::SplitColor => {
                state.color_residue(&pending, &mut stats);
                pending.clear();
            }
        }
    }

    let mut coloring = dmig_color::EdgeColoring::uncolored(m);
    for (i, c) in state.color_of.iter().enumerate() {
        coloring.set(EdgeId::new(i), c.expect("all edges colored"));
    }
    stats.final_colors = coloring.num_colors() as usize;
    let schedule = MigrationSchedule::from_coloring(&coloring);
    dmig_obs::counter_add("general.direct", stats.direct as u64);
    dmig_obs::counter_add("general.walk_flips", stats.walk_flips as u64);
    dmig_obs::counter_add("general.shifts", stats.shifts as u64);
    dmig_obs::counter_add("general.escalations", stats.escalations as u64);
    dmig_obs::counter_add("general.residue_colored", stats.residue_colored as u64);
    GeneralReport { schedule, stats }
}

struct State<'a> {
    g: &'a Multigraph,
    caps: Vec<u32>,
    q: usize,
    /// `count[v][c]`: edges of color `c` incident to `v` — the length of
    /// color class `(v, c)`.
    count: Vec<Vec<u32>>,
    /// Flat slot blocks holding every color class, for walk construction.
    /// Color `c` owns the stripe `c * stride .. (c + 1) * stride`; within
    /// it, disk `v` owns `block_start[v] .. block_start[v + 1]`, i.e.
    /// `min(c_v, d_v) + 1` slots (see [`State::push`] for the bound).
    /// The class's edges fill the block's first `count[v][c]` slots.
    slots: Vec<EdgeId>,
    block_start: Vec<usize>,
    stride: usize,
    color_of: Vec<Option<u32>>,
    /// Walk membership stamps (versioned to avoid clearing).
    walk_stamp: Vec<u32>,
    stamp: u32,
    /// Work units left for the current edge attempt (walk steps + shift
    /// nodes).
    work_left: u64,
    config: GeneralConfig,
}

impl<'a> State<'a> {
    fn new(g: &'a Multigraph, caps: &Capacities, q: usize, config: &GeneralConfig) -> Self {
        let n = g.num_nodes();
        let mut block_start = Vec::with_capacity(n + 1);
        let mut stride = 0;
        block_start.push(0);
        for v in g.nodes() {
            stride += (caps.get(v) as usize).min(g.degree(v)) + 1;
            block_start.push(stride);
        }
        State {
            g,
            caps: caps.as_slice().to_vec(),
            q,
            count: vec![vec![0; q]; n],
            slots: vec![EdgeId::default(); q * stride],
            block_start,
            stride,
            color_of: vec![None; g.num_edges()],
            walk_stamp: vec![0; g.num_edges()],
            stamp: 0,
            work_left: 0,
            config: *config,
        }
    }

    fn add_color(&mut self) {
        self.q += 1;
        for v in 0..self.g.num_nodes() {
            self.count[v].push(0);
        }
        self.slots.resize(self.q * self.stride, EdgeId::default());
    }

    fn cap(&self, v: NodeId) -> u32 {
        self.caps[v.index()]
    }

    fn is_missing(&self, v: NodeId, c: usize) -> bool {
        self.count[v.index()][c] < self.cap(v)
    }

    /// First slot of class `(v, c)`.
    fn base(&self, v: NodeId, c: usize) -> usize {
        c * self.stride + self.block_start[v.index()]
    }

    /// The edges of color `c` at `v`, in the order a `Vec` fed the same
    /// pushes and swap-removes would hold them.
    fn class(&self, v: NodeId, c: usize) -> &[EdgeId] {
        let base = self.base(v, c);
        &self.slots[base..base + self.count[v.index()][c] as usize]
    }

    /// Appends `e` to class `(v, c)`. A class never outgrows its block:
    /// between moves it holds at most `c_v` edges; a walk flip adds at
    /// most one edge per color at the walk's start and one at its end, and
    /// both were checked to have room beforehand, so only a walk that
    /// starts and ends at `v` reaches `c_v + 1` (rolled back by
    /// `attempt_flip`). Every edge of the class is incident to `v`, so it
    /// also holds at most `d_v`.
    fn push(&mut self, v: NodeId, c: usize, e: EdgeId) {
        let len = self.count[v.index()][c] as usize;
        debug_assert!(
            self.block_start[v.index()] + len < self.block_start[v.index() + 1],
            "class ({v}, {c}) outgrew its min(c_v, d_v) + 1 block"
        );
        let base = self.base(v, c);
        self.slots[base + len] = e;
        self.count[v.index()][c] += 1;
    }

    /// Removes `e` from class `(v, c)` by moving the class's last edge
    /// into its slot (`Vec::swap_remove` order).
    fn remove(&mut self, v: NodeId, c: usize, e: EdgeId) {
        let base = self.base(v, c);
        let last = self.count[v.index()][c] as usize - 1;
        let pos = self.slots[base..=base + last]
            .iter()
            .position(|&x| x == e)
            .expect("edge tracked at endpoint");
        self.slots[base + pos] = self.slots[base + last];
        self.count[v.index()][c] -= 1;
    }

    fn assign(&mut self, e: EdgeId, c: usize) {
        debug_assert!(self.color_of[e.index()].is_none());
        let ep = self.g.endpoints(e);
        debug_assert!(self.is_missing(ep.u, c) && self.is_missing(ep.v, c));
        self.place(e, c);
    }

    /// Colors `e` with `c` without checking room at its endpoints.
    fn place(&mut self, e: EdgeId, c: usize) {
        let ep = self.g.endpoints(e);
        self.push(ep.u, c, e);
        self.push(ep.v, c, e);
        self.color_of[e.index()] = Some(u32::try_from(c).expect("color id overflow"));
    }

    fn unassign(&mut self, e: EdgeId) -> usize {
        let c = self.color_of[e.index()]
            .take()
            .expect("unassign of uncolored edge") as usize;
        let ep = self.g.endpoints(e);
        self.remove(ep.u, c, e);
        self.remove(ep.v, c, e);
        c
    }

    fn try_color_edge(&mut self, e: EdgeId, stats: &mut GeneralStats) -> bool {
        let ep = self.g.endpoints(e);
        if self.try_direct(e) {
            stats.direct += 1;
            return true;
        }
        self.work_left = self.config.work_budget;
        if self.try_walks(e, ep.u, ep.v) {
            stats.walk_flips += 1;
            return true;
        }
        let mut in_progress = vec![e];
        if self.try_shift(e, self.config.shift_depth, &mut in_progress) {
            stats.shifts += 1;
            return true;
        }
        false
    }

    /// Consumes `cost` work units; returns false once the budget is gone.
    fn spend(&mut self, cost: u64) -> bool {
        if self.work_left < cost {
            self.work_left = 0;
            return false;
        }
        self.work_left -= cost;
        true
    }

    fn try_direct(&mut self, e: EdgeId) -> bool {
        let ep = self.g.endpoints(e);
        if let Some(c) = (0..self.q).find(|&c| self.is_missing(ep.u, c) && self.is_missing(ep.v, c))
        {
            self.assign(e, c);
            return true;
        }
        false
    }

    /// Alternating-walk flips for edge `e = (u, v)` (Def. 5.2): try every
    /// pair of a color `a` missing at `u` and `b` missing at `v`, flipping
    /// the `ab`-walk from `v` (or the `ba`-walk from `u`) to free a shared
    /// color.
    fn try_walks(&mut self, e: EdgeId, u: NodeId, v: NodeId) -> bool {
        let free_u: Vec<usize> = (0..self.q).filter(|&c| self.is_missing(u, c)).collect();
        let free_v: Vec<usize> = (0..self.q).filter(|&c| self.is_missing(v, c)).collect();
        for &a in &free_u {
            for &b in &free_v {
                if a == b {
                    continue; // would have been a direct coloring
                }
                if self.work_left == 0 {
                    return false;
                }
                // Free `a` at v by flipping the ab-walk from v.
                if self.attempt_flip(v, a, b, u, v) {
                    self.assign(e, a);
                    return true;
                }
                // Symmetric: free `b` at u by flipping the ba-walk from u.
                if self.attempt_flip(u, b, a, u, v) {
                    self.assign(e, b);
                    return true;
                }
            }
        }
        false
    }

    /// Builds and flips the `want/other`-walk from `start`, keeping the
    /// flip only if afterwards color `want` is missing at both `u` and `v`
    /// and no walk vertex exceeds its capacity. Returns whether the flip
    /// was kept.
    fn attempt_flip(
        &mut self,
        start: NodeId,
        want: usize,
        other: usize,
        u: NodeId,
        v: NodeId,
    ) -> bool {
        let walk = self.build_walk(start, want, other, u);
        if walk.is_empty() {
            return false;
        }
        self.flip(&walk, want, other);
        let ok = self.walk_feasible(&walk, want, other)
            && self.is_missing(u, want)
            && self.is_missing(v, want);
        if !ok {
            self.flip(&walk, want, other); // roll back (involutive)
        }
        ok
    }

    /// Edge-disjoint alternating walk from `start`, first edge colored
    /// `want`. Stops at the first vertex missing the next wanted color
    /// (so the final flipped-in color fits), preferring not to end at
    /// `avoid` where the flip would fill the target color.
    fn build_walk(
        &mut self,
        start: NodeId,
        want0: usize,
        other: usize,
        avoid: NodeId,
    ) -> Vec<EdgeId> {
        self.stamp += 1;
        let stamp = self.stamp;
        let mut walk = Vec::new();
        let mut cur = start;
        // `want` is the color of the next edge to traverse; equivalently,
        // the walk's last edge (colored toggle(want)) flips *to* `want`,
        // so `want` is also the color the stop vertex would gain.
        let mut want = want0;
        loop {
            let can_stop = !walk.is_empty()
                && self.is_missing(cur, want)
                && !(cur == avoid && want == want0)
                && cur != start;
            if can_stop {
                return walk;
            }
            if !self.spend(1) {
                return Vec::new();
            }
            let next = self
                .class(cur, want)
                .iter()
                .copied()
                .find(|&f| self.walk_stamp[f.index()] != stamp);
            match next {
                Some(f) => {
                    self.walk_stamp[f.index()] = stamp;
                    walk.push(f);
                    cur = self.g.endpoints(f).other(cur);
                    want = if want == want0 { other } else { want0 };
                }
                None => {
                    // Cannot extend; stop here if the flipped-in color has
                    // room, otherwise abandon the walk.
                    if !walk.is_empty()
                        && self.is_missing(cur, want)
                        && !(cur == avoid && want == want0)
                    {
                        return walk;
                    }
                    return Vec::new();
                }
            }
        }
    }

    /// Swaps colors `a ↔ b` on every walk edge (two-phase; involutive).
    fn flip(&mut self, walk: &[EdgeId], a: usize, b: usize) {
        let recolored: Vec<(EdgeId, usize)> = walk
            .iter()
            .map(|&f| {
                let old = self.unassign(f);
                (f, if old == a { b } else { a })
            })
            .collect();
        for (f, new) in recolored {
            // Bypass assign()'s feasibility assert: transient overflow is
            // detected by walk_feasible and rolled back.
            self.place(f, new);
        }
    }

    /// Post-flip feasibility of every vertex touched by the walk.
    fn walk_feasible(&self, walk: &[EdgeId], a: usize, b: usize) -> bool {
        walk.iter().all(|&f| {
            let ep = self.g.endpoints(f);
            [ep.u, ep.v].into_iter().all(|x| {
                self.count[x.index()][a] <= self.cap(x) && self.count[x.index()][b] <= self.cap(x)
            })
        })
    }

    /// Shift move (orbit growth): evict a colored edge adjacent to `e` to
    /// admit `e`, then re-place the evicted edge recursively.
    fn try_shift(&mut self, e: EdgeId, depth: usize, in_progress: &mut Vec<EdgeId>) -> bool {
        if depth == 0 || !self.spend(8) {
            return false;
        }
        let ep = self.g.endpoints(e);
        for (anchor, far) in [(ep.u, ep.v), (ep.v, ep.u)] {
            // Colors missing at `anchor` but full at `far`: evict one of
            // far's edges of that color.
            let candidates: Vec<usize> = (0..self.q)
                .filter(|&c| self.is_missing(anchor, c) && !self.is_missing(far, c))
                .collect();
            for c in candidates {
                let evictable: Vec<EdgeId> = self
                    .class(far, c)
                    .iter()
                    .copied()
                    .filter(|f| *f != e && !in_progress.contains(f))
                    .take(self.config.shift_fanout)
                    .collect();
                for f in evictable {
                    self.unassign(f);
                    if !(self.is_missing(ep.u, c) && self.is_missing(ep.v, c)) {
                        self.assign(f, c);
                        continue;
                    }
                    self.assign(e, c);
                    in_progress.push(f);
                    let fep = self.g.endpoints(f);
                    let placed = self.try_direct(f)
                        || self.try_walks(f, fep.u, fep.v)
                        || self.try_shift(f, depth - 1, in_progress);
                    in_progress.pop();
                    if placed {
                        return true;
                    }
                    self.unassign(e);
                    self.assign(f, c);
                }
            }
        }
        false
    }

    /// Phase 2 (§V-C3): color the uncolored residue with fresh colors via
    /// node-splitting; Vizing (Misra–Gries) when the split is simple,
    /// Kempe chains otherwise.
    fn color_residue(&mut self, pending: &[EdgeId], stats: &mut GeneralStats) {
        let (residue, mapping) = self.g.edge_subgraph(pending);
        let caps = Capacities::from_vec(self.caps.clone());
        let split = split_graph_round_robin(&residue, &caps);
        let coloring = if split.graph.is_simple() {
            misra_gries_coloring(&split.graph)
        } else {
            kempe_coloring(&split.graph).0
        };
        let base = self.q;
        for _ in 0..coloring.num_colors() {
            self.add_color();
        }
        for (i, &orig) in mapping.iter().enumerate() {
            let c = base
                + coloring
                    .color(EdgeId::new(i))
                    .expect("residue coloring complete") as usize;
            self.assign(orig, c);
            stats.residue_colored += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bounds;
    use dmig_graph::builder::{complete_multigraph, cycle_multigraph, star_multigraph};
    use rand::{rngs::StdRng, Rng, SeedableRng};

    /// Validates and returns (makespan, lower bound).
    fn check(p: &MigrationProblem) -> (usize, usize) {
        let report = solve_general(p);
        report.schedule.validate(p).unwrap();
        let lb = bounds::lower_bound(p);
        let rounds = report.schedule.makespan();
        assert!(rounds >= lb);
        // Hard envelope: never worse than the Saia/Shannon guarantee.
        let envelope = (3 * p.delta_prime()).div_ceil(2) + 1;
        assert!(
            rounds <= envelope.max(1),
            "{rounds} rounds exceeds 1.5-envelope {envelope} on {p}"
        );
        (rounds, lb)
    }

    #[test]
    fn empty_instance() {
        let p = MigrationProblem::uniform(dmig_graph::Multigraph::with_nodes(2), 1).unwrap();
        let r = solve_general(&p);
        assert_eq!(r.schedule.makespan(), 0);
        assert_eq!(r.stats.final_colors, 0);
    }

    #[test]
    fn homogeneous_triangle_needs_three() {
        // K3 with c=1: LB = 2 but OPT = 3 (odd cycle) — the solver must
        // escalate exactly once.
        let p = MigrationProblem::uniform(complete_multigraph(3, 1), 1).unwrap();
        let (rounds, lb) = check(&p);
        assert_eq!(lb, 2);
        assert_eq!(rounds, 3);
    }

    #[test]
    fn fig2_even_capacities_hit_lb() {
        for m in [1usize, 2, 4] {
            let p = MigrationProblem::uniform(complete_multigraph(3, m), 2).unwrap();
            let (rounds, _) = check(&p);
            assert_eq!(rounds, m, "even-capacity instances should reach Δ'");
        }
    }

    #[test]
    fn odd_capacities_near_lb() {
        let p = MigrationProblem::uniform(complete_multigraph(4, 3), 3).unwrap();
        let (rounds, lb) = check(&p);
        assert!(rounds <= lb + 1, "small instance: at most one extra round");
    }

    #[test]
    fn heterogeneous_mixed_parity() {
        let p = MigrationProblem::new(
            complete_multigraph(5, 2),
            crate::Capacities::from_vec(vec![1, 2, 3, 4, 5]),
        )
        .unwrap();
        let (rounds, lb) = check(&p);
        assert!(rounds <= lb + 2);
    }

    #[test]
    fn structured_families() {
        check(&MigrationProblem::uniform(cycle_multigraph(9, 3), 2).unwrap());
        check(&MigrationProblem::uniform(star_multigraph(7, 3), 3).unwrap());
        check(&MigrationProblem::uniform(complete_multigraph(6, 4), 5).unwrap());
    }

    #[test]
    fn randomized_instances_stay_near_lb() {
        let mut rng = StdRng::seed_from_u64(0x6E6E);
        let mut total_excess = 0usize;
        let mut cases = 0usize;
        for _ in 0..40 {
            let n = rng.gen_range(2..14);
            let mut g = dmig_graph::Multigraph::with_nodes(n);
            for _ in 0..rng.gen_range(1..70) {
                let u = rng.gen_range(0..n);
                let v = rng.gen_range(0..n);
                if u != v {
                    g.add_edge(u.into(), v.into());
                }
            }
            if g.num_edges() == 0 {
                continue;
            }
            let caps: crate::Capacities = (0..n).map(|_| rng.gen_range(1..6u32)).collect();
            let p = MigrationProblem::new(g, caps).unwrap();
            let (rounds, lb) = check(&p);
            total_excess += rounds - lb;
            cases += 1;
        }
        // The 1+o(1) promise: average excess far below the 0.5·LB the
        // baseline would allow. Expect near-zero.
        assert!(
            total_excess <= cases,
            "avg excess too high: {total_excess}/{cases}"
        );
    }

    #[test]
    fn stats_are_coherent() {
        let p = MigrationProblem::uniform(complete_multigraph(4, 2), 3).unwrap();
        let r = solve_general(&p);
        let colored =
            r.stats.direct + r.stats.walk_flips + r.stats.shifts + r.stats.residue_colored;
        assert_eq!(colored, p.num_items());
        assert!(r.stats.final_colors >= r.stats.initial_colors);
        assert_eq!(
            r.stats.final_colors,
            r.stats.initial_colors + r.stats.escalations,
            "escalations account for all growth under the Escalate strategy"
        );
    }

    #[test]
    fn split_color_strategy_is_feasible() {
        let cfg = GeneralConfig {
            residue_strategy: ResidueStrategy::SplitColor,
            ..GeneralConfig::default()
        };
        let p = MigrationProblem::uniform(complete_multigraph(5, 3), 3).unwrap();
        let r = solve_general_with(&p, &cfg);
        r.schedule.validate(&p).unwrap();
        assert!(r.schedule.makespan() >= bounds::lower_bound(&p));
    }

    #[test]
    fn heavy_first_order_is_feasible_and_no_worse_on_tight_instances() {
        let cfg = GeneralConfig {
            edge_order: EdgeOrder::HeavyFirst,
            ..Default::default()
        };
        for p in [
            MigrationProblem::uniform(complete_multigraph(5, 2), 1).unwrap(),
            MigrationProblem::uniform(complete_multigraph(7, 1), 1).unwrap(),
            MigrationProblem::new(
                complete_multigraph(5, 2),
                crate::Capacities::from_vec(vec![1, 2, 3, 4, 5]),
            )
            .unwrap(),
        ] {
            let heavy = solve_general_with(&p, &cfg);
            heavy.schedule.validate(&p).unwrap();
            let input = solve_general(&p);
            // Both are heuristics; demand the heavy-first order stays
            // within one round of the default.
            assert!(heavy.schedule.makespan() <= input.schedule.makespan() + 1);
        }
    }

    #[test]
    fn shift_depth_zero_still_terminates() {
        let cfg = GeneralConfig {
            shift_depth: 0,
            ..GeneralConfig::default()
        };
        let p = MigrationProblem::uniform(complete_multigraph(4, 3), 3).unwrap();
        let r = solve_general_with(&p, &cfg);
        r.schedule.validate(&p).unwrap();
    }
}
