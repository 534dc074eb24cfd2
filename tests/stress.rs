//! Moderate-scale stress tests: the whole pipeline at sizes well beyond
//! the unit-test fixtures (hundreds of disks, tens of thousands of
//! items). Structural assertions only — timings belong to the benches.

use dmig::prelude::*;
use dmig::workloads::{capacities, disk_ops, random};

#[test]
fn even_solver_at_scale() {
    // 200 disks, 12 000 items, even capacities: exactly Δ' rounds.
    let g = random::uniform_multigraph(200, 12_000, 7);
    let caps = capacities::random_even(200, 4, 7);
    let p = MigrationProblem::new(g, caps).unwrap();
    let s = EvenOptimalSolver.solve(&p).unwrap();
    s.validate(&p).unwrap();
    assert_eq!(s.makespan(), p.delta_prime());
}

#[test]
fn general_solver_at_scale() {
    // 150 disks, 10 000 items, mixed parity: meets the lower bound on
    // loose random instances (E4's regime).
    let g = random::uniform_multigraph(150, 10_000, 11);
    let caps = capacities::mixed_parity(150, 1, 5, 11);
    let p = MigrationProblem::new(g, caps).unwrap();
    let s = GeneralSolver::default().solve(&p).unwrap();
    s.validate(&p).unwrap();
    let lb = bounds::lower_bound(&p);
    assert!(s.makespan() <= lb + 2, "{} vs lb {lb}", s.makespan());
}

#[test]
fn bipartite_solver_at_scale() {
    // A large drain: 120 disks losing 10, 8 000 items.
    let g = disk_ops::disk_removal(120, 10, 8_000, 13);
    let caps = capacities::mixed_parity(120, 1, 6, 13);
    let p = MigrationProblem::new(g, caps).unwrap();
    let s = BipartiteOptimalSolver.solve(&p).unwrap();
    s.validate(&p).unwrap();
    assert_eq!(s.makespan(), p.delta_prime());
}

#[test]
fn bipartite_drain_80k_items() {
    // `dmig generate remove 1200 100 80000 3 --seed 7`: 100 of 1 200 disks
    // drained, Δ' = 287.
    let g = disk_ops::disk_removal(1_200, 100, 80_000, 7);
    let p = MigrationProblem::uniform(g, 3).unwrap();
    let s = BipartiteOptimalSolver.solve(&p).unwrap();
    s.validate(&p).unwrap();
    assert_eq!(s.makespan(), p.delta_prime());
    assert_eq!(s.makespan(), 287);
}

#[test]
fn bipartite_huge_odd_capacity() {
    // One transfer between two disks of odd capacity 10⁸+1: time and
    // memory must follow the instance, not c_v.
    let g = GraphBuilder::new().edge(0, 1).build();
    let p = MigrationProblem::uniform(g, 100_000_001).unwrap();
    for solver in [&AutoSolver as &dyn Solver, &BipartiteOptimalSolver] {
        let s = solver.solve(&p).unwrap();
        s.validate(&p).unwrap();
        assert_eq!(s.makespan(), 1);
    }
}

#[test]
fn bipartite_star_drain() {
    // One drained disk with c = 1 feeding 1 000 survivors: Δ' = 10 000
    // while each survivor holds ~10 items, so padding every survivor to
    // Δ' on its own would take ~10⁷ arcs.
    let g = disk_ops::disk_removal(1_001, 1, 10_000, 3);
    let p = MigrationProblem::uniform(g, 1).unwrap();
    let s = BipartiteOptimalSolver.solve(&p).unwrap();
    s.validate(&p).unwrap();
    assert_eq!(s.makespan(), 10_000);
}

#[test]
fn simulation_at_scale() {
    let g = random::uniform_multigraph(100, 6_000, 17);
    let p = MigrationProblem::new(g, capacities::random_even(100, 3, 17)).unwrap();
    let s = EvenOptimalSolver.solve(&p).unwrap();
    let cluster = Cluster::uniform(100, 1.0);
    let r = simulate_rounds(&p, &s, &cluster).unwrap();
    assert_eq!(r.num_rounds(), s.makespan());
    assert!((r.volume - 6_000.0).abs() < 1e-6);
    assert!(r.total_time >= s.makespan() as f64);
}

#[test]
fn gamma_prime_at_scale() {
    // Exact Γ' via parametric min-cut on a dense instance.
    let g = random::uniform_multigraph(120, 10_000, 19);
    let p = MigrationProblem::new(g, capacities::mixed_parity(120, 1, 5, 19)).unwrap();
    let lb2 = bounds::lb2(&p);
    let lb1 = bounds::lb1(&p);
    assert!(lb2 >= 1);
    assert!(lb2 <= lb1, "the mediant dominance must hold at scale too");
}
