//! Closed-form scenario tests for the simulation engines.

use dmig_core::solver::{AutoSolver, Solver};
use dmig_core::{Capacities, MigrationProblem, MigrationSchedule};
use dmig_graph::builder::{complete_multigraph, star_multigraph};
use dmig_graph::GraphBuilder;
use dmig_sim::{
    engine::{simulate_adaptive, simulate_rounds},
    Cluster,
};

/// Star with hub capacity k: every round k transfers share the hub's
/// bandwidth: round time = k / B_hub (leaves are not binding at B = 1).
#[test]
fn star_round_time_is_hub_concurrency() {
    let leaves = 8;
    let g = star_multigraph(leaves, 1);
    let mut caps = vec![4u32; leaves + 1];
    caps[0] = 4;
    let p = MigrationProblem::new(g, Capacities::from_vec(caps)).unwrap();
    let s = AutoSolver.solve(&p).unwrap();
    s.validate(&p).unwrap();
    assert_eq!(s.makespan(), 2); // ⌈8/4⌉
    let r = simulate_rounds(&p, &s, &Cluster::uniform(leaves + 1, 1.0)).unwrap();
    // Each round: 4 transfers at hub rate 1/4 → 4 time units; 2 rounds.
    assert!((r.total_time - 8.0).abs() < 1e-9);
    // Work-conserving cannot help: all transfers in a round are symmetric.
    let a = simulate_adaptive(&p, &s, &Cluster::uniform(leaves + 1, 1.0)).unwrap();
    assert!((a.total_time - 8.0).abs() < 1e-9);
}

/// Fig. 2 with non-unit bandwidth scales inversely.
#[test]
fn bandwidth_scales_time() {
    let p = MigrationProblem::uniform(complete_multigraph(3, 4), 2).unwrap();
    let s = AutoSolver.solve(&p).unwrap();
    let slow = simulate_rounds(&p, &s, &Cluster::uniform(3, 0.5)).unwrap();
    let fast = simulate_rounds(&p, &s, &Cluster::uniform(3, 2.0)).unwrap();
    assert!((slow.total_time - 4.0 * fast.total_time).abs() < 1e-9);
}

/// Asymmetric bandwidths: the transfer runs at the slower side's share.
#[test]
fn min_rate_semantics() {
    let g = GraphBuilder::new().edge(0, 1).edge(0, 2).build();
    let p = MigrationProblem::uniform(g, 2).unwrap();
    let s = MigrationSchedule::from_rounds(vec![vec![0.into(), 1.into()]]);
    s.validate(&p).unwrap();
    // Disk 0 splits bandwidth 2.0 across both transfers (share 1.0);
    // disks 1 (B=0.25) and 2 (B=1.0) are sole users of their side.
    let cluster = Cluster::from_bandwidths(vec![2.0, 0.25, 1.0]);
    let r = simulate_rounds(&p, &s, &cluster).unwrap();
    // Transfer to disk 1 runs at 0.25 → 4 time units; round time 4.
    assert!((r.total_time - 4.0).abs() < 1e-9);
    // Work-conserving: the fast transfer finishes at t=1; disk 0's share
    // then rises to 2.0, but the bottleneck 0.25 stays → still 4.0.
    let a = simulate_adaptive(&p, &s, &cluster).unwrap();
    assert!((a.total_time - 4.0).abs() < 1e-9);
}

/// Busy time never exceeds total time, and utilization is within [0, 1].
#[test]
fn metric_sanity_on_mixed_scenarios() {
    let p = MigrationProblem::uniform(complete_multigraph(5, 3), 2).unwrap();
    let s = AutoSolver.solve(&p).unwrap();
    let cluster = Cluster::from_bandwidths(vec![0.5, 1.0, 2.0, 1.5, 0.75]);
    for r in [
        simulate_rounds(&p, &s, &cluster).unwrap(),
        simulate_adaptive(&p, &s, &cluster).unwrap(),
    ] {
        for &busy in &r.disk_busy {
            assert!(busy <= r.total_time + 1e-9);
        }
        let u = r.mean_utilization();
        assert!((0.0..=1.0 + 1e-9).contains(&u));
        assert!(r.throughput() > 0.0);
        assert_eq!(
            r.timeline_csv().lines().count(),
            r.num_rounds() + r.disk_busy.len() + 1
        );
    }
}
