//! E8 — the two lower bounds of §III: `Δ'` vs `Γ'` and their tightness.
//!
//! Findings this harness demonstrates (and `EXPERIMENTS.md` records):
//!
//! 1. `Γ' ≤ Δ'` on *every* instance — the paper states `LB1 ≥ LB2` for
//!    even capacities; a mediant-inequality argument makes it
//!    unconditional (`2|E(S)| = Σ_S d_v(S) ≤ Σ_S d_v` and
//!    `Σd/Σc ≤ max d/c`).
//! 2. The exact flow-based `Γ'` matches the `O(2^n)` brute force.
//! 3. `Δ'` is usually tight: the general solver certifies `OPT = Δ'` on
//!    most random instances; the homogeneous triangle family (`c = 1`,
//!    odd cycles) shows the bounds can be off by one factor ~1.5 of OPT.

use dmig_bench::table::Table;
use dmig_core::{bounds, general::solve_general, MigrationProblem};
use dmig_workloads::{capacities, random};

fn main() {
    println!("E8: lower bounds Δ' and Γ' — dominance and tightness\n");
    let mut t = Table::new(&["case", "Δ'", "Γ'", "Γ''", "achieved", "gap(sharp)"]);

    // Structured + random cases; brute-force cross-check on the small ones.
    let mut cases: Vec<(String, MigrationProblem)> = vec![
        (
            "K3 m=1 c=1 (odd cycle)".into(),
            MigrationProblem::uniform(dmig_graph::builder::complete_multigraph(3, 1), 1)
                .expect("valid"),
        ),
        (
            "K5 m=2 c=3".into(),
            MigrationProblem::uniform(dmig_graph::builder::complete_multigraph(5, 2), 3)
                .expect("valid"),
        ),
        (
            "C7 m=3 c=2".into(),
            MigrationProblem::uniform(dmig_graph::builder::cycle_multigraph(7, 3), 2)
                .expect("valid"),
        ),
    ];
    for seed in 0..6u64 {
        let n = 8 + 2 * seed as usize;
        let m = 30 * (seed as usize + 1);
        let g = random::uniform_multigraph(n, m, seed);
        let caps = capacities::mixed_parity(n, 1, 5, seed);
        cases.push((
            format!("random n={n} m={m}"),
            MigrationProblem::new(g, caps).expect("valid"),
        ));
    }

    for (label, p) in &cases {
        let d = bounds::lb1(p);
        // One min-cut per instance: Γ'' starts from the same witness.
        let witness = bounds::lb2_witness(p);
        let gamma = witness.as_ref().map_or(0, |w| w.bound);
        let gamma2 = bounds::lb3_with_witness(p, witness.as_ref());
        if p.num_disks() <= 18 {
            assert_eq!(
                gamma,
                bounds::lb2_bruteforce(p),
                "flow Γ' must match brute force"
            );
        }
        assert!(gamma <= d, "Γ' must never exceed Δ'");
        let report = solve_general(p);
        report.schedule.validate(p).expect("feasible");
        let achieved = report.schedule.makespan();
        // `lower_bound_sharp`, without a second min-cut.
        let sharp = d.max(gamma2);
        assert!(achieved >= sharp, "Γ'' must stay a valid lower bound");
        t.row_owned(vec![
            label.clone(),
            d.to_string(),
            gamma.to_string(),
            gamma2.to_string(),
            achieved.to_string(),
            (achieved - sharp).to_string(),
        ]);
    }
    println!("{}", t.render());
    println!("findings: (1) Γ' ≤ Δ' unconditionally (mediant inequality) — the paper's Γ'");
    println!("is an analysis tool, not a stronger bound; (2) the integral sharpening");
    println!("Γ'' = max ⌈E(S)/⌊Σc/2⌋⌉ (beyond the paper) closes the odd-structure gap:");
    println!("on K3/C_odd at c=1 it certifies OPT = 3 where max(Δ',Γ') says 2");
}
