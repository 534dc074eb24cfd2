//! Golden digests of the §V general solver's schedules.
//!
//! A seeded corpus of small dense multigraphs with odd and mixed-parity
//! capacities is solved under three configurations (input order, heavy-first
//! order, and the Phase-2 split-color residue). Every schedule is folded
//! into one FNV-1a digest per configuration, so any change in which edge
//! lands in which round — however the solver's state is laid out — shows up
//! as a changed digest. The corpus is dense enough to reach every move:
//! direct colorings, alternating-walk flips, shifts and escalations.

use dmig_core::general::{solve_general_with, EdgeOrder, GeneralConfig, ResidueStrategy};
use dmig_core::{Capacities, MigrationProblem};
use dmig_graph::{Multigraph, NodeId};

/// SplitMix64: a fixed, dependency-free generator so the corpus never
/// changes with a library version.
struct SplitMix(u64);

impl SplitMix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

/// 300 instances on 3–7 disks with 3–12 items per disk pair on average.
/// Even-numbered instances draw every capacity from {1, 3, 5}; odd-numbered
/// ones mix in even capacities (1..=5).
fn corpus() -> Vec<MigrationProblem> {
    let mut rng = SplitMix(11);
    (0..300)
        .map(|i| {
            let n = 3 + rng.below(5) as usize;
            let m = n * (n - 1) / 2 * (3 + rng.below(10) as usize);
            let mut g = Multigraph::with_nodes(n);
            for _ in 0..m {
                let u = rng.below(n as u64) as usize;
                let v = (u + 1 + rng.below(n as u64 - 1) as usize) % n;
                g.add_edge(NodeId::new(u), NodeId::new(v));
            }
            let caps: Vec<u32> = (0..n)
                .map(|_| {
                    if i % 2 == 0 {
                        [1, 3, 5][rng.below(3) as usize]
                    } else {
                        1 + rng.below(5) as u32
                    }
                })
                .collect();
            MigrationProblem::new(g, Capacities::from_vec(caps)).expect("loop-free instance")
        })
        .collect()
}

struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xCBF2_9CE4_8422_2325)
    }

    fn word(&mut self, x: u64) {
        for b in x.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01B3);
        }
    }
}

/// Move totals over the corpus: (walk flips, shifts, escalations, edges
/// colored by the Phase-2 residue colorer).
type Moves = (usize, usize, usize, usize);

/// Solves the corpus under `config`, validating every schedule, and returns
/// the digest of all schedules plus the move totals.
fn digest(config: &GeneralConfig) -> (u64, Moves) {
    let mut h = Fnv::new();
    let mut moves = (0, 0, 0, 0);
    for (i, p) in corpus().iter().enumerate() {
        let report = solve_general_with(p, config);
        report.schedule.validate(p).expect("feasible schedule");
        h.word(i as u64);
        h.word(report.schedule.makespan() as u64);
        for round in report.schedule.rounds() {
            h.word(round.len() as u64);
            for e in round {
                h.word(e.index() as u64);
            }
        }
        moves.0 += report.stats.walk_flips;
        moves.1 += report.stats.shifts;
        moves.2 += report.stats.escalations;
        moves.3 += report.stats.residue_colored;
    }
    (h.0, moves)
}

fn check(config: GeneralConfig, want_digest: u64, want_moves: Moves) {
    let (got, moves) = digest(&config);
    assert_eq!(moves, want_moves, "move totals under {config:?}");
    assert_eq!(
        got, want_digest,
        "schedule digest under {config:?}: {got:#018x}"
    );
}

#[test]
fn input_order_escalate_is_golden() {
    check(
        GeneralConfig::default(),
        0x26d4_899f_9082_22d9,
        (7, 3, 6, 0),
    );
}

#[test]
fn heavy_first_escalate_is_golden() {
    let config = GeneralConfig {
        edge_order: EdgeOrder::HeavyFirst,
        ..GeneralConfig::default()
    };
    check(config, 0x25d5_aa16_88c2_e609, (30, 1, 6, 0));
}

#[test]
fn split_color_residue_is_golden() {
    let config = GeneralConfig {
        residue_strategy: ResidueStrategy::SplitColor,
        ..GeneralConfig::default()
    };
    check(config, 0x26d4_899f_9082_22d9, (7, 3, 0, 6));
}
