//! Deterministic fault plans: seeded failure injection for the executor.
//!
//! A [`FaultPlan`] describes everything that will go wrong during a run,
//! up front and reproducibly — the paper's §I motivates exactly these
//! disturbances (bandwidth shifting under live traffic, disks failing and
//! recovering mid-reconfiguration):
//!
//! * **crash-stop** — a disk dies at a given time and never comes back;
//!   pending items touching it are redirected to an optional replacement
//!   disk, or reported lost;
//! * **degradation** — a disk's bandwidth collapses to a fraction of its
//!   initial value at one time and optionally recovers at a later one;
//! * **flaky transfers** — every transfer attempt independently fails
//!   with a fixed probability, decided by a seeded hash of
//!   `(seed, item, attempt)` so the same plan always fails the same
//!   attempts.
//!
//! Plans parse from the TOML subset that [`dmig_obs::conf`] reads (a
//! top-level `seed`, `[[crash]]` and `[[degrade]]` tables and a `[flaky]`
//! table) and compile to a timeline of events sorted by
//! `(time, kind, disk)`, so same-timestamp events apply in one canonical
//! order no matter how the file lists them.

use dmig_graph::NodeId;
use dmig_obs::conf::{self, ConfError, Entry, Table};

/// A crash-stop disk failure: the disk's bandwidth drops to zero at
/// `time` and never recovers.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct CrashFault {
    /// The disk that dies.
    pub disk: NodeId,
    /// When it dies (simulated time).
    pub time: f64,
    /// Optional replacement: pending items are redirected here at the
    /// next replan. With `None`, pending items on this disk are lost.
    pub replacement: Option<NodeId>,
}

/// A transient bandwidth collapse with optional recovery.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct DegradeFault {
    /// The disk that degrades.
    pub disk: NodeId,
    /// When the collapse starts (simulated time).
    pub time: f64,
    /// Multiplier applied to the disk's *initial* bandwidth while
    /// degraded (must be in `(0, 1)`; a total failure is a crash).
    pub factor: f64,
    /// When the disk returns to its initial bandwidth, if ever.
    pub recover_at: Option<f64>,
}

/// Per-transfer flaky failures: each attempt fails independently with
/// probability `probability`, decided by the plan seed.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct FlakySpec {
    /// Failure probability per transfer attempt, in `[0, 1]`.
    pub probability: f64,
}

/// A complete, deterministic fault scenario.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct FaultPlan {
    /// Seed for the flaky-transfer coin (and any future randomized fault).
    pub seed: u64,
    /// Crash-stop failures.
    pub crashes: Vec<CrashFault>,
    /// Bandwidth degradations.
    pub degradations: Vec<DegradeFault>,
    /// Flaky-transfer behaviour, if any.
    pub flaky: Option<FlakySpec>,
}

/// What one compiled timeline event does.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum FaultAction {
    /// Set the disk's bandwidth to `initial × factor` (1.0 = recovery).
    SetBandwidthFactor(NodeId, f64),
    /// Crash-stop the disk (bandwidth 0 forever; redirect to the
    /// replacement at the next replan).
    Crash(NodeId, Option<NodeId>),
}

/// One event of the compiled fault timeline.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct FaultEvent {
    /// When the event fires (simulated time).
    pub time: f64,
    /// What it does.
    pub action: FaultAction,
}

/// Errors from parsing or validating a fault plan.
#[derive(Clone, Debug, PartialEq, Eq)]
#[non_exhaustive]
pub enum FaultPlanError {
    /// A line could not be parsed.
    Parse {
        /// 1-based line number.
        line: usize,
        /// What went wrong.
        message: String,
    },
    /// The parsed plan is semantically invalid for the given cluster.
    Invalid(String),
}

impl std::fmt::Display for FaultPlanError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FaultPlanError::Parse { line, message } => write!(f, "line {line}: {message}"),
            FaultPlanError::Invalid(m) => write!(f, "invalid fault plan: {m}"),
        }
    }
}

impl std::error::Error for FaultPlanError {}

impl From<ConfError> for FaultPlanError {
    fn from(e: ConfError) -> Self {
        FaultPlanError::Parse {
            line: e.line,
            message: e.message,
        }
    }
}

/// The header line of every table a parsed plan came from, so
/// [`FaultPlan::check`] can blame the table that broke a rule.
#[derive(Default)]
struct TableLines {
    crashes: Vec<usize>,
    degradations: Vec<usize>,
    flaky: usize,
}

fn unknown_key(e: &Entry) -> ConfError {
    e.error(format!("unknown key `{}` in this table", e.key))
}

fn read_disk(e: &Entry) -> Result<NodeId, ConfError> {
    e.parse("a disk index").map(NodeId::new)
}

fn need<T>(t: &Table, value: Option<T>, key: &str) -> Result<T, ConfError> {
    value.ok_or_else(|| t.error(format!("{} needs `{key}`", t.header())))
}

fn read_crash(t: &Table) -> Result<CrashFault, ConfError> {
    let (mut disk, mut time, mut replacement) = (None, None, None);
    for e in &t.entries {
        match e.key.as_str() {
            "disk" => disk = Some(read_disk(e)?),
            "time" => time = Some(e.number()?),
            "replacement" => replacement = Some(read_disk(e)?),
            _ => return Err(unknown_key(e)),
        }
    }
    Ok(CrashFault {
        disk: need(t, disk, "disk")?,
        time: need(t, time, "time")?,
        replacement,
    })
}

fn read_degrade(t: &Table) -> Result<DegradeFault, ConfError> {
    let (mut disk, mut time, mut factor, mut recover_at) = (None, None, None, None);
    for e in &t.entries {
        match e.key.as_str() {
            "disk" => disk = Some(read_disk(e)?),
            "time" => time = Some(e.number()?),
            "factor" => factor = Some(e.number()?),
            "recover_at" => recover_at = Some(e.number()?),
            _ => return Err(unknown_key(e)),
        }
    }
    Ok(DegradeFault {
        disk: need(t, disk, "disk")?,
        time: need(t, time, "time")?,
        factor: need(t, factor, "factor")?,
        recover_at,
    })
}

fn read_flaky(t: &Table) -> Result<FlakySpec, ConfError> {
    let mut probability = None;
    for e in &t.entries {
        match e.key.as_str() {
            "probability" => probability = Some(e.number()?),
            _ => return Err(unknown_key(e)),
        }
    }
    Ok(FlakySpec {
        probability: need(t, probability, "probability")?,
    })
}

impl FaultPlan {
    /// Parses a plan from the TOML subset described at module level and
    /// validates it against a cluster of `num_disks` disks, attributing
    /// every semantic error to the 1-based line of the table that caused
    /// it — the error a CLI should show when a fault plan references disks
    /// the instance does not have.
    ///
    /// # Errors
    ///
    /// Returns [`FaultPlanError::Parse`] with the offending line for
    /// malformed input, a table missing a required key, and every
    /// violation [`FaultPlan::validate`] reports.
    pub fn parse_checked(text: &str, num_disks: usize) -> Result<FaultPlan, FaultPlanError> {
        let (plan, lines) = FaultPlan::read(text)?;
        plan.check(num_disks, Some(&lines))?;
        Ok(plan)
    }

    fn read(text: &str) -> Result<(FaultPlan, TableLines), ConfError> {
        let doc = conf::read(text)?;
        let mut plan = FaultPlan::default();
        let mut lines = TableLines::default();
        for e in &doc.top.entries {
            match e.key.as_str() {
                "seed" => plan.seed = e.parse("an integer")?,
                _ => return Err(unknown_key(e)),
            }
        }
        for t in &doc.tables {
            match (t.array, t.name.as_str()) {
                (true, "crash") => {
                    plan.crashes.push(read_crash(t)?);
                    lines.crashes.push(t.line);
                }
                (true, "degrade") => {
                    plan.degradations.push(read_degrade(t)?);
                    lines.degradations.push(t.line);
                }
                (false, "flaky") => {
                    plan.flaky = Some(read_flaky(t)?);
                    lines.flaky = t.line;
                }
                _ => return Err(t.error(format!("unknown table `{}`", t.header()))),
            }
        }
        Ok((plan, lines))
    }

    /// Validates the plan against a cluster of `num_disks` disks.
    ///
    /// # Errors
    ///
    /// Returns [`FaultPlanError::Invalid`] for out-of-range disks,
    /// non-finite or negative times, degradation factors outside `(0, 1)`,
    /// recovery before onset, crash replacements that are themselves
    /// crashed, repeat crashes of one disk, or a flaky probability outside
    /// `[0, 1]`.
    pub fn validate(&self, num_disks: usize) -> Result<(), FaultPlanError> {
        self.check(num_disks, None)
    }

    /// The one semantic checker behind [`FaultPlan::validate`] (no lines:
    /// errors are [`FaultPlanError::Invalid`]) and
    /// [`FaultPlan::parse_checked`] (the tables' header lines: errors are
    /// [`FaultPlanError::Parse`] on the offending table).
    fn check(&self, num_disks: usize, lines: Option<&TableLines>) -> Result<(), FaultPlanError> {
        let fail = |line: Option<usize>, message: String| {
            Err(match line {
                Some(line) => FaultPlanError::Parse { line, message },
                None => FaultPlanError::Invalid(message),
            })
        };
        let out_of_range = |what: &str, d: NodeId| {
            format!("{what} disk {d} out of range (cluster has {num_disks} disks)")
        };
        let bad_time = |t: f64| !t.is_finite() || t < 0.0;
        let mut crashed = vec![false; num_disks];
        for (i, c) in self.crashes.iter().enumerate() {
            let line = lines.map(|l| l.crashes[i]);
            if c.disk.index() >= num_disks {
                return fail(line, out_of_range("crash", c.disk));
            }
            if bad_time(c.time) {
                return fail(line, format!("crash time {} invalid", c.time));
            }
            if crashed[c.disk.index()] {
                return fail(line, format!("disk {} crashes twice", c.disk));
            }
            crashed[c.disk.index()] = true;
        }
        for (i, c) in self.crashes.iter().enumerate() {
            let line = lines.map(|l| l.crashes[i]);
            if let Some(r) = c.replacement {
                if r.index() >= num_disks {
                    return fail(line, out_of_range("replacement", r));
                }
                if crashed[r.index()] {
                    return fail(
                        line,
                        format!("replacement {r} for disk {} is itself crashed", c.disk),
                    );
                }
            }
        }
        for (i, d) in self.degradations.iter().enumerate() {
            let line = lines.map(|l| l.degradations[i]);
            if d.disk.index() >= num_disks {
                return fail(line, out_of_range("degrade", d.disk));
            }
            if bad_time(d.time) {
                return fail(line, format!("degrade time {} invalid", d.time));
            }
            if !(d.factor > 0.0 && d.factor < 1.0 && d.factor.is_finite()) {
                return fail(
                    line,
                    format!(
                        "degrade factor {} must be in (0, 1) — a total failure is a crash",
                        d.factor
                    ),
                );
            }
            if let Some(r) = d.recover_at {
                if bad_time(r) {
                    return fail(line, format!("recover_at time {r} invalid"));
                }
                if r <= d.time {
                    return fail(
                        line,
                        format!("recover_at {r} is not after onset {}", d.time),
                    );
                }
            }
        }
        if let Some(f) = &self.flaky {
            if !(0.0..=1.0).contains(&f.probability) || !f.probability.is_finite() {
                return fail(
                    lines.map(|l| l.flaky),
                    format!("flaky probability {} must be in [0, 1]", f.probability),
                );
            }
        }
        Ok(())
    }

    /// Compiles the plan to a timeline sorted by `(time, kind, disk)` —
    /// bandwidth changes before crashes at equal timestamps — so the
    /// apply order is canonical regardless of declaration order.
    #[must_use]
    pub fn timeline(&self) -> Vec<FaultEvent> {
        let mut events = Vec::new();
        for d in &self.degradations {
            events.push(FaultEvent {
                time: d.time,
                action: FaultAction::SetBandwidthFactor(d.disk, d.factor),
            });
            if let Some(r) = d.recover_at {
                events.push(FaultEvent {
                    time: r,
                    action: FaultAction::SetBandwidthFactor(d.disk, 1.0),
                });
            }
        }
        for c in &self.crashes {
            events.push(FaultEvent {
                time: c.time,
                action: FaultAction::Crash(c.disk, c.replacement),
            });
        }
        events.sort_by(|a, b| {
            let key = |e: &FaultEvent| match e.action {
                FaultAction::SetBandwidthFactor(d, f) => (e.time, 0u8, d.index(), f),
                FaultAction::Crash(d, _) => (e.time, 1u8, d.index(), 0.0),
            };
            let (ta, ka, da, fa) = key(a);
            let (tb, kb, db, fb) = key(b);
            ta.total_cmp(&tb)
                .then(ka.cmp(&kb))
                .then(da.cmp(&db))
                .then(fa.total_cmp(&fb))
        });
        events
    }

    /// Whether the plan injects nothing at all.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.crashes.is_empty()
            && self.degradations.is_empty()
            && self.flaky.map_or(true, |f| f.probability == 0.0)
    }
}

/// The seeded flaky-transfer coin: attempt `attempt` of item `item` fails
/// iff a splitmix64-style hash of `(seed, item, attempt)` lands below
/// `probability`. Pure and deterministic — the executor's reproducibility
/// guarantee rests on it.
#[must_use]
pub fn attempt_fails(seed: u64, item: u64, attempt: u64, probability: f64) -> bool {
    if probability <= 0.0 {
        return false;
    }
    if probability >= 1.0 {
        return true;
    }
    let mut x = seed
        ^ item.wrapping_mul(0x9E37_79B9_7F4A_7C15)
        ^ attempt.wrapping_mul(0xD1B5_4A32_D192_ED03);
    x ^= x >> 30;
    x = x.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x ^= x >> 27;
    x = x.wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^= x >> 31;
    // Top 53 bits -> uniform in [0, 1) with exact f64 arithmetic.
    let unit = (x >> 11) as f64 / (1u64 << 53) as f64;
    unit < probability
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = "\
# everything that will go wrong, up front
seed = 7

[[degrade]]
disk = 1
time = 2.0
factor = 0.25
recover_at = 6.0

[[crash]]
disk = 3
time = 4.0
replacement = 5

[[crash]]
disk = 0
time = 9.0

[flaky]
probability = 0.05
";

    #[test]
    fn parses_the_sample_plan() {
        let plan = FaultPlan::parse_checked(SAMPLE, 6).unwrap();
        assert_eq!(plan.seed, 7);
        assert_eq!(plan.crashes.len(), 2);
        assert_eq!(plan.crashes[0].replacement, Some(NodeId::new(5)));
        assert_eq!(plan.crashes[1].replacement, None);
        assert_eq!(plan.degradations.len(), 1);
        assert_eq!(plan.degradations[0].recover_at, Some(6.0));
        assert_eq!(plan.flaky, Some(FlakySpec { probability: 0.05 }));
        plan.validate(6).unwrap();
    }

    #[test]
    fn parse_errors_carry_line_numbers() {
        for (text, line, needle) in [
            ("[[explode]]\n", 1, "unknown table `[[explode]]`"),
            ("\n[mystery]\n", 2, "unknown table `[mystery]`"),
            ("[[flaky]]\n", 1, "unknown table `[[flaky]]`"),
            ("seed = many\n", 1, "seed: expected an integer"),
            ("[[crash]]\ndisk = x\n", 2, "disk: expected a disk index"),
            ("[[degrade]]\ntime = soon\n", 2, "time: expected a number"),
            (
                "[[crash]]\nwhat = 1\n",
                2,
                "unknown key `what` in this table",
            ),
            ("seed = 1\ngibberish\n", 2, "key = value"),
            // Missing required keys name the header of their table.
            (
                "seed = 1\n\n[[crash]]\ntime = 1\n",
                3,
                "[[crash]] needs `disk`",
            ),
            (
                "[[degrade]]\ndisk = 0\ntime = 1\n",
                1,
                "[[degrade]] needs `factor`",
            ),
            ("[flaky]\n", 1, "[flaky] needs `probability`"),
        ] {
            let err = FaultPlan::parse_checked(text, 4).unwrap_err();
            let FaultPlanError::Parse { line: l, message } = &err else {
                panic!("{text}: expected a line-numbered error, got {err}");
            };
            assert_eq!(*l, line, "{text}: {err}");
            assert!(message.contains(needle), "{text}: {err}");
        }
    }

    #[test]
    fn validation_rejects_bad_plans() {
        let cases: &[(FaultPlan, &str)] = &[
            (
                FaultPlan {
                    crashes: vec![CrashFault {
                        disk: NodeId::new(9),
                        time: 0.0,
                        replacement: None,
                    }],
                    ..FaultPlan::default()
                },
                "out of range",
            ),
            (
                FaultPlan {
                    crashes: vec![
                        CrashFault {
                            disk: NodeId::new(0),
                            time: 0.0,
                            replacement: Some(NodeId::new(1)),
                        },
                        CrashFault {
                            disk: NodeId::new(1),
                            time: 1.0,
                            replacement: None,
                        },
                    ],
                    ..FaultPlan::default()
                },
                "itself crashed",
            ),
            (
                FaultPlan {
                    degradations: vec![DegradeFault {
                        disk: NodeId::new(0),
                        time: 0.0,
                        factor: 0.0,
                        recover_at: None,
                    }],
                    ..FaultPlan::default()
                },
                "total failure is a crash",
            ),
            (
                FaultPlan {
                    degradations: vec![DegradeFault {
                        disk: NodeId::new(0),
                        time: 5.0,
                        factor: 0.5,
                        recover_at: Some(5.0),
                    }],
                    ..FaultPlan::default()
                },
                "not after onset",
            ),
            (
                FaultPlan {
                    flaky: Some(FlakySpec { probability: 1.5 }),
                    ..FaultPlan::default()
                },
                "[0, 1]",
            ),
        ];
        for (plan, needle) in cases {
            let err = plan.validate(4).unwrap_err();
            assert!(matches!(err, FaultPlanError::Invalid(_)), "{err}");
            assert!(err.to_string().contains(needle), "{err}");
        }
    }

    #[test]
    fn parse_checked_attributes_semantic_errors_to_lines() {
        // disk 9 is out of range for a 6-disk cluster; the error points
        // at the [[crash]] header that declared it (line 8).
        let text = "\
seed = 1

[[degrade]]
disk = 1
time = 1.0
factor = 0.5

[[crash]]
disk = 9
time = 2.0
";
        let err = FaultPlan::parse_checked(text, 6).unwrap_err();
        assert_eq!(
            err,
            FaultPlanError::Parse {
                line: 8,
                message: "crash disk v9 out of range (cluster has 6 disks)".into()
            },
            "{err}"
        );

        // Double crash blames the *second* table; bad flaky blames
        // [flaky]; bad degrade factor blames its own table.
        for (text, line, needle) in [
            (
                "[[crash]]\ndisk = 0\ntime = 1.0\n\n[[crash]]\ndisk = 0\ntime = 2.0\n",
                5,
                "crashes twice",
            ),
            (
                "[[crash]]\ndisk = 0\ntime = 1.0\nreplacement = 0\n",
                1,
                "itself crashed",
            ),
            (
                "[[degrade]]\ndisk = 1\ntime = 1.0\nfactor = 1.5\n",
                1,
                "must be in (0, 1)",
            ),
            ("\n[flaky]\nprobability = 2.0\n", 2, "must be in [0, 1]"),
        ] {
            let err = FaultPlan::parse_checked(text, 4).unwrap_err();
            let FaultPlanError::Parse { line: l, message } = &err else {
                panic!("{text}: expected a line-numbered error, got {err}");
            };
            assert_eq!(*l, line, "{text}: {err}");
            assert!(message.contains(needle), "{text}: {err}");
        }
    }

    #[test]
    fn validate_and_parse_checked_share_one_checker() {
        // The same violation reads as `Invalid` without lines and as a
        // line-numbered `Parse` error from the checked parse.
        let text = "[[degrade]]\ndisk = 0\ntime = 3.0\nfactor = 0.5\nrecover_at = 2.0\n";
        let checked = FaultPlan::parse_checked(text, 4).unwrap_err();
        let plan = FaultPlan {
            degradations: vec![DegradeFault {
                disk: NodeId::new(0),
                time: 3.0,
                factor: 0.5,
                recover_at: Some(2.0),
            }],
            ..FaultPlan::default()
        };
        let FaultPlanError::Invalid(message) = plan.validate(4).unwrap_err() else {
            panic!("validate must not invent a line");
        };
        assert_eq!(checked, FaultPlanError::Parse { line: 1, message });
    }

    #[test]
    fn timeline_is_canonically_ordered() {
        let plan = FaultPlan::parse_checked(SAMPLE, 6).unwrap();
        let tl = plan.timeline();
        let times: Vec<f64> = tl.iter().map(|e| e.time).collect();
        assert_eq!(times, vec![2.0, 4.0, 6.0, 9.0]);
        // Same-timestamp ties: bandwidth changes before crashes, then by
        // disk index — independent of declaration order.
        let a = FaultPlan {
            crashes: vec![CrashFault {
                disk: NodeId::new(2),
                time: 1.0,
                replacement: None,
            }],
            degradations: vec![DegradeFault {
                disk: NodeId::new(0),
                time: 1.0,
                factor: 0.5,
                recover_at: None,
            }],
            ..FaultPlan::default()
        };
        let tl = a.timeline();
        assert!(matches!(tl[0].action, FaultAction::SetBandwidthFactor(..)));
        assert!(matches!(tl[1].action, FaultAction::Crash(..)));
    }

    #[test]
    fn flaky_coin_is_deterministic_and_roughly_calibrated() {
        for &(seed, item, attempt, p) in
            &[(1u64, 2u64, 3u64, 0.3f64), (42, 0, 1, 0.5), (7, 9, 2, 0.01)]
        {
            assert_eq!(
                attempt_fails(seed, item, attempt, p),
                attempt_fails(seed, item, attempt, p)
            );
        }
        assert!(!attempt_fails(1, 1, 1, 0.0));
        assert!(attempt_fails(1, 1, 1, 1.0));
        let fails = (0..10_000)
            .filter(|&i| attempt_fails(99, i, 1, 0.2))
            .count();
        assert!(
            (1_600..=2_400).contains(&fails),
            "p=0.2 over 10k trials gave {fails} failures"
        );
    }

    #[test]
    fn empty_plan_detection() {
        assert!(FaultPlan::default().is_empty());
        assert!(FaultPlan {
            flaky: Some(FlakySpec { probability: 0.0 }),
            ..FaultPlan::default()
        }
        .is_empty());
        assert!(!FaultPlan::parse_checked(SAMPLE, 6).unwrap().is_empty());
    }
}
