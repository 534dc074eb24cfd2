//! Line-soup fuzzing of the three formats built on `dmig_obs::conf`: fault
//! plans, availability models and gate rules.
//!
//! Each input is a random mix of headers (valid, unknown and malformed),
//! `key = value` lines over every format's keys plus unknown ones, numeric,
//! quoted and garbage values, comments, blank lines, and — so that some
//! inputs get all the way through — whole well-formed fault-plan tables.
//! Whatever the mix, no parser may panic, every line-numbered error must
//! point into the input, and a fault plan the checked parse accepts must
//! pass `validate` on its own.

use dmig_obs::gate::parse_rules;
use dmig_sim::{FaultPlan, FaultPlanError};
use dmig_workloads::availability::{AvailabilityError, AvailabilityModel};
use proptest::prelude::*;
use proptest::test_runner::TestRng;

const HEADERS: &[&str] = &[
    "[[crash]]",
    "[[degrade]]",
    "[flaky]",
    "[[domain]]",
    "[spares]",
    "[[rule]]",
    "[ flaky ]",
    "[[ crash ]]",
    "[mystery]",
    "[[crash]",
    "[open",
    "[]",
    "[[]]",
];

const KEYS: &[&str] = &[
    "seed",
    "disk",
    "time",
    "replacement",
    "factor",
    "recover_at",
    "probability",
    "horizon",
    "name",
    "disks",
    "mode",
    "mtbf",
    "mttr",
    "correlated",
    "expr",
    "when",
    "tolerance",
    "default_tolerance",
    "bogus",
    "",
];

const VALUES: &[&str] = &[
    "0",
    "1",
    "3",
    "7",
    "0.5",
    "2.5",
    "-1",
    "1e9",
    "nan",
    "inf",
    "x",
    "",
    "18446744073709551616",
    "\"0-3,7\"",
    "\"3-1\"",
    "\"crash\"",
    "\"degrade\"",
    "true",
    "false",
    "\"1 == 1\"",
    "\"rack#1\"",
    "\"unterminated",
    "\"a \\\" b\"",
];

const TAILS: &[&str] = &["", " # comment", " # \"quoted\" note", "   "];

const GARBAGE: &[&str] = &["gibberish", "= 5", "==", "\"", "]]", "#", "   # only"];

/// One chunk of soup: a single random line, or a well-formed fault-plan
/// table with random disks and times.
fn chunk() -> impl Strategy<Value = String> {
    (0usize..8, 0usize..64, 0usize..64, 0usize..64, 0usize..4).prop_map(|(kind, a, b, c, t)| {
        let tail = TAILS[t];
        let disk = a % 9;
        let time = VALUES[b % 8];
        match kind {
            0 => String::new(),
            1 => format!("# {}", VALUES[a % VALUES.len()]),
            2 => format!("{}{tail}", HEADERS[a % HEADERS.len()]),
            3 | 4 => format!(
                "{} = {}{tail}",
                KEYS[a % KEYS.len()],
                VALUES[b % VALUES.len()]
            ),
            5 => GARBAGE[a % GARBAGE.len()].to_string(),
            6 => format!(
                "[[crash]]\ndisk = {disk}\ntime = {time}{tail}\nreplacement = {}",
                c % 9
            ),
            _ => format!(
                "[[degrade]]\ndisk = {disk}\ntime = {time}\nfactor = 0.{}\nrecover_at = {}{tail}",
                c % 10,
                VALUES[c % 8]
            ),
        }
    })
}

fn soup() -> impl Strategy<Value = String> {
    proptest::collection::vec(chunk(), 0..24).prop_map(|chunks| chunks.join("\n"))
}

/// Checks the three parsers on `text`; returns whether the fault plan was
/// accepted.
fn check_all(text: &str, disks: usize) -> Result<bool, TestCaseError> {
    let lines = text.lines().count();
    let in_range = |line: usize| (1..=lines).contains(&line);
    let accepted = match FaultPlan::parse_checked(text, disks) {
        Ok(plan) => {
            prop_assert_eq!(plan.validate(disks), Ok(()), "accepted plan:\n{}", text);
            true
        }
        Err(FaultPlanError::Parse { line, message }) => {
            prop_assert!(
                in_range(line),
                "line {line} ({message}) of {lines}:\n{text}"
            );
            false
        }
        Err(e) => {
            return Err(TestCaseError::fail(format!(
                "unnumbered error {e}:\n{text}"
            )))
        }
    };
    match AvailabilityModel::parse(text) {
        Ok(_) => {}
        Err(AvailabilityError::Parse { line, message }) => {
            prop_assert!(
                in_range(line),
                "line {line} ({message}) of {lines}:\n{text}"
            );
        }
        Err(e) => {
            return Err(TestCaseError::fail(format!(
                "unnumbered error {e}:\n{text}"
            )))
        }
    }
    if let Err(e) = parse_rules(text) {
        let line: Option<usize> = e
            .strip_prefix("line ")
            .and_then(|rest| rest.split(':').next())
            .and_then(|n| n.parse().ok());
        prop_assert!(line.is_some_and(in_range), "`{e}` of {lines}:\n{text}");
    }
    Ok(accepted)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn parsers_survive_line_soup(text in soup(), disks in 1usize..10) {
        check_all(&text, disks)?;
    }
}

/// The soup is not all rejects: the acceptance property above has
/// plans to check.
#[test]
fn soup_yields_accepted_fault_plans() {
    let mut rng = TestRng::from_seed(14);
    let strategy = soup();
    let accepted = (0..512)
        .filter(|_| check_all(&strategy.generate(&mut rng), 9).expect("properties hold"))
        .count();
    assert!(accepted >= 10, "only {accepted} of 512 soups parsed");
}
