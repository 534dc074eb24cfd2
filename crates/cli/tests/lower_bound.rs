//! The printed lower bound and the `solve.lb*` gauges, checked through the
//! `dmig` binary. `dmig solve` prints `Δ'` as `max(Δ', Γ')` without running
//! the `Γ'` min-cut, and `--metrics-out` snapshots carry `solve.lb2` only
//! with `--explain`. Each command runs in a fresh process, so a snapshot
//! holds exactly the keys that command set.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::Command;

use dmig_obs::Value;

fn dmig(args: &[&str]) -> (i32, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_dmig"))
        .args(args)
        .output()
        .expect("binary runs");
    (
        out.status.code().unwrap_or(-1),
        String::from_utf8_lossy(&out.stdout).into_owned(),
    )
}

fn temp_path(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("dmig-lb-test-{name}-{}", std::process::id()))
}

/// Writes `dmig generate ARGS` to a temp file and returns its path.
fn generate(name: &str, args: &[&str]) -> String {
    let mut full = vec!["generate"];
    full.extend_from_slice(args);
    let (code, text) = dmig(&full);
    assert_eq!(code, 0, "{args:?}: {text}");
    let path = temp_path(name);
    std::fs::write(&path, text).unwrap();
    path.to_string_lossy().into_owned()
}

/// Even capacities: the §IV solver's instance family.
fn clustered(name: &str) -> String {
    generate(name, &["clustered", "40", "400", "4", "--seed", "3"])
}

/// The number after `prefix` in `stdout`.
fn number_after(stdout: &str, prefix: &str) -> u64 {
    let rest = stdout
        .split_once(prefix)
        .unwrap_or_else(|| panic!("no `{prefix}` in:\n{stdout}"))
        .1;
    let digits: String = rest.chars().take_while(char::is_ascii_digit).collect();
    digits
        .parse()
        .unwrap_or_else(|_| panic!("no number after `{prefix}`"))
}

/// `(LB1, LB2)` as printed by `dmig bounds`.
fn printed_bounds(path: &str) -> (u64, u64) {
    let (code, out) = dmig(&["bounds", path]);
    assert_eq!(code, 0, "{out}");
    (
        number_after(&out, "⌈d_v/c_v⌉): "),
        number_after(&out, "LB2 (Γ'): "),
    )
}

#[test]
fn solve_lower_bound_is_max_of_printed_bounds() {
    for path in [
        clustered("clustered"),
        generate(
            "uniform",
            &["uniform", "30", "240", "1", "5", "--seed", "7"],
        ),
        generate("remove", &["remove", "12", "3", "120", "3", "--seed", "5"]),
    ] {
        let (code, solved) = dmig(&["solve", &path]);
        assert_eq!(code, 0, "{solved}");
        let (lb1, lb2) = printed_bounds(&path);
        assert_eq!(
            number_after(&solved, "(lower bound "),
            lb1.max(lb2),
            "{path}"
        );
        std::fs::remove_file(&path).ok();
    }
}

/// Runs `simulate --metrics-out` (plus `extra`) on `instance` and gates
/// the snapshot with the repository's `ci-rules.toml`. Returns the
/// snapshot's gauges and the gate's exit code and output.
fn gated_snapshot(
    instance: &str,
    tag: &str,
    extra: &[&str],
) -> (BTreeMap<String, f64>, i32, String) {
    let snap = temp_path(tag).to_string_lossy().into_owned();
    let mut args = vec!["simulate", instance, "--metrics-out", snap.as_str()];
    args.extend_from_slice(extra);
    let (code, out) = dmig(&args);
    assert_eq!(code, 0, "{out}");
    let doc = Value::parse(&std::fs::read_to_string(&snap).unwrap()).unwrap();
    let gauges = doc
        .get_path("gauges")
        .and_then(Value::as_object)
        .expect("snapshot has gauges")
        .iter()
        .filter_map(|(k, v)| Some((k.clone(), v.as_f64()?)))
        .collect();
    let rules = concat!(env!("CARGO_MANIFEST_DIR"), "/../../ci-rules.toml");
    let (gate_code, gate_out) = dmig(&["obs", "gate", rules, &snap]);
    std::fs::remove_file(&snap).ok();
    (gauges, gate_code, gate_out)
}

const TWO_X_RULE: &str = "PASS  rounds within 2x the paper lower bound max(LB1, LB2)\n";

#[test]
fn plain_snapshot_gates_on_lb1_without_lb2() {
    let path = clustered("plain.dmig");
    let (gauges, code, gate) = gated_snapshot(&path, "plain.json", &[]);
    assert!(!gauges.contains_key("solve.lb2"), "{gauges:?}");
    assert_eq!(
        gauges.get("solve.lb1"),
        Some(&(printed_bounds(&path).0 as f64))
    );
    assert_eq!(code, 0, "{gate}");
    assert!(gate.contains(TWO_X_RULE), "{gate}");
    std::fs::remove_file(&path).ok();
}

#[test]
fn explain_snapshot_carries_lb2() {
    let path = clustered("explain.dmig");
    let (gauges, code, gate) = gated_snapshot(&path, "explain.json", &["--explain"]);
    let (lb1, lb2) = printed_bounds(&path);
    assert_eq!(gauges.get("solve.lb1"), Some(&(lb1 as f64)));
    assert_eq!(gauges.get("solve.lb2"), Some(&(lb2 as f64)));
    assert_eq!(code, 0, "{gate}");
    assert!(gate.contains(TWO_X_RULE), "{gate}");
    assert!(
        gate.contains("PASS  explained binding bound equals max(solve.lb1, solve.lb2)\n"),
        "{gate}"
    );
    std::fs::remove_file(&path).ok();
}
