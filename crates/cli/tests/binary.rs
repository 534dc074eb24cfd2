//! End-to-end tests of the actual `dmig` binary.

use std::process::{Command, Stdio};

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

#[test]
fn help_exits_zero() {
    let (code, stdout) = dmig(&["help"]);
    assert_eq!(code, 0);
    assert!(stdout.contains("usage"));
}

#[test]
fn unknown_command_exits_nonzero() {
    let (code, stdout) = dmig(&["bogus"]);
    assert_eq!(code, 1);
    assert!(stdout.contains("unknown command"));
}

#[test]
fn generate_pipe_solve_roundtrip() {
    let (code, instance) = dmig(&["generate", "k3", "4", "2"]);
    assert_eq!(code, 0);
    let path = std::env::temp_dir().join(format!("dmig-bin-test-{}.dmig", std::process::id()));
    std::fs::write(&path, &instance).unwrap();
    let path = path.to_string_lossy().into_owned();

    let (code, solved) = dmig(&["solve", &path, "--solver", "even-optimal"]);
    assert_eq!(code, 0, "{solved}");
    assert!(
        solved.contains("4 rounds"),
        "Fig. 2 with M=4, c=2 is 4 rounds:\n{solved}"
    );

    let (code, bounds) = dmig(&["bounds", &path]);
    assert_eq!(code, 0);
    assert!(bounds.contains("LB1"));

    let (code, compare) = dmig(&["compare", &path]);
    assert_eq!(code, 0);
    assert!(compare.contains("homogeneous"));

    let (code, sim) = dmig(&["simulate", &path]);
    assert_eq!(code, 0);
    assert!(sim.contains("wall-clock time 8.000"), "{sim}");
    std::fs::remove_file(std::path::Path::new(&path)).ok();
}

#[test]
fn closed_stdout_exits_quietly() {
    // `dmig generate … | head -0`: the reader is gone before the first
    // write, so the write fails with a broken pipe.
    let mut child = Command::new(env!("CARGO_BIN_EXE_dmig"))
        .args(["generate", "uniform", "50", "20000", "2", "4"])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("binary runs");
    drop(child.stdout.take());
    let out = child.wait_with_output().expect("binary exits");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(0), "stderr: {stderr}");
    assert!(stderr.is_empty(), "stderr: {stderr}");
}
