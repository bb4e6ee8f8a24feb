//! The CLI's argument contract: unknown input is a usage error (exit 2)
//! that runs nothing, so a stale flag or a typo in an id list can never
//! silently turn into a full `all` run.

use std::process::{Command, Output};

fn eval(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_distscroll-eval"))
        .args(args)
        .output()
        .expect("the eval binary runs")
}

fn assert_usage_error(args: &[&str]) {
    let out = eval(args);
    assert_eq!(out.status.code(), Some(2), "{args:?} must be a usage error");
    assert!(out.stdout.is_empty(), "{args:?} must run no experiment");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("usage:"), "{args:?} stderr: {stderr}");
}

#[test]
fn an_unknown_flag_is_a_usage_error() {
    let report = std::env::temp_dir().join(format!("cli-stale-flag-{}.json", std::process::id()));
    let report_arg = report.to_str().expect("utf-8 temp path");
    assert_usage_error(&["--effort", "quick", "--bench-out", report_arg, "all"]);
    assert!(!report.exists(), "a rejected flag must write nothing");
}

#[test]
fn an_unknown_id_next_to_all_is_a_usage_error() {
    assert_usage_error(&["--effort", "quick", "bogus", "all"]);
}

#[test]
fn a_known_id_runs() {
    let out = eval(&["--only", "F4", "--effort", "quick"]);
    assert_eq!(out.status.code(), Some(0));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains("== summary: 1/1 experiments hold the paper's shape =="),
        "{stdout}"
    );
}
