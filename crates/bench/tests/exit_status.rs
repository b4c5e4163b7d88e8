//! A figure binary that prints a `[FAIL]` line must not exit 0: the shape
//! checks are the figures' acceptance criteria, and CI runs the binaries
//! for their exit status. `check` and `finish` are exercised the way a
//! figure's `main` uses them, in a child process — this test binary run
//! again with one of the two `child_*` bodies selected.

use augur_bench::{check, finish};
use std::process::{Command, Output};

#[test]
#[ignore = "a child-process body, run by the tests below"]
fn child_with_a_failed_check() {
    check("holds", true, "as the paper has it");
    check("forced", false, "a shape regression");
    check("holds too", true, "a later pass does not clear the failure");
    finish();
}

#[test]
#[ignore = "a child-process body, run by the tests below"]
fn child_with_passing_checks() {
    check("holds", true, "as the paper has it");
    finish();
}

fn run_child(body: &str) -> Output {
    let this = std::env::current_exe().expect("the test binary's own path");
    Command::new(this)
        .args([body, "--exact", "--ignored", "--nocapture"])
        .output()
        .expect("spawn the child test process")
}

#[test]
fn a_failed_check_exits_1() {
    let out = run_child("child_with_a_failed_check");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("[FAIL] forced"), "{stdout}");
    assert!(stdout.contains("[PASS] holds too"), "{stdout}");
    assert_eq!(out.status.code(), Some(1), "{stdout}");
}

#[test]
fn passing_checks_exit_0() {
    let out = run_child("child_with_passing_checks");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("[PASS] holds"), "{stdout}");
    assert_eq!(out.status.code(), Some(0), "{stdout}");
}
