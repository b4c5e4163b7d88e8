//! A figure binary that prints a `[FAIL]` line must not exit 0: the shape
//! checks are the figures' acceptance criteria, and CI runs the binaries
//! for their exit status. A check can only be made on the handle
//! `figure` lends its body, and `figure`'s value is what `main` returns.

use augur_bench::figure;
use std::process::ExitCode;

#[test]
fn a_failed_check_exits_1() {
    let code = figure(|c| {
        c.check("holds", true, "as the paper has it");
        c.check("forced", false, "a shape regression");
        c.check("holds too", true, "a later pass does not clear the failure");
    });
    assert_eq!(code, ExitCode::FAILURE);
}

#[test]
fn passing_checks_exit_0() {
    let code = figure(|c| c.check("holds", true, "as the paper has it"));
    assert_eq!(code, ExitCode::SUCCESS);
}

/// `fig3_alpha_sweep` once made its checks and returned `()`, so its
/// `[FAIL]` lines exited 0. Every figure binary's `main` is the one line
/// that hands `figure`'s exit code to the process.
#[test]
fn every_figure_main_returns_figures_exit_code() {
    let bins = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("src/bin");
    let mut figures = 0;
    for entry in std::fs::read_dir(&bins).expect("list src/bin") {
        let path = entry.expect("read src/bin entry").path();
        if path.file_name().is_some_and(|name| name == "sweep.rs") {
            continue;
        }
        let source = std::fs::read_to_string(&path).expect("read a figure binary");
        assert!(
            source.contains("fn main() -> ExitCode {\n    figure(run)\n}\n"),
            "{} does not exit through `figure`",
            path.display()
        );
        figures += 1;
    }
    assert_eq!(figures, 9);
}
