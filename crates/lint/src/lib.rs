#![forbid(unsafe_code)]
//! `augur-lint` — a dependency-free determinism & invariant
//! static-analysis pass for the augur workspace.
//!
//! The repo's core guarantee is *byte-identical output*: sweeps must
//! produce the same CSV at any `--workers`, belief forks must replay
//! bit-for-bit, and work counters must be pure functions of the
//! simulated work. CI enforces that dynamically (CSV diffs, counter
//! drift checks) — this crate enforces it statically, catching the bug
//! class at the source level before a seed happens to expose it:
//!
//! * **D001** wall-clock hygiene — `std::time::{Instant, SystemTime}`
//!   only inside `augur_sim::perf`;
//! * **D002** thread-identity hygiene — no `thread::current()` /
//!   `ThreadId`;
//! * **D003** hash-collection hygiene — no `HashMap`/`HashSet` in the
//!   crates whose data reaches reports, traces, or belief state;
//! * **D004** hasher hygiene — no `DefaultHasher`/`BuildHasherDefault`
//!   outside tests; identity hashes use `augur_sim::StableHasher`;
//! * **R010** RNG hygiene — `SimRng`/`derive_seed` are the only
//!   randomness sources;
//! * **P020** panic hygiene — decode/validate paths contracted to
//!   return positioned errors must not `unwrap`/`expect`/`panic!`;
//! * **C030** counter coverage — every `WorkCounters` field has a bump
//!   helper, a production increment site, and a pinned value in
//!   `crates/scenario/tests/work_counters.rs`;
//! * **W000** waiver hygiene — waivers anchor to exact `file:line`
//!   positions and fail the build when stale.
//!
//! The scanner is a lightweight lexer ([`lexer`]) — raw strings, nested
//! block comments, char-literal/lifetime disambiguation, and
//! `#[cfg(test)]` gating — in the spirit of the repo's self-contained
//! TOML parser: no external dependencies, positioned diagnostics.

pub mod lexer;
pub mod rules;
pub mod waivers;

pub use rules::{RuleInfo, SourceFile, Violation, RULES};
pub use waivers::{apply_waivers, parse_waivers, Waiver, WaiverParseError};

use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// Directories scanned under the workspace root, relative. `crates/*`
/// is expanded per crate; integration-test and fixture trees are
/// deliberately excluded (test code may break production invariants),
/// except [`rules::PIN_FILE`], which C030 reads.
const SCAN_ROOTS: &[&str] = &["src", "examples"];

/// Collect every production `.rs` file under the workspace root:
/// `src/`, `examples/`, and each `crates/<name>/src/`, plus the counter
/// pin file — lexed and test-gated, sorted by path for deterministic
/// diagnostics.
pub fn collect_sources(root: &Path) -> io::Result<Vec<SourceFile>> {
    let mut paths: Vec<PathBuf> = Vec::new();
    for dir in SCAN_ROOTS {
        let d = root.join(dir);
        if d.is_dir() {
            walk_rs(&d, &mut paths)?;
        }
    }
    let crates = root.join("crates");
    if crates.is_dir() {
        let mut crate_dirs: Vec<PathBuf> = fs::read_dir(&crates)?
            .collect::<Result<Vec<_>, _>>()?
            .into_iter()
            .map(|e| e.path())
            .filter(|p| p.is_dir())
            .collect();
        crate_dirs.sort();
        for c in crate_dirs {
            let src = c.join("src");
            if src.is_dir() {
                walk_rs(&src, &mut paths)?;
            }
        }
    }
    let pins = root.join(rules::PIN_FILE);
    if pins.is_file() {
        paths.push(pins);
    }
    paths.sort();
    let mut files = Vec::with_capacity(paths.len());
    for p in paths {
        let src = fs::read_to_string(&p)?;
        let rel = p
            .strip_prefix(root)
            .unwrap_or(&p)
            .components()
            .map(|c| c.as_os_str().to_string_lossy())
            .collect::<Vec<_>>()
            .join("/");
        files.push(SourceFile {
            toks: lexer::lex_gated(&src),
            rel_path: rel,
            src,
        });
    }
    Ok(files)
}

fn walk_rs(dir: &Path, out: &mut Vec<PathBuf>) -> io::Result<()> {
    for entry in fs::read_dir(dir)? {
        let p = entry?.path();
        if p.is_dir() {
            walk_rs(&p, out)?;
        } else if p.extension().is_some_and(|e| e == "rs") {
            out.push(p);
        }
    }
    Ok(())
}

/// Everything a lint run produces.
pub struct LintReport {
    /// Violations surviving waiver application (stale waivers
    /// included), sorted by position.
    pub violations: Vec<Violation>,
    /// How many violations the waiver file suppressed.
    pub waived: usize,
    /// Number of files scanned.
    pub files_scanned: usize,
}

/// Lint failure that is *not* a rule violation: unreadable tree or a
/// malformed waiver file. Exit 1, distinct from the violation exit 2.
#[derive(Debug)]
pub enum LintError {
    /// Filesystem failure while scanning.
    Io(io::Error),
    /// The waiver file does not parse.
    Waivers(WaiverParseError),
}

impl std::fmt::Display for LintError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LintError::Io(e) => write!(f, "i/o error: {e}"),
            LintError::Waivers(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for LintError {}

impl From<io::Error> for LintError {
    fn from(e: io::Error) -> LintError {
        LintError::Io(e)
    }
}

/// Run the full pass: scan `root`, apply the waiver file (if any).
/// `waiver_file` is the path *displayed* in stale-waiver diagnostics.
pub fn run(root: &Path, waiver_file: Option<&Path>) -> Result<LintReport, LintError> {
    let files = collect_sources(root)?;
    let files_scanned = files.len();
    let raw = rules::scan(&files);
    let before = raw.len();
    let (violations, waived) = match waiver_file {
        Some(wf) => {
            let text = fs::read_to_string(wf)?;
            let ws = parse_waivers(&text).map_err(LintError::Waivers)?;
            let display = wf
                .strip_prefix(root)
                .unwrap_or(wf)
                .to_string_lossy()
                .into_owned();
            let left = apply_waivers(raw, &ws, &display);
            let stale = left.iter().filter(|v| v.rule == "W000").count();
            let waived = before + stale - left.len();
            (left, waived)
        }
        None => (raw, 0),
    };
    Ok(LintReport {
        violations,
        waived,
        files_scanned,
    })
}
