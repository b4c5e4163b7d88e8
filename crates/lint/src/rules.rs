//! The rule set: project invariants expressed as token-pattern checks.
//!
//! Every rule produces positioned diagnostics (`file:line:col`, rule
//! id, message). Rules never fire on test-gated tokens (`#[cfg(test)]`
//! / `#[test]` items) — test code may panic, iterate hash maps, and
//! spawn threads at will.

use crate::lexer::{Tok, TokKind};

/// One diagnostic: a rule fired at a position.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// Path relative to the workspace root, `/`-separated.
    pub path: String,
    /// 1-based line.
    pub line: u32,
    /// 1-based column.
    pub col: u32,
    /// Stable rule id (see [`RULES`]).
    pub rule: &'static str,
    /// Human-readable explanation.
    pub message: String,
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}:{}:{}: {}: {}",
            self.path, self.line, self.col, self.rule, self.message
        )
    }
}

/// A rule's id and one-line contract, for `--list-rules`.
pub struct RuleInfo {
    /// Stable id used in diagnostics and waiver entries.
    pub id: &'static str,
    /// What the rule enforces.
    pub summary: &'static str,
}

/// Every rule the scanner knows, in diagnostic-id order.
pub const RULES: &[RuleInfo] = &[
    RuleInfo {
        id: "D001",
        summary: "wall-clock hygiene: std::time::{Instant, SystemTime} only inside \
                  crates/sim/src/perf.rs (use augur_sim::perf::Stopwatch)",
    },
    RuleInfo {
        id: "D002",
        summary: "thread-identity hygiene: no thread::current()/ThreadId — output must \
                  not depend on which thread ran the work",
    },
    RuleInfo {
        id: "D003",
        summary: "hash-collection hygiene: no HashMap/HashSet in belief/report crates \
                  (inference, core, scenario, trace) — iteration order is seeded per \
                  process; use BTreeMap/BTreeSet/sorted Vec, or waive with a \
                  determinism justification",
    },
    RuleInfo {
        id: "D004",
        summary: "hasher hygiene: no DefaultHasher/BuildHasherDefault outside tests — \
                  std does not guarantee DefaultHasher's algorithm, and identity \
                  hashes reach branch order and every CSV; use augur_sim::StableHasher",
    },
    RuleInfo {
        id: "R010",
        summary: "RNG hygiene: the only randomness sources are augur_sim::SimRng and \
                  derive_seed (no rand/thread_rng/RandomState/OsRng/getrandom)",
    },
    RuleInfo {
        id: "P020",
        summary: "panic hygiene: no unwrap()/expect()/panic!/unreachable! in decode/\
                  validate paths that must return positioned errors (scenario::config, \
                  scenario::grid, scenario::traces, topo::graph, core::multi)",
    },
    RuleInfo {
        id: "C030",
        summary: "counter coverage: every WorkCounters field needs a bump helper, an \
                  increment site outside augur_sim::perf, and a pinned value in \
                  crates/scenario/tests/work_counters.rs",
    },
    RuleInfo {
        id: "C031",
        summary: "event coverage: every obs EventKind variant needs at least one \
                  production emission site outside crates/obs — an event nothing \
                  emits is dead schema",
    },
    RuleInfo {
        id: "W000",
        summary: "waiver hygiene: every waiver entry must match a live violation at \
                  its exact file:line (stale waivers fail the build)",
    },
];

/// The one file allowed to touch `std::time` — the sanctioned clock.
pub const PERF_FILE: &str = "crates/sim/src/perf.rs";
/// Where counter pins live: the committed work-counter constants.
pub const PIN_FILE: &str = "crates/scenario/tests/work_counters.rs";
/// Where the structured-event schema lives: the obs event definitions.
pub const EVENT_FILE: &str = "crates/obs/src/event.rs";
/// The crate that defines (but must not be the sole emitter of) events.
pub const OBS_CRATE: &str = "crates/obs/";

/// Crates whose data flows into reports, traces, or belief state: hash
/// collections there risk iteration-order nondeterminism reaching
/// output bytes.
const HASH_SCOPE: &[&str] = &[
    "crates/inference/src/",
    "crates/core/src/",
    "crates/scenario/src/",
    "crates/trace/src/",
];

/// Decode/validate paths contracted to return positioned errors, never
/// panic: the TOML-subset config decoder, grid validation, the trace-CSV
/// loader, graph topology validation/compilation, and flow-table
/// construction.
const PANIC_SCOPE: &[&str] = &[
    "crates/scenario/src/config.rs",
    "crates/scenario/src/grid.rs",
    "crates/scenario/src/traces.rs",
    "crates/topo/src/graph.rs",
    "crates/core/src/multi.rs",
];

/// Identifiers that smell like a non-`SimRng` randomness source.
const RNG_BANNED: &[&str] = &[
    "rand",
    "thread_rng",
    "from_entropy",
    "getrandom",
    "RandomState",
    "OsRng",
    "StdRng",
    "SmallRng",
];

/// One file's lexed contents, ready for scanning.
pub struct SourceFile {
    /// Path relative to the workspace root, `/`-separated.
    pub rel_path: String,
    /// Raw source (the counter-pin check substring-searches it).
    pub src: String,
    /// Gated token stream.
    pub toks: Vec<Tok>,
}

fn live(t: &Tok) -> bool {
    !t.gated
}

fn is_ident(t: &Tok, text: &str) -> bool {
    t.kind == TokKind::Ident && t.text == text
}

/// Does the token at `i` start the given text sequence (kind-agnostic)?
fn seq_at(toks: &[Tok], i: usize, pat: &[&str]) -> bool {
    pat.iter()
        .enumerate()
        .all(|(k, p)| toks.get(i + k).is_some_and(|t| &t.text == p))
}

fn push(out: &mut Vec<Violation>, f: &SourceFile, t: &Tok, rule: &'static str, message: String) {
    out.push(Violation {
        path: f.rel_path.clone(),
        line: t.line,
        col: t.col,
        rule,
        message,
    });
}

/// Run every per-file rule over one file.
pub fn scan_file(f: &SourceFile, out: &mut Vec<Violation>) {
    let toks = &f.toks;
    let in_hash_scope = HASH_SCOPE.iter().any(|p| f.rel_path.starts_with(p));
    let in_panic_scope = PANIC_SCOPE.contains(&f.rel_path.as_str());
    let clock_exempt = f.rel_path == PERF_FILE;
    for (i, t) in toks.iter().enumerate() {
        if !live(t) || t.kind != TokKind::Ident {
            continue;
        }
        match t.text.as_str() {
            "Instant" | "SystemTime" if !clock_exempt => push(
                out,
                f,
                t,
                "D001",
                format!(
                    "std::time::{} is wall-clock: deterministic code must use \
                     augur_sim::perf::Stopwatch (diagnostic-only) or simulated Time",
                    t.text
                ),
            ),
            "ThreadId" => push(
                out,
                f,
                t,
                "D002",
                "ThreadId ties behavior to scheduling; output must be identical for \
                 any worker count"
                    .to_string(),
            ),
            "current"
                if i >= 2
                    && seq_at(toks, i - 2, &[":", ":"])
                    && i >= 3
                    && is_ident(&toks[i - 3], "thread") =>
            {
                push(
                    out,
                    f,
                    t,
                    "D002",
                    "thread::current() ties behavior to scheduling; output must be \
                     identical for any worker count"
                        .to_string(),
                )
            }
            "HashMap" | "HashSet" if in_hash_scope => push(
                out,
                f,
                t,
                "D003",
                format!(
                    "{} iteration order is seeded per process and may reach \
                     reports/traces/belief state; use BTreeMap/BTreeSet or a sorted \
                     Vec, or waive with a justification that order cannot escape",
                    t.text
                ),
            ),
            "DefaultHasher" | "BuildHasherDefault" => push(
                out,
                f,
                t,
                "D004",
                format!(
                    "identity hashes go through augur_sim::StableHasher; std does not \
                     guarantee DefaultHasher's algorithm, so `{}` cannot sit behind a \
                     pinned fingerprint or a branch order",
                    t.text
                ),
            ),
            name if RNG_BANNED.contains(&name) => push(
                out,
                f,
                t,
                "R010",
                format!(
                    "`{name}` is a randomness source outside SimRng/derive_seed; all \
                     stochastic draws must come from the seeded simulation RNG"
                ),
            ),
            "unwrap" | "expect"
                if in_panic_scope && toks.get(i + 1).is_some_and(|n| n.text == "(") =>
            {
                push(
                    out,
                    f,
                    t,
                    "P020",
                    format!(
                        "`{}()` in a decode/validate path contracted to return \
                         positioned errors; convert to an error or waive with the \
                         invariant that makes it unreachable",
                        t.text
                    ),
                )
            }
            "panic" | "unreachable"
                if in_panic_scope && toks.get(i + 1).is_some_and(|n| n.text == "!") =>
            {
                push(
                    out,
                    f,
                    t,
                    "P020",
                    format!(
                        "`{}!` in a decode/validate path contracted to return \
                         positioned errors; convert to an error or waive with the \
                         invariant that makes it unreachable",
                        t.text
                    ),
                )
            }
            _ => {}
        }
    }
}

/// Counter-coverage (C030): parse `WorkCounters` out of
/// `crates/sim/src/perf.rs`, map each field to its `count_*` bump
/// helper, and require an increment site outside the perf module plus a
/// pin (field-name mention) in [`PIN_FILE`].
pub fn scan_counters(files: &[SourceFile], out: &mut Vec<Violation>) {
    let Some(perf) = files.iter().find(|f| f.rel_path == PERF_FILE) else {
        out.push(Violation {
            path: PERF_FILE.to_string(),
            line: 1,
            col: 1,
            rule: "C030",
            message: "counter definitions not found: crates/sim/src/perf.rs is missing \
                      from the scanned tree"
                .to_string(),
        });
        return;
    };
    let fields = counter_fields(&perf.toks);
    if fields.is_empty() {
        out.push(Violation {
            path: PERF_FILE.to_string(),
            line: 1,
            col: 1,
            rule: "C030",
            message: "no `struct WorkCounters` fields found in crates/sim/src/perf.rs".to_string(),
        });
        return;
    }
    let helpers = bump_helpers(&perf.toks);
    let pins = files.iter().find(|f| f.rel_path == PIN_FILE);
    for (name, line, col) in &fields {
        let at = |message: String| Violation {
            path: PERF_FILE.to_string(),
            line: *line,
            col: *col,
            rule: "C030",
            message,
        };
        let Some(helper) = helpers.iter().find(|(_, field)| field == name) else {
            out.push(at(format!(
                "WorkCounters field `{name}` has no count_* helper bumping it"
            )));
            continue;
        };
        let fn_name = &helper.0;
        // Increment sites must live in the simulation/inference stack
        // itself, not in benchmark scaffolding.
        const INCREMENT_SCOPE: &[&str] = &[
            "crates/sim/src/",
            "crates/elements/src/",
            "crates/inference/src/",
            "crates/core/src/",
            "crates/scenario/src/",
        ];
        let incremented = files.iter().any(|f| {
            f.rel_path != PERF_FILE
                && INCREMENT_SCOPE.iter().any(|p| f.rel_path.starts_with(p))
                && f.toks.iter().enumerate().any(|(i, t)| {
                    live(t)
                        && is_ident(t, fn_name)
                        && f.toks.get(i + 1).is_some_and(|n| n.text == "(")
                        && f.toks.get(i.wrapping_sub(1)).is_none_or(|p| p.text != "fn")
                })
        });
        if !incremented {
            out.push(at(format!(
                "WorkCounters field `{name}` ({fn_name}) has no increment site outside \
                 augur_sim::perf — a counter nothing bumps measures nothing"
            )));
        }
        match pins {
            Some(p) if p.src.contains(name.as_str()) => {}
            _ => out.push(at(format!(
                "WorkCounters field `{name}` is not pinned in {PIN_FILE} — \
                 unpinned counters can drift silently"
            ))),
        }
    }
}

/// Event-coverage (C031): parse the `EventKind` variants out of
/// `crates/obs/src/event.rs` and require, for each, a live
/// `EventKind::Variant` construction site in some file outside the obs
/// crate. The obs crate defines the schema and its own tests exercise
/// every variant, so only emission sites in production code count.
pub fn scan_events(files: &[SourceFile], out: &mut Vec<Violation>) {
    let Some(events) = files.iter().find(|f| f.rel_path == EVENT_FILE) else {
        out.push(Violation {
            path: EVENT_FILE.to_string(),
            line: 1,
            col: 1,
            rule: "C031",
            message: "event definitions not found: crates/obs/src/event.rs is missing \
                      from the scanned tree"
                .to_string(),
        });
        return;
    };
    let variants = enum_variants(&events.toks, "EventKind");
    if variants.is_empty() {
        out.push(Violation {
            path: EVENT_FILE.to_string(),
            line: 1,
            col: 1,
            rule: "C031",
            message: "no `enum EventKind` variants found in crates/obs/src/event.rs".to_string(),
        });
        return;
    }
    for (name, line, col) in &variants {
        let emitted = files.iter().any(|f| {
            !f.rel_path.starts_with(OBS_CRATE)
                && f.toks.iter().enumerate().any(|(i, t)| {
                    live(t)
                        && is_ident(t, "EventKind")
                        && seq_at(&f.toks, i + 1, &[":", ":"])
                        && f.toks.get(i + 3).is_some_and(|v| is_ident(v, name))
                })
        });
        if !emitted {
            out.push(Violation {
                path: EVENT_FILE.to_string(),
                line: *line,
                col: *col,
                rule: "C031",
                message: format!(
                    "EventKind variant `{name}` has no production emission site \
                     outside {OBS_CRATE} — an event nothing emits is dead schema"
                ),
            });
        }
    }
}

/// `(variant, line, col)` for every variant of `enum <name>`, read at
/// brace depth 1 so field names inside struct variants are skipped.
fn enum_variants(toks: &[Tok], name: &str) -> Vec<(String, u32, u32)> {
    let mut variants = Vec::new();
    let Some(start) = toks
        .windows(2)
        .position(|w| is_ident(&w[0], "enum") && is_ident(&w[1], name))
    else {
        return variants;
    };
    let mut depth = 0usize;
    let mut i = start + 2;
    let mut opened = false;
    while i < toks.len() {
        let t = &toks[i];
        match t.text.as_str() {
            "{" => {
                depth += 1;
                opened = true;
            }
            "}" => {
                depth -= 1;
                if depth == 0 {
                    break;
                }
            }
            // A variant name sits at body depth, directly followed by a
            // payload (`{`/`(`), a separator (`,`), or the closing `}`.
            _ if opened
                && depth == 1
                && t.kind == TokKind::Ident
                && toks
                    .get(i + 1)
                    .is_some_and(|n| matches!(n.text.as_str(), "{" | "(" | "," | "}")) =>
            {
                variants.push((t.text.clone(), t.line, t.col));
            }
            _ => {}
        }
        i += 1;
    }
    variants
}

/// `(field, line, col)` for every field of `struct WorkCounters`.
fn counter_fields(toks: &[Tok]) -> Vec<(String, u32, u32)> {
    let mut fields = Vec::new();
    let Some(start) = toks
        .windows(2)
        .position(|w| is_ident(&w[0], "struct") && is_ident(&w[1], "WorkCounters"))
    else {
        return fields;
    };
    // Find the struct body: first '{' after the name, to its match.
    let mut depth = 0usize;
    let mut i = start + 2;
    let mut opened = false;
    while i < toks.len() {
        match toks[i].text.as_str() {
            "{" => {
                depth += 1;
                opened = true;
            }
            "}" => {
                depth -= 1;
                if depth == 0 {
                    break;
                }
            }
            // `pub name : type ,` at body depth.
            "pub"
                if opened
                    && depth == 1
                    && toks[i].kind == TokKind::Ident
                    && toks.get(i + 1).is_some_and(|t| t.kind == TokKind::Ident)
                    && toks.get(i + 2).is_some_and(|t| t.text == ":") =>
            {
                let f = &toks[i + 1];
                fields.push((f.text.clone(), f.line, f.col));
            }
            _ => {}
        }
        i += 1;
    }
    fields
}

/// `(fn_name, field)` for every `fn count_*` whose body bumps a field
/// via `bump(|c| &c.field, …)`.
fn bump_helpers(toks: &[Tok]) -> Vec<(String, String)> {
    let mut helpers = Vec::new();
    let mut i = 0;
    while i < toks.len() {
        if is_ident(&toks[i], "fn")
            && toks
                .get(i + 1)
                .is_some_and(|t| t.kind == TokKind::Ident && t.text.starts_with("count_"))
        {
            let name = toks[i + 1].text.clone();
            // Scan ahead (bounded by the next `fn`) for `bump … . field`.
            let mut j = i + 2;
            while j < toks.len() && !is_ident(&toks[j], "fn") {
                if is_ident(&toks[j], "bump") {
                    let mut k = j + 1;
                    while k + 1 < toks.len() && !is_ident(&toks[k], "fn") {
                        if toks[k].text == "." && toks[k + 1].kind == TokKind::Ident {
                            helpers.push((name.clone(), toks[k + 1].text.clone()));
                            break;
                        }
                        k += 1;
                    }
                    break;
                }
                j += 1;
            }
            i = j;
            continue;
        }
        i += 1;
    }
    helpers
}

/// Run the whole rule set over a scanned tree, returning diagnostics
/// sorted by `(path, line, col, rule)`.
pub fn scan(files: &[SourceFile]) -> Vec<Violation> {
    let mut out = Vec::new();
    for f in files {
        scan_file(f, &mut out);
    }
    scan_counters(files, &mut out);
    scan_events(files, &mut out);
    out.sort_by(|a, b| (&a.path, a.line, a.col, a.rule).cmp(&(&b.path, b.line, b.col, b.rule)));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex_gated;

    fn file(path: &str, src: &str) -> SourceFile {
        SourceFile {
            rel_path: path.to_string(),
            src: src.to_string(),
            toks: lex_gated(src),
        }
    }

    fn rules_fired(f: SourceFile) -> Vec<&'static str> {
        let mut out = Vec::new();
        scan_file(&f, &mut out);
        out.into_iter().map(|v| v.rule).collect()
    }

    #[test]
    fn instant_flagged_outside_perf() {
        let f = file(
            "crates/core/src/driver.rs",
            "use std::time::Instant;\nfn f() { let _ = Instant::now(); }",
        );
        assert_eq!(rules_fired(f), vec!["D001", "D001"]);
    }

    #[test]
    fn instant_allowed_in_perf_file() {
        let f = file(super::PERF_FILE, "use std::time::Instant;");
        assert!(rules_fired(f).is_empty());
    }

    #[test]
    fn hashmap_scoped_to_belief_crates() {
        let hot = file(
            "crates/inference/src/exact.rs",
            "use std::collections::HashMap;",
        );
        assert_eq!(rules_fired(hot), vec!["D003"]);
        let cold = file(
            "crates/tcp/src/endpoint.rs",
            "use std::collections::HashMap;",
        );
        assert!(rules_fired(cold).is_empty());
    }

    #[test]
    fn std_hashers_flagged_outside_tests() {
        let f = file(
            "crates/elements/src/network.rs",
            "use std::collections::hash_map::DefaultHasher;\n\
             type B = std::hash::BuildHasherDefault<DefaultHasher>;\n\
             #[cfg(test)]\nmod tests { use std::collections::hash_map::DefaultHasher; }",
        );
        assert_eq!(rules_fired(f), vec!["D004", "D004", "D004"]);
    }

    #[test]
    fn hashmap_in_string_or_comment_is_invisible() {
        let f = file(
            "crates/trace/src/table.rs",
            "// HashMap\nfn f() -> &'static str { \"HashMap\" }",
        );
        assert!(rules_fired(f).is_empty());
    }

    #[test]
    fn cfg_test_violations_are_allowed() {
        let f = file(
            "crates/inference/src/exact.rs",
            "#[cfg(test)]\nmod tests { use std::collections::HashMap; }",
        );
        assert!(rules_fired(f).is_empty());
    }

    #[test]
    fn panic_hygiene_scoped_and_positioned() {
        let f = file(
            "crates/topo/src/graph.rs",
            "fn v() { x.unwrap(); y.expect(\"m\"); panic!(\"n\"); unreachable!() }",
        );
        let mut out = Vec::new();
        scan_file(&f, &mut out);
        assert_eq!(out.len(), 4);
        assert!(out.iter().all(|v| v.rule == "P020"));
        assert_eq!(out[0].line, 1);
        // `Result::unwrap` in an unscoped file is fine.
        let other = file("crates/sim/src/event.rs", "fn v() { x.unwrap(); }");
        assert!(rules_fired(other).is_empty());
    }

    #[test]
    fn thread_identity_flagged() {
        let f = file(
            "crates/scenario/src/runner.rs",
            "fn f() { let id = std::thread::current().id(); }",
        );
        assert_eq!(rules_fired(f), vec!["D002"]);
        // thread::scope and spawn remain legal.
        let ok = file(
            "crates/scenario/src/runner.rs",
            "fn f() { std::thread::scope(|s| {}); }",
        );
        assert!(rules_fired(ok).is_empty());
    }

    #[test]
    fn rng_sources_flagged_anywhere() {
        let f = file("crates/bench/src/bin/sweep.rs", "use rand::thread_rng;");
        assert_eq!(rules_fired(f), vec!["R010", "R010"]);
    }

    #[test]
    fn counter_coverage_happy_path() {
        let perf = file(
            super::PERF_FILE,
            "pub struct WorkCounters { pub evs: u64, pub orphan: u64 }\n\
             fn bump(f: F, n: u64) {}\n\
             pub fn count_ev() { bump(|c| &c.evs, 1); }\n\
             pub fn count_orphan() { bump(|c| &c.orphan, 1); }",
        );
        let user = file("crates/elements/src/network.rs", "fn f() { count_ev(); }");
        let pins = file(
            super::PIN_FILE,
            "#[test]\nfn pinned() { assert_eq!(work.evs, 3); }",
        );
        let mut files = vec![perf, user, pins];
        let mut out = Vec::new();
        scan_counters(&files, &mut out);
        // `evs` is bumped and pinned; `orphan` is neither incremented
        // outside perf nor pinned.
        assert_eq!(out.len(), 2);
        assert!(out.iter().all(|v| v.rule == "C030"));
        assert!(out.iter().all(|v| v.message.contains("orphan")));
        assert!(out[1].message.contains(super::PIN_FILE));
        // Diagnostics point at the field definition in perf.rs.
        assert!(out.iter().all(|v| v.path == super::PERF_FILE));
        assert_eq!((out[1].line, out[1].col), (1, 45));

        // Without the pin file every field is unpinned — a positioned
        // diagnostic per field, not a panic.
        files.pop();
        let mut out = Vec::new();
        scan_counters(&files, &mut out);
        let unpinned: Vec<&Violation> = out
            .iter()
            .filter(|v| v.message.contains("is not pinned"))
            .collect();
        assert_eq!(unpinned.len(), 2);
        assert_eq!((unpinned[0].line, unpinned[0].col), (1, 31));
        assert!(unpinned[0].message.contains("`evs`"));
    }

    #[test]
    fn counter_coverage_missing_perf_file() {
        let mut out = Vec::new();
        scan_counters(&[], &mut out);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].rule, "C030");
    }

    #[test]
    fn event_coverage_happy_path() {
        let events = file(
            super::EVENT_FILE,
            "pub enum EventKind {\n\
             \x20   Wake { flow: FlowId, acks: usize },\n\
             \x20   Fire { node: NodeId },\n\
             \x20   Tick,\n\
             }",
        );
        // `Wake` is emitted by the driver; `Fire` only inside obs's own
        // tests; `Tick` nowhere.
        let driver = file(
            "crates/core/src/driver.rs",
            "fn f() { emit(t, EventKind::Wake { flow, acks: 0 }); }",
        );
        let obs_test = file(
            "crates/obs/src/sink.rs",
            "fn f() { emit(t, EventKind::Fire { node }); emit(t, EventKind::Tick); }",
        );
        let mut out = Vec::new();
        scan_events(&[events, driver, obs_test], &mut out);
        assert_eq!(out.len(), 2);
        assert!(out.iter().all(|v| v.rule == "C031"));
        assert!(out.iter().any(|v| v.message.contains("`Fire`")));
        assert!(out.iter().any(|v| v.message.contains("`Tick`")));
        // Diagnostics point at the variant definition, not the use site.
        assert!(out.iter().all(|v| v.path == super::EVENT_FILE));
        assert_eq!(out[0].line, 3);
        assert_eq!(out[1].line, 4);
    }

    #[test]
    fn event_variant_parse_skips_field_names() {
        let toks = lex_gated(
            "pub enum EventKind { Drop { node: NodeId, reason: DropReason }, Snapshot { flow: FlowId } }",
        );
        let names: Vec<String> = enum_variants(&toks, "EventKind")
            .into_iter()
            .map(|(n, _, _)| n)
            .collect();
        assert_eq!(names, vec!["Drop".to_string(), "Snapshot".to_string()]);
    }

    #[test]
    fn event_coverage_missing_event_file() {
        let mut out = Vec::new();
        scan_events(&[], &mut out);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].rule, "C031");
    }
}
