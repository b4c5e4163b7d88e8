//! Spec files: load a whole [`SweepGrid`] from TOML text or a file.
//!
//! The workspace builds offline, so this module carries its own parser
//! for the TOML subset the spec schema needs (the same reasoning that
//! produced the hand-rolled `SimRng`): tables, arrays of tables, inline
//! tables, arrays, strings, booleans, integers (decimal and `0x` hex,
//! `_` separators), and floats. Every parsed value carries its source
//! line and column, so decoding errors name the exact spot in the file:
//!
//! ```text
//! experiments/specs/fig3.toml:14:1: unknown key `alpa` in [sender]
//! ```
//!
//! The schema mirrors the spec types one-to-one — `[scenario]`,
//! `[topology]`, `[prior]`, `[sender]`, `[workload]`, and one `[[axis]]`
//! per sweep dimension. The files under `experiments/specs/` are the
//! only definition of the shipped sweeps: [`crate::presets`] compiles
//! their text in and decodes it here, with each `../traces/<stem>.csv`
//! reference answered by the [`traces`] generators, so a preset needs
//! no file on disk. There is no writer: a sweep is changed by editing
//! its spec file.

use crate::grid::{Axis, SweepGrid};
use crate::spec::{
    CoexistSpec, ManyFlowSpec, ObserveSpec, PeerSpec, PriorSpec, QueueSpec, ScenarioSpec,
    SenderSpec, TopologySpec, WorkloadSpec,
};
use crate::traces;
use augur_elements::{CellularParams, GateSpec, ModelParams, RateProcess, TraceEnd};
use augur_inference::ModelPrior;
use augur_sim::{BitRate, Bits, Dur, Ppm};
use augur_topo::{FlowSpec, GraphTopology, LinkSpec};
use std::path::{Path, PathBuf};

/// A parse or decode failure, located in the source text.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConfigError {
    /// 1-based source line.
    pub line: u32,
    /// 1-based source column.
    pub col: u32,
    /// What went wrong.
    pub message: String,
}

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}:{}: {}", self.line, self.col, self.message)
    }
}

impl std::error::Error for ConfigError {}

fn err<T>(line: u32, col: u32, message: impl Into<String>) -> Result<T, ConfigError> {
    Err(ConfigError {
        line,
        col,
        message: message.into(),
    })
}

// ---------------------------------------------------------------------
// The TOML-subset document model.
// ---------------------------------------------------------------------

/// A parsed value with its source position.
#[derive(Debug, Clone)]
struct Value {
    line: u32,
    col: u32,
    payload: Payload,
}

#[derive(Debug, Clone)]
enum Payload {
    Str(String),
    /// Wide enough for the full `u64` seed space and negative literals;
    /// the typed accessors range-check on the way out.
    Int(i128),
    Float(f64),
    Bool(bool),
    Array(Vec<Value>),
    Table(Table),
    /// `[[name]]` headers accumulate here.
    TableArray(Vec<Table>),
}

impl Payload {
    fn type_name(&self) -> &'static str {
        match self {
            Payload::Str(_) => "string",
            Payload::Int(_) => "integer",
            Payload::Float(_) => "float",
            Payload::Bool(_) => "boolean",
            Payload::Array(_) => "array",
            Payload::Table(_) => "table",
            Payload::TableArray(_) => "array of tables",
        }
    }
}

/// One `key = value` (or sub-table) entry, with the key's position.
#[derive(Debug, Clone)]
struct Entry {
    key: String,
    line: u32,
    col: u32,
    value: Value,
}

/// An ordered table. Lookup is linear — spec files are tiny.
#[derive(Debug, Clone, Default)]
struct Table {
    entries: Vec<Entry>,
    /// Whether the table was named by its own `[header]` (re-opening one
    /// of these is a duplicate; implicitly-created parents are not).
    explicit: bool,
    /// Position of the table's own header (or opening `{`), so errors in
    /// the Nth `[[axis]]` point at that axis, not the first.
    line: u32,
    col: u32,
}

impl Table {
    fn get(&self, key: &str) -> Option<&Entry> {
        self.entries.iter().find(|e| e.key == key)
    }
}

// ---------------------------------------------------------------------
// Parser.
// ---------------------------------------------------------------------

struct Parser<'a> {
    src: &'a [u8],
    pos: usize,
    line: u32,
    col: u32,
}

impl<'a> Parser<'a> {
    fn new(src: &'a str) -> Parser<'a> {
        Parser {
            src: src.as_bytes(),
            pos: 0,
            line: 1,
            col: 1,
        }
    }

    fn peek(&self) -> Option<u8> {
        self.src.get(self.pos).copied()
    }

    fn bump(&mut self) -> Option<u8> {
        let b = self.peek()?;
        self.pos += 1;
        if b == b'\n' {
            self.line += 1;
            self.col = 1;
        } else {
            self.col += 1;
        }
        Some(b)
    }

    /// Skip spaces and tabs (not newlines).
    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ') | Some(b'\t')) {
            self.bump();
        }
    }

    /// Skip whitespace, comments, and newlines.
    fn skip_trivia(&mut self) {
        loop {
            match self.peek() {
                Some(b' ') | Some(b'\t') | Some(b'\n') | Some(b'\r') => {
                    self.bump();
                }
                Some(b'#') => {
                    while !matches!(self.peek(), None | Some(b'\n')) {
                        self.bump();
                    }
                }
                _ => return,
            }
        }
    }

    /// Consume end-of-line: optional whitespace, optional comment, then a
    /// newline or end of input.
    fn expect_eol(&mut self) -> Result<(), ConfigError> {
        self.skip_ws();
        if self.peek() == Some(b'#') {
            while !matches!(self.peek(), None | Some(b'\n')) {
                self.bump();
            }
        }
        match self.peek() {
            None => Ok(()),
            Some(b'\n') | Some(b'\r') => {
                self.bump();
                Ok(())
            }
            Some(c) => err(
                self.line,
                self.col,
                format!("expected end of line, found {:?}", c as char),
            ),
        }
    }

    fn bare_key(&mut self) -> Result<(String, u32, u32), ConfigError> {
        let (line, col) = (self.line, self.col);
        let mut s = String::new();
        while let Some(b) = self.peek() {
            if b.is_ascii_alphanumeric() || b == b'_' || b == b'-' {
                s.push(b as char);
                self.bump();
            } else {
                break;
            }
        }
        if s.is_empty() {
            return err(line, col, "expected a key");
        }
        Ok((s, line, col))
    }

    /// `a.b.c` — used in `[table]` headers.
    fn dotted_key(&mut self) -> Result<Vec<(String, u32, u32)>, ConfigError> {
        let mut parts = vec![self.bare_key()?];
        while self.peek() == Some(b'.') {
            self.bump();
            parts.push(self.bare_key()?);
        }
        Ok(parts)
    }

    fn string(&mut self) -> Result<Value, ConfigError> {
        let (line, col) = (self.line, self.col);
        self.bump(); // opening quote
                     // Collect raw bytes and decode once at the closing quote, so
                     // multi-byte UTF-8 content survives the byte-wise scan.
        let mut bytes = Vec::new();
        loop {
            match self.bump() {
                None | Some(b'\n') => return err(line, col, "unterminated string"),
                Some(b'"') => break,
                Some(b'\\') => match self.bump() {
                    Some(b'"') => bytes.push(b'"'),
                    Some(b'\\') => bytes.push(b'\\'),
                    Some(b'n') => bytes.push(b'\n'),
                    Some(b't') => bytes.push(b'\t'),
                    other => {
                        return err(
                            self.line,
                            self.col,
                            format!(
                                "unsupported string escape \\{}",
                                other.map(|c| c as char).unwrap_or(' ')
                            ),
                        )
                    }
                },
                Some(b) => bytes.push(b),
            }
        }
        // The source arrived as &str, so any slice between escapes is
        // valid UTF-8; this cannot fail in practice but stays checked.
        let s = String::from_utf8(bytes).map_err(|_| ConfigError {
            line,
            col,
            message: "string is not valid UTF-8".into(),
        })?;
        Ok(Value {
            line,
            col,
            payload: Payload::Str(s),
        })
    }

    fn number(&mut self) -> Result<Value, ConfigError> {
        let (line, col) = (self.line, self.col);
        let mut raw = String::new();
        while let Some(b) = self.peek() {
            if b.is_ascii_alphanumeric() || matches!(b, b'+' | b'-' | b'.' | b'_') {
                raw.push(b as char);
                self.bump();
            } else {
                break;
            }
        }
        let cleaned: String = raw.chars().filter(|&c| c != '_').collect();
        let (sign, digits) = match cleaned.strip_prefix('-') {
            Some(rest) => (-1i128, rest),
            None => (1, cleaned.strip_prefix('+').unwrap_or(&cleaned)),
        };
        // Magnitudes are capped at u64::MAX (the widest field in the
        // schema); unsigned_abs avoids the i128::MIN overflow of abs().
        let payload = if let Some(hex) = digits.strip_prefix("0x").or(digits.strip_prefix("0X")) {
            match i128::from_str_radix(hex, 16) {
                // from_str_radix of bare hex digits is non-negative, so
                // the sign multiply below cannot overflow.
                Ok(v) if v <= u64::MAX as i128 => Payload::Int(sign * v),
                _ => return err(line, col, format!("bad hex integer {raw:?}")),
            }
        } else if digits.contains('.') || digits.contains('e') || digits.contains('E') {
            match cleaned.parse::<f64>() {
                Ok(v) => Payload::Float(v),
                Err(_) => return err(line, col, format!("bad float {raw:?}")),
            }
        } else {
            match cleaned.parse::<i128>() {
                Ok(v) if v.unsigned_abs() <= u64::MAX as u128 => Payload::Int(v),
                _ => return err(line, col, format!("bad integer {raw:?}")),
            }
        };
        Ok(Value { line, col, payload })
    }

    fn value(&mut self) -> Result<Value, ConfigError> {
        let (line, col) = (self.line, self.col);
        match self.peek() {
            None => err(line, col, "expected a value"),
            Some(b'"') => self.string(),
            Some(b'[') => {
                self.bump();
                let mut items = Vec::new();
                loop {
                    self.skip_trivia();
                    if self.peek() == Some(b']') {
                        self.bump();
                        break;
                    }
                    items.push(self.value()?);
                    self.skip_trivia();
                    match self.peek() {
                        Some(b',') => {
                            self.bump();
                        }
                        Some(b']') => {}
                        _ => return err(self.line, self.col, "expected `,` or `]` in array"),
                    }
                }
                Ok(Value {
                    line,
                    col,
                    payload: Payload::Array(items),
                })
            }
            Some(b'{') => {
                self.bump();
                let mut table = Table {
                    explicit: true,
                    line,
                    col,
                    ..Table::default()
                };
                loop {
                    self.skip_trivia();
                    if self.peek() == Some(b'}') {
                        self.bump();
                        break;
                    }
                    let (key, kline, kcol) = self.bare_key()?;
                    self.skip_ws();
                    if self.bump() != Some(b'=') {
                        return err(self.line, self.col, format!("expected `=` after `{key}`"));
                    }
                    self.skip_ws();
                    let value = self.value()?;
                    if table.get(&key).is_some() {
                        return err(kline, kcol, format!("duplicate key `{key}`"));
                    }
                    table.entries.push(Entry {
                        key,
                        line: kline,
                        col: kcol,
                        value,
                    });
                    self.skip_trivia();
                    match self.peek() {
                        Some(b',') => {
                            self.bump();
                        }
                        Some(b'}') => {}
                        _ => {
                            return err(self.line, self.col, "expected `,` or `}` in inline table")
                        }
                    }
                }
                Ok(Value {
                    line,
                    col,
                    payload: Payload::Table(table),
                })
            }
            Some(b't') | Some(b'f') => {
                let (word, wline, wcol) = self.bare_key()?;
                match word.as_str() {
                    "true" => Ok(Value {
                        line: wline,
                        col: wcol,
                        payload: Payload::Bool(true),
                    }),
                    "false" => Ok(Value {
                        line: wline,
                        col: wcol,
                        payload: Payload::Bool(false),
                    }),
                    other => err(wline, wcol, format!("unknown value `{other}`")),
                }
            }
            Some(b) if b.is_ascii_digit() || b == b'-' || b == b'+' => self.number(),
            Some(b) => err(line, col, format!("unexpected character {:?}", b as char)),
        }
    }

    fn parse_document(&mut self) -> Result<Table, ConfigError> {
        let mut root = Table {
            explicit: true,
            line: 1,
            col: 1,
            ..Table::default()
        };
        // Path of the table `key = value` lines currently land in; empty
        // means the root.
        let mut current: Vec<String> = Vec::new();
        loop {
            self.skip_trivia();
            if self.peek().is_none() {
                return Ok(root);
            }
            if self.peek() == Some(b'[') {
                self.bump();
                let is_array = self.peek() == Some(b'[');
                if is_array {
                    self.bump();
                }
                self.skip_ws();
                let path = self.dotted_key()?;
                self.skip_ws();
                let closers: &[u8] = if is_array { b"]]" } else { b"]" };
                for _ in closers {
                    if self.bump() != Some(b']') {
                        return err(self.line, self.col, "unterminated table header");
                    }
                }
                self.expect_eol()?;
                define_table(&mut root, &path, is_array)?;
                current = path.into_iter().map(|(k, _, _)| k).collect();
            } else {
                let (key, kline, kcol) = self.bare_key()?;
                self.skip_ws();
                if self.bump() != Some(b'=') {
                    return err(self.line, self.col, format!("expected `=` after `{key}`"));
                }
                self.skip_ws();
                let value = self.value()?;
                self.expect_eol()?;
                let table = resolve_table(&mut root, &current);
                if table.get(&key).is_some() {
                    return err(kline, kcol, format!("duplicate key `{key}`"));
                }
                table.entries.push(Entry {
                    key,
                    line: kline,
                    col: kcol,
                    value,
                });
            }
        }
    }
}

/// Walk (creating implicit tables as needed) to the table at `path`,
/// entering the last element of any array-of-tables on the way.
fn resolve_table<'t>(root: &'t mut Table, path: &[String]) -> &'t mut Table {
    let mut t = root;
    for seg in path {
        let idx = t
            .entries
            .iter()
            .position(|e| &e.key == seg)
            .expect("header resolution created the path");
        t = match &mut t.entries[idx].value.payload {
            Payload::Table(sub) => sub,
            Payload::TableArray(subs) => subs.last_mut().expect("array headers push a table"),
            _ => unreachable!("header resolution rejected non-table keys"),
        };
    }
    t
}

/// Apply a `[path]` or `[[path]]` header to the document tree.
fn define_table(
    root: &mut Table,
    path: &[(String, u32, u32)],
    is_array: bool,
) -> Result<(), ConfigError> {
    let mut t = root;
    for (i, (seg, line, col)) in path.iter().enumerate() {
        let last = i + 1 == path.len();
        let idx = t.entries.iter().position(|e| &e.key == seg);
        match idx {
            None => {
                let payload = if last && is_array {
                    Payload::TableArray(vec![Table {
                        explicit: true,
                        line: *line,
                        col: *col,
                        ..Table::default()
                    }])
                } else {
                    Payload::Table(Table {
                        explicit: last,
                        line: *line,
                        col: *col,
                        ..Table::default()
                    })
                };
                t.entries.push(Entry {
                    key: seg.clone(),
                    line: *line,
                    col: *col,
                    value: Value {
                        line: *line,
                        col: *col,
                        payload,
                    },
                });
                let n = t.entries.len() - 1;
                t = match &mut t.entries[n].value.payload {
                    Payload::Table(sub) => sub,
                    Payload::TableArray(subs) => subs.last_mut().unwrap(),
                    _ => unreachable!(),
                };
            }
            Some(idx) => {
                let entry = &mut t.entries[idx];
                match &mut entry.value.payload {
                    Payload::Table(sub) => {
                        if last {
                            if is_array {
                                return err(
                                    *line,
                                    *col,
                                    format!("`{seg}` is a table, not an array of tables"),
                                );
                            }
                            if sub.explicit {
                                return err(*line, *col, format!("duplicate table [{seg}]"));
                            }
                            sub.explicit = true;
                        }
                        t = sub;
                    }
                    Payload::TableArray(subs) => {
                        if last {
                            if !is_array {
                                return err(*line, *col, format!("duplicate table [{seg}]"));
                            }
                            subs.push(Table {
                                explicit: true,
                                line: *line,
                                col: *col,
                                ..Table::default()
                            });
                        }
                        t = subs.last_mut().unwrap();
                    }
                    other => {
                        return err(
                            *line,
                            *col,
                            format!("key `{seg}` is a {}, not a table", other.type_name()),
                        )
                    }
                }
            }
        }
    }
    Ok(())
}

// ---------------------------------------------------------------------
// Typed decoding.
// ---------------------------------------------------------------------

/// A table being decoded: tracks which keys the decoder consumed so
/// [`Dec::finish`] can flag the first unknown one.
struct Dec<'a> {
    table: &'a Table,
    /// Context name for messages, e.g. `sender` or `axis`.
    ctx: String,
    used: Vec<bool>,
}

impl<'a> Dec<'a> {
    fn new(table: &'a Table, ctx: impl Into<String>) -> Dec<'a> {
        Dec {
            table,
            ctx: ctx.into(),
            used: vec![false; table.entries.len()],
        }
    }

    fn get(&mut self, key: &str) -> Option<&'a Entry> {
        let idx = self.table.entries.iter().position(|e| e.key == key)?;
        self.used[idx] = true;
        Some(&self.table.entries[idx])
    }

    fn req(&mut self, key: &str, at: (u32, u32)) -> Result<&'a Entry, ConfigError> {
        match self.get(key) {
            Some(e) => Ok(e),
            None => err(at.0, at.1, format!("missing key `{key}` in [{}]", self.ctx)),
        }
    }

    /// Error on the first key no decoder consumed.
    fn finish(self) -> Result<(), ConfigError> {
        for (entry, used) in self.table.entries.iter().zip(&self.used) {
            if !used {
                return err(
                    entry.line,
                    entry.col,
                    format!("unknown key `{}` in [{}]", entry.key, self.ctx),
                );
            }
        }
        Ok(())
    }
}

fn expect_f64(v: &Value, what: &str) -> Result<f64, ConfigError> {
    match v.payload {
        Payload::Float(f) => Ok(f),
        // Integers coerce: `alpha = 1` is unambiguous.
        Payload::Int(i) => Ok(i as f64),
        ref other => err(
            v.line,
            v.col,
            format!("expected float for `{what}`, found {}", other.type_name()),
        ),
    }
}

fn expect_int(v: &Value, what: &str) -> Result<i128, ConfigError> {
    match v.payload {
        Payload::Int(i) => Ok(i),
        ref other => err(
            v.line,
            v.col,
            format!("expected integer for `{what}`, found {}", other.type_name()),
        ),
    }
}

fn expect_u64(v: &Value, what: &str) -> Result<u64, ConfigError> {
    let i = expect_int(v, what)?;
    u64::try_from(i).map_err(|_| ConfigError {
        line: v.line,
        col: v.col,
        message: format!("`{what}` must fit in a u64, got {i}"),
    })
}

/// A checked 32-bit read for ppm rates and shift counts — an
/// out-of-range value is an authoring error, never a silent wrap.
fn expect_u32(v: &Value, what: &str) -> Result<u32, ConfigError> {
    let i = expect_int(v, what)?;
    u32::try_from(i).map_err(|_| ConfigError {
        line: v.line,
        col: v.col,
        message: format!("`{what}` must fit in a u32, got {i}"),
    })
}

/// A population size (branch cap, particle count): zero decodes but
/// leaves the belief engine nothing to normalize, so it panics mid-run.
fn expect_count(v: &Value, what: &str) -> Result<usize, ConfigError> {
    match expect_u64(v, what)? {
        0 => err(v.line, v.col, format!("`{what}` must be at least 1, got 0")),
        n => Ok(n as usize),
    }
}

fn expect_bool(v: &Value, what: &str) -> Result<bool, ConfigError> {
    match v.payload {
        Payload::Bool(b) => Ok(b),
        ref other => err(
            v.line,
            v.col,
            format!("expected boolean for `{what}`, found {}", other.type_name()),
        ),
    }
}

fn expect_str<'a>(v: &'a Value, what: &str) -> Result<&'a str, ConfigError> {
    match &v.payload {
        Payload::Str(s) => Ok(s),
        other => err(
            v.line,
            v.col,
            format!("expected string for `{what}`, found {}", other.type_name()),
        ),
    }
}

fn expect_array<'a>(v: &'a Value, what: &str) -> Result<&'a [Value], ConfigError> {
    match &v.payload {
        Payload::Array(items) => Ok(items),
        other => err(
            v.line,
            v.col,
            format!("expected array for `{what}`, found {}", other.type_name()),
        ),
    }
}

fn expect_table<'a>(v: &'a Value, what: &str) -> Result<&'a Table, ConfigError> {
    match &v.payload {
        Payload::Table(t) => Ok(t),
        other => err(
            v.line,
            v.col,
            format!("expected table for `{what}`, found {}", other.type_name()),
        ),
    }
}

fn dur_s(v: &Value, what: &str) -> Result<Dur, ConfigError> {
    let s = expect_f64(v, what)?;
    if !s.is_finite() || s < 0.0 {
        return err(v.line, v.col, format!("`{what}` must be >= 0 seconds"));
    }
    Ok(Dur::from_secs_f64(s))
}

/// Decode each element of an array entry with `f`, labelling elements
/// `key[i]` in error messages.
fn map_array<T>(
    entry: &Entry,
    f: impl Fn(&Value, &str) -> Result<T, ConfigError>,
) -> Result<Vec<T>, ConfigError> {
    let items = expect_array(&entry.value, &entry.key)?;
    items
        .iter()
        .enumerate()
        .map(|(i, v)| f(v, &format!("{}[{i}]", entry.key)))
        .collect()
}

fn decode_gate(v: &Value) -> Result<GateSpec, ConfigError> {
    let t = expect_table(v, "gate")?;
    let mut d = Dec::new(t, "gate");
    let kind_e = d.req("kind", (v.line, v.col))?;
    let kind = expect_str(&kind_e.value, "kind")?;
    let gate = match kind {
        "always-on" => GateSpec::AlwaysOn,
        "square-wave" => GateSpec::SquareWave {
            half_period: dur_s(
                &d.req("half_period_s", (v.line, v.col))?.value,
                "half_period_s",
            )?,
            initially_connected: expect_bool(
                &d.req("initially_connected", (v.line, v.col))?.value,
                "initially_connected",
            )?,
        },
        "intermittent" => GateSpec::Intermittent {
            mtts: dur_s(&d.req("mtts_s", (v.line, v.col))?.value, "mtts_s")?,
            epoch: dur_s(&d.req("epoch_s", (v.line, v.col))?.value, "epoch_s")?,
            initially_connected: expect_bool(
                &d.req("initially_connected", (v.line, v.col))?.value,
                "initially_connected",
            )?,
        },
        other => {
            return err(
                kind_e.value.line,
                kind_e.value.col,
                format!(
                    "unknown gate kind `{other}` (expected always-on, square-wave, intermittent)"
                ),
            )
        }
    };
    d.finish()?;
    Ok(gate)
}

/// A positive bits-per-second read — [`BitRate::from_bps`] panics on
/// zero, so the decoder must reject it with a positioned error first.
fn expect_rate_bps(v: &Value, what: &str) -> Result<BitRate, ConfigError> {
    let bps = expect_u64(v, what)?;
    if bps == 0 {
        return err(v.line, v.col, format!("`{what}` must be positive"));
    }
    Ok(BitRate::from_bps(bps))
}

/// Where a `file = "…"` trace reference gets its samples.
#[derive(Clone, Copy)]
enum TraceSource<'a> {
    /// The named CSV file; a relative path resolves against this
    /// directory (the current one when `None`).
    Files(Option<&'a Path>),
    /// The [`traces`] generator behind `../traces/<stem>.csv` — what the
    /// specs compiled into [`crate::presets`] load from, so decoding
    /// them reads nothing from disk.
    Generators,
}

/// Decode a `{ file = "…", end = "loop" | "hold-last" }` trace
/// reference, loading and validating its samples from `source`.
fn decode_trace(
    d: &mut Dec<'_>,
    at: (u32, u32),
    source: TraceSource<'_>,
) -> Result<RateProcess, ConfigError> {
    let file_e = d.req("file", at)?;
    let file = expect_str(&file_e.value, "file")?;
    let end_e = d.req("end", at)?;
    let end = match expect_str(&end_e.value, "end")? {
        "loop" => TraceEnd::Loop,
        "hold-last" => TraceEnd::HoldLast,
        other => {
            return err(
                end_e.value.line,
                end_e.value.col,
                format!("unknown trace end policy `{other}` (expected loop, hold-last)"),
            )
        }
    };
    let fail = |message: String| ConfigError {
        line: file_e.value.line,
        col: file_e.value.col,
        message,
    };
    // `origin` names where the samples came from in error messages.
    let (samples, origin) = match source {
        TraceSource::Generators => {
            let stem = file
                .strip_prefix("../traces/")
                .and_then(|name| name.strip_suffix(".csv"));
            let samples = stem
                .and_then(traces::by_name)
                .ok_or_else(|| fail(format!("no shipped trace generator behind {file}")))?;
            (samples, file.to_string())
        }
        TraceSource::Files(base) => {
            let resolved = base.map_or_else(|| PathBuf::from(file), |dir| dir.join(file));
            let origin = resolved.display().to_string();
            let src = std::fs::read_to_string(&resolved)
                .map_err(|e| fail(format!("cannot read trace file {origin}: {e}")))?;
            // Loader errors are positioned inside the CSV; carry that
            // position in the message and point the spec error at the
            // `file` value.
            let samples =
                traces::parse_trace_csv(&src).map_err(|te| fail(format!("{origin}:{te}")))?;
            (samples, origin)
        }
    };
    let rate = RateProcess::Trace {
        label: file.to_string(),
        samples,
        end,
    };
    match rate.check() {
        Ok(()) => Ok(rate),
        Err(message) => Err(fail(format!("{origin}: {message}"))),
    }
}

fn decode_rate(v: &Value, source: TraceSource<'_>) -> Result<RateProcess, ConfigError> {
    let t = expect_table(v, "rate")?;
    let mut d = Dec::new(t, "rate");
    let kind_e = d.req("kind", (v.line, v.col))?;
    let kind = expect_str(&kind_e.value, "kind")?;
    let rate = match kind {
        "constant" => RateProcess::Const(expect_rate_bps(
            &d.req("bps", (v.line, v.col))?.value,
            "bps",
        )?),
        "schedule" => {
            let period_e = d.req("period_s", (v.line, v.col))?;
            let period = dur_s(&period_e.value, "period_s")?;
            if period == Dur::ZERO {
                return err(
                    period_e.value.line,
                    period_e.value.col,
                    "`period_s` must be positive",
                );
            }
            let steps_e = d.req("steps", (v.line, v.col))?;
            // Decoded step by step (not via map_array) so every invariant
            // violation points at the offending step — `--check` must
            // reject here what `Link::new` would otherwise panic on.
            let items = expect_array(&steps_e.value, "steps")?;
            let mut steps: Vec<(Dur, BitRate)> = Vec::with_capacity(items.len());
            for (i, sv) in items.iter().enumerate() {
                let what = format!("steps[{i}]");
                let st = expect_table(sv, &what)?;
                let mut sd = Dec::new(st, &what);
                let at = dur_s(&sd.req("at_s", (sv.line, sv.col))?.value, "at_s")?;
                let bps = expect_rate_bps(&sd.req("bps", (sv.line, sv.col))?.value, "bps")?;
                sd.finish()?;
                match steps.last() {
                    None if at != Dur::ZERO => {
                        return err(sv.line, sv.col, "the first step must have `at_s = 0`")
                    }
                    Some(&(prev, _)) if at <= prev => {
                        return err(
                            sv.line,
                            sv.col,
                            format!("step offsets must be strictly increasing ({at} after {prev})"),
                        )
                    }
                    _ => {}
                }
                if at >= period {
                    return err(
                        sv.line,
                        sv.col,
                        format!("step offset {at} does not fit in the period {period}"),
                    );
                }
                steps.push((at, bps));
            }
            if steps.is_empty() {
                return err(
                    steps_e.value.line,
                    steps_e.value.col,
                    "`steps` must be non-empty",
                );
            }
            RateProcess::Schedule { steps, period }
        }
        "trace" => decode_trace(&mut d, (v.line, v.col), source)?,
        other => {
            return err(
                kind_e.value.line,
                kind_e.value.col,
                format!("unknown rate kind `{other}` (expected constant, schedule, trace)"),
            )
        }
    };
    d.finish()?;
    Ok(rate)
}

fn decode_queue(v: &Value) -> Result<QueueSpec, ConfigError> {
    let t = expect_table(v, "queue")?;
    let mut d = Dec::new(t, "queue");
    let kind_e = d.req("kind", (v.line, v.col))?;
    let kind = expect_str(&kind_e.value, "kind")?;
    let queue = match kind {
        "drop-tail" => QueueSpec::DropTail,
        "red" => QueueSpec::Red {
            min_th: Bits::new(expect_u64(
                &d.req("min_th_bits", (v.line, v.col))?.value,
                "min_th_bits",
            )?),
            max_th: Bits::new(expect_u64(
                &d.req("max_th_bits", (v.line, v.col))?.value,
                "max_th_bits",
            )?),
            max_p: Ppm::new(expect_u32(
                &d.req("max_p_ppm", (v.line, v.col))?.value,
                "max_p_ppm",
            )?),
            w_shift: expect_u32(&d.req("w_shift", (v.line, v.col))?.value, "w_shift")?,
        },
        "codel" => QueueSpec::CoDel {
            target: dur_s(&d.req("target_s", (v.line, v.col))?.value, "target_s")?,
            interval: dur_s(&d.req("interval_s", (v.line, v.col))?.value, "interval_s")?,
        },
        other => {
            return err(
                kind_e.value.line,
                kind_e.value.col,
                format!("unknown queue kind `{other}` (expected drop-tail, red, codel)"),
            )
        }
    };
    d.finish()?;
    Ok(queue)
}

/// One `{ name, from, to, bps, delay_s, buffer_bits[, queue] }` link of
/// a graph topology; `queue` defaults to drop-tail.
fn decode_link(v: &Value, what: &str) -> Result<LinkSpec, ConfigError> {
    let t = expect_table(v, what)?;
    let at = (v.line, v.col);
    let mut d = Dec::new(t, what);
    let link = LinkSpec {
        name: expect_str(&d.req("name", at)?.value, "name")?.to_string(),
        from: expect_str(&d.req("from", at)?.value, "from")?.to_string(),
        to: expect_str(&d.req("to", at)?.value, "to")?.to_string(),
        rate: expect_rate_bps(&d.req("bps", at)?.value, "bps")?,
        delay: dur_s(&d.req("delay_s", at)?.value, "delay_s")?,
        buffer: Bits::new(expect_u64(&d.req("buffer_bits", at)?.value, "buffer_bits")?),
        queue: match d.get("queue") {
            Some(e) => decode_queue(&e.value)?,
            None => QueueSpec::DropTail,
        },
    };
    d.finish()?;
    Ok(link)
}

/// One `{ name, class, src, dst[, path] }` flow of a graph topology;
/// without `path` the compiler routes it over the fewest hops.
fn decode_flow(v: &Value, what: &str) -> Result<FlowSpec, ConfigError> {
    let t = expect_table(v, what)?;
    let at = (v.line, v.col);
    let mut d = Dec::new(t, what);
    let flow = FlowSpec {
        name: expect_str(&d.req("name", at)?.value, "name")?.to_string(),
        class: expect_str(&d.req("class", at)?.value, "class")?.to_string(),
        src: expect_str(&d.req("src", at)?.value, "src")?.to_string(),
        dst: expect_str(&d.req("dst", at)?.value, "dst")?.to_string(),
        path: match d.get("path") {
            Some(e) => Some(map_array(e, |v, what| {
                expect_str(v, what).map(str::to_string)
            })?),
            None => None,
        },
    };
    d.finish()?;
    Ok(flow)
}

fn decode_topology(
    t: &Table,
    at: (u32, u32),
    source: TraceSource<'_>,
) -> Result<TopologySpec, ConfigError> {
    let mut d = Dec::new(t, "topology");
    let kind_e = d.req("kind", at)?;
    let kind = expect_str(&kind_e.value, "kind")?;
    let topo = match kind {
        "model" => {
            let params = ModelParams {
                link_rate: expect_rate_bps(&d.req("link_bps", at)?.value, "link_bps")?,
                cross_rate: expect_rate_bps(&d.req("cross_bps", at)?.value, "cross_bps")?,
                gate: decode_gate(&d.req("gate", at)?.value)?,
                loss: Ppm::new(expect_u32(&d.req("loss_ppm", at)?.value, "loss_ppm")?),
                buffer_capacity: Bits::new(expect_u64(
                    &d.req("buffer_bits", at)?.value,
                    "buffer_bits",
                )?),
                initial_fullness: Bits::new(expect_u64(
                    &d.req("initial_fullness_bits", at)?.value,
                    "initial_fullness_bits",
                )?),
                packet_size: Bits::new(expect_u64(
                    &d.req("packet_bits", at)?.value,
                    "packet_bits",
                )?),
                cross_active: expect_bool(&d.req("cross_active", at)?.value, "cross_active")?,
            };
            TopologySpec::Model(params)
        }
        "cellular" => TopologySpec::Cellular {
            params: CellularParams {
                buffer_capacity: Bits::new(expect_u64(
                    &d.req("buffer_bits", at)?.value,
                    "buffer_bits",
                )?),
                rate: decode_rate(&d.req("rate", at)?.value, source)?,
                arq_loss: Ppm::new(expect_u32(
                    &d.req("arq_loss_ppm", at)?.value,
                    "arq_loss_ppm",
                )?),
                arq_retry_delay: dur_s(
                    &d.req("arq_retry_delay_s", at)?.value,
                    "arq_retry_delay_s",
                )?,
                propagation: dur_s(&d.req("propagation_s", at)?.value, "propagation_s")?,
            },
            queue: decode_queue(&d.req("queue", at)?.value)?,
        },
        "graph" => {
            let g = GraphTopology {
                nodes: map_array(d.req("nodes", at)?, |v, what| {
                    expect_str(v, what).map(str::to_string)
                })?,
                links: map_array(d.req("links", at)?, decode_link)?,
                flows: map_array(d.req("flows", at)?, decode_flow)?,
                packet_size: Bits::new(expect_u64(
                    &d.req("packet_bits", at)?.value,
                    "packet_bits",
                )?),
            };
            // Routing problems (unknown nodes, cycles, unreachable
            // destinations, …) are authoring errors: surface them here,
            // at `--check` time, not as a runner panic mid-sweep.
            if let Err(e) = augur_topo::validate(&g) {
                return err(at.0, at.1, format!("invalid graph topology: {e}"));
            }
            TopologySpec::Graph(g)
        }
        other => {
            return err(
                kind_e.value.line,
                kind_e.value.col,
                format!("unknown topology kind `{other}` (expected model, cellular, graph)"),
            )
        }
    };
    d.finish()?;
    Ok(topo)
}

fn decode_prior(t: &Table, at: (u32, u32)) -> Result<PriorSpec, ConfigError> {
    let mut d = Dec::new(t, "prior");
    let kind_e = d.req("kind", at)?;
    let kind = expect_str(&kind_e.value, "kind")?;
    let prior = match kind {
        "paper" => PriorSpec::Paper,
        "small" => PriorSpec::Small,
        "fine-link-rate" => {
            // PriorSpec::hypotheses asserts these at run time; `--check`
            // must reject them here with a position instead.
            let n_e = d.req("n", at)?;
            let n = expect_u64(&n_e.value, "n")? as usize;
            if n == 0 {
                return err(
                    n_e.value.line,
                    n_e.value.col,
                    "`n` must be at least 1 (the prior needs a hypothesis)",
                );
            }
            let lo_e = d.req("lo_bps", at)?;
            let lo_bps = expect_u64(&lo_e.value, "lo_bps")?;
            let hi_bps = expect_u64(&d.req("hi_bps", at)?.value, "hi_bps")?;
            if lo_bps > hi_bps {
                return err(
                    lo_e.value.line,
                    lo_e.value.col,
                    format!("`lo_bps` ({lo_bps}) must not exceed `hi_bps` ({hi_bps})"),
                );
            }
            PriorSpec::FineLinkRate { n, lo_bps, hi_bps }
        }
        "custom" => {
            let link_rates = map_array(d.req("link_rates_bps", at)?, expect_rate_bps)?;
            let cross_fracs_ppm = map_array(d.req("cross_fracs_ppm", at)?, expect_u32)?;
            let losses = map_array(d.req("losses_ppm", at)?, |v, w| {
                Ok(Ppm::new(expect_u32(v, w)?))
            })?;
            let buffer_capacities = map_array(d.req("buffer_capacities_bits", at)?, |v, w| {
                Ok(Bits::new(expect_u64(v, w)?))
            })?;
            let fullness_step = match d.get("fullness_step_bits") {
                Some(e) => Some(Bits::new(expect_u64(&e.value, "fullness_step_bits")?)),
                None => None,
            };
            let gate_initial = map_array(d.req("gate_initial", at)?, expect_bool)?;
            PriorSpec::Custom(ModelPrior {
                link_rates,
                cross_fracs_ppm,
                losses,
                buffer_capacities,
                fullness_step,
                mtts: dur_s(&d.req("mtts_s", at)?.value, "mtts_s")?,
                epoch: dur_s(&d.req("epoch_s", at)?.value, "epoch_s")?,
                gate_initial,
                packet_size: Bits::new(expect_u64(
                    &d.req("packet_bits", at)?.value,
                    "packet_bits",
                )?),
                cross_active: expect_bool(&d.req("cross_active", at)?.value, "cross_active")?,
            })
        }
        other => {
            return err(
                kind_e.value.line,
                kind_e.value.col,
                format!(
                    "unknown prior kind `{other}` (expected paper, small, fine-link-rate, custom)"
                ),
            )
        }
    };
    d.finish()?;
    Ok(prior)
}

fn decode_sender(t: &Table, at: (u32, u32)) -> Result<SenderSpec, ConfigError> {
    let mut d = Dec::new(t, "sender");
    let kind_e = d.req("kind", at)?;
    let kind = expect_str(&kind_e.value, "kind")?;
    let sender = match kind {
        "isender-exact" => SenderSpec::IsenderExact {
            alpha: expect_f64(&d.req("alpha", at)?.value, "alpha")?,
            latency_penalty: expect_f64(&d.req("latency_penalty", at)?.value, "latency_penalty")?,
            max_branches: expect_count(&d.req("max_branches", at)?.value, "max_branches")?,
        },
        "isender-particle" => SenderSpec::IsenderParticle {
            alpha: expect_f64(&d.req("alpha", at)?.value, "alpha")?,
            latency_penalty: expect_f64(&d.req("latency_penalty", at)?.value, "latency_penalty")?,
            n_particles: expect_count(&d.req("n_particles", at)?.value, "n_particles")?,
        },
        "tcp-reno" => SenderSpec::TcpReno {
            max_window: expect_u64(&d.req("max_window", at)?.value, "max_window")?,
        },
        "tcp-cubic" => SenderSpec::TcpCubic {
            max_window: expect_u64(&d.req("max_window", at)?.value, "max_window")?,
        },
        other => {
            return err(
                kind_e.value.line,
                kind_e.value.col,
                format!(
                    "unknown sender kind `{other}` (expected isender-exact, isender-particle, \
                     tcp-reno, tcp-cubic)"
                ),
            )
        }
    };
    d.finish()?;
    Ok(sender)
}

fn decode_peer(v: &Value, what: &str) -> Result<PeerSpec, ConfigError> {
    let t = expect_table(v, what)?;
    let mut d = Dec::new(t, what);
    let kind_e = d.req("kind", (v.line, v.col))?;
    let kind = expect_str(&kind_e.value, "kind")?;
    let peer = match kind {
        "isender" => PeerSpec::Isender {
            alpha: expect_f64(&d.req("alpha", (v.line, v.col))?.value, "alpha")?,
        },
        "aimd" => PeerSpec::Aimd {
            timeout: dur_s(&d.req("timeout_s", (v.line, v.col))?.value, "timeout_s")?,
        },
        "tcp-reno" => PeerSpec::TcpReno {
            max_window: expect_u64(&d.req("max_window", (v.line, v.col))?.value, "max_window")?,
        },
        "tcp-cubic" => PeerSpec::TcpCubic {
            max_window: expect_u64(&d.req("max_window", (v.line, v.col))?.value, "max_window")?,
        },
        other => {
            return err(
                kind_e.value.line,
                kind_e.value.col,
                format!(
                    "unknown peer kind `{other}` (expected isender, aimd, tcp-reno, tcp-cubic)"
                ),
            )
        }
    };
    d.finish()?;
    Ok(peer)
}

fn decode_workload(t: &Table, at: (u32, u32)) -> Result<WorkloadSpec, ConfigError> {
    let mut d = Dec::new(t, "workload");
    let kind_e = d.req("kind", at)?;
    let kind = expect_str(&kind_e.value, "kind")?;
    let workload = match kind {
        "closed-loop" => WorkloadSpec::ClosedLoop,
        "scripted-ping" => WorkloadSpec::ScriptedPing {
            interval: dur_s(&d.req("interval_s", at)?.value, "interval_s")?,
        },
        "coexist" => {
            let peers_e = d.req("peers", at)?;
            let peers = map_array(peers_e, decode_peer)?;
            if peers.is_empty() {
                return err(
                    peers_e.value.line,
                    peers_e.value.col,
                    "`peers` must name at least one competitor",
                );
            }
            WorkloadSpec::Coexist(CoexistSpec { peers })
        }
        "many-flows" => {
            let flows_e = d.req("flows", at)?;
            let flows = expect_u64(&flows_e.value, "flows")? as usize;
            if flows == 0 || flows > usize::from(u16::MAX) + 1 {
                return err(
                    flows_e.value.line,
                    flows_e.value.col,
                    format!(
                        "`flows` must be between 1 and 65536 (wire flow ids are u16), got {flows}"
                    ),
                );
            }
            let mix_e = d.req("mix", at)?;
            let mix = map_array(mix_e, decode_peer)?;
            if mix.is_empty() {
                return err(
                    mix_e.value.line,
                    mix_e.value.col,
                    "`mix` must name at least one agent kind",
                );
            }
            if mix.iter().any(|p| matches!(p, PeerSpec::Isender { .. })) {
                return err(
                    mix_e.value.line,
                    mix_e.value.col,
                    "`mix` agents must be belief-free (aimd, tcp-reno, tcp-cubic) — a \
                     many-flow run cannot carry one belief engine per flow",
                );
            }
            WorkloadSpec::ManyFlows(ManyFlowSpec { flows, mix })
        }
        other => {
            return err(
                kind_e.value.line,
                kind_e.value.col,
                format!(
                    "unknown workload kind `{other}` (expected closed-loop, scripted-ping, \
                     coexist, many-flows)"
                ),
            )
        }
    };
    d.finish()?;
    Ok(workload)
}

/// `[observe]` — optional observability arming: `trace_events` records
/// the structured event stream, `snapshot_every_s` sets the posterior
/// snapshot cadence. Both default off, matching `ObserveSpec::default()`.
fn decode_observe(t: &Table, _at: (u32, u32)) -> Result<ObserveSpec, ConfigError> {
    let mut d = Dec::new(t, "observe");
    let mut spec = ObserveSpec::default();
    if let Some(e) = d.get("trace_events") {
        spec.trace_events = expect_bool(&e.value, "trace_events")?;
    }
    if let Some(e) = d.get("snapshot_every_s") {
        let every = dur_s(&e.value, "snapshot_every_s")?;
        if every == Dur::ZERO {
            return err(
                e.value.line,
                e.value.col,
                "`snapshot_every_s` must be > 0 seconds (omit the key to disable snapshots)",
            );
        }
        spec.snapshot_every = Some(every);
    }
    d.finish()?;
    Ok(spec)
}

fn decode_axis(t: &Table, at: (u32, u32), source: TraceSource<'_>) -> Result<Axis, ConfigError> {
    let mut d = Dec::new(t, "axis");
    let kind_e = d.req("kind", at)?;
    let kind = expect_str(&kind_e.value, "kind")?;
    let axis = match kind {
        "alpha" => Axis::Alpha(map_array(d.req("values", at)?, expect_f64)?),
        "latency-penalty" => Axis::LatencyPenalty(map_array(d.req("values", at)?, expect_f64)?),
        "link-rate" => Axis::LinkRate(map_array(d.req("values", at)?, expect_rate_bps)?),
        "cross-rate" => Axis::CrossRate(map_array(d.req("values", at)?, expect_rate_bps)?),
        "buffer-capacity" => Axis::BufferCapacity(map_array(d.req("values", at)?, |v, w| {
            Ok(Bits::new(expect_u64(v, w)?))
        })?),
        "initial-fullness" => Axis::InitialFullness(map_array(d.req("values", at)?, |v, w| {
            Ok(Bits::new(expect_u64(v, w)?))
        })?),
        "loss" => Axis::Loss(map_array(d.req("values", at)?, |v, w| {
            Ok(Ppm::new(expect_u32(v, w)?))
        })?),
        "sender" => Axis::Sender(map_array(d.req("values", at)?, |v, w| {
            decode_sender(expect_table(v, w)?, (v.line, v.col))
        })?),
        "peer" => Axis::Peer(map_array(d.req("values", at)?, decode_peer)?),
        "queue" => Axis::Queue(map_array(d.req("values", at)?, |v, _w| decode_queue(v))?),
        "rate-trace" => {
            let values_e = d.req("values", at)?;
            let rates = map_array(values_e, |v, w| {
                let vt = expect_table(v, w)?;
                let mut vd = Dec::new(vt, w);
                let rate = decode_trace(&mut vd, (v.line, v.col), source)?;
                vd.finish()?;
                Ok(rate)
            })?;
            // Sweep coordinates label each point by the trace's file
            // stem; two points sharing a stem would be indistinguishable
            // in every report row.
            let mut stems: Vec<String> = rates.iter().map(crate::grid::rate_point_label).collect();
            stems.sort();
            if let Some(dup) = stems.windows(2).find(|w| w[0] == w[1]) {
                return err(
                    values_e.value.line,
                    values_e.value.col,
                    format!(
                        "rate-trace axis points must have distinct file stems (`{}` repeats)",
                        dup[0]
                    ),
                );
            }
            Axis::RateTrace(rates)
        }
        "prior-size" => Axis::PriorSize(map_array(d.req("values", at)?, |v, w| {
            Ok(expect_u64(v, w)? as usize)
        })?),
        "flows" => Axis::Flows(map_array(d.req("values", at)?, |v, w| {
            let n = expect_u64(v, w)? as usize;
            if n == 0 || n > usize::from(u16::MAX) + 1 {
                return err(
                    v.line,
                    v.col,
                    format!("flow counts must be between 1 and 65536, got {n}"),
                );
            }
            Ok(n)
        })?),
        "seeds" => Axis::Seeds(expect_u64(&d.req("count", at)?.value, "count")? as usize),
        other => {
            return err(
                kind_e.value.line,
                kind_e.value.col,
                format!(
                    "unknown axis kind `{other}` (expected alpha, latency-penalty, link-rate, \
                     cross-rate, buffer-capacity, initial-fullness, loss, sender, peer, queue, \
                     rate-trace, prior-size, flows, seeds)"
                ),
            )
        }
    };
    d.finish()?;
    // An empty axis empties the whole grid: `--check` would print OK for
    // a sweep of zero runs.
    if axis.is_empty() {
        return err(at.0, at.1, "axis has no points");
    }
    Ok(axis)
}

/// Parse spec-file text into a [`SweepGrid`]. Relative trace-file paths
/// resolve against the current directory; use [`parse_grid_at`] (or
/// [`load_grid`]) to resolve them against the spec file instead.
pub fn parse_grid(src: &str) -> Result<SweepGrid, ConfigError> {
    parse_grid_at(src, None)
}

/// [`parse_grid`] with an explicit base directory for relative paths in
/// the spec (trace files) — [`load_grid`] passes the spec file's parent.
pub fn parse_grid_at(src: &str, base: Option<&Path>) -> Result<SweepGrid, ConfigError> {
    decode_grid(src, TraceSource::Files(base))
}

/// Decode a spec compiled into [`crate::presets`]: its trace references
/// load from the [`traces`] generators, so no file is read and the
/// working directory does not matter.
pub(crate) fn parse_embedded(src: &str) -> Result<SweepGrid, ConfigError> {
    decode_grid(src, TraceSource::Generators)
}

fn decode_grid(src: &str, source: TraceSource<'_>) -> Result<SweepGrid, ConfigError> {
    let root = Parser::new(src).parse_document()?;
    let mut d = Dec::new(&root, "root");
    let at = (1, 1);

    let scen_e = d.req("scenario", at)?;
    let scen_t = expect_table(&scen_e.value, "scenario")?;
    let scen_at = (scen_e.value.line, scen_e.value.col);
    let mut sd = Dec::new(scen_t, "scenario");
    let name = expect_str(&sd.req("name", scen_at)?.value, "name")?.to_string();
    let duration = dur_s(&sd.req("duration_s", scen_at)?.value, "duration_s")?;
    let base_seed = expect_u64(&sd.req("base_seed", scen_at)?.value, "base_seed")?;
    sd.finish()?;

    let topo_e = d.req("topology", at)?;
    let topology = decode_topology(
        expect_table(&topo_e.value, "topology")?,
        (topo_e.value.line, topo_e.value.col),
        source,
    )?;
    let prior_e = d.req("prior", at)?;
    let prior = decode_prior(
        expect_table(&prior_e.value, "prior")?,
        (prior_e.value.line, prior_e.value.col),
    )?;
    let sender_e = d.req("sender", at)?;
    let sender = decode_sender(
        expect_table(&sender_e.value, "sender")?,
        (sender_e.value.line, sender_e.value.col),
    )?;
    let workload_e = d.req("workload", at)?;
    let workload = decode_workload(
        expect_table(&workload_e.value, "workload")?,
        (workload_e.value.line, workload_e.value.col),
    )?;
    let observe = match d.get("observe") {
        Some(obs_e) => decode_observe(
            expect_table(&obs_e.value, "observe")?,
            (obs_e.value.line, obs_e.value.col),
        )?,
        None => ObserveSpec::default(),
    };

    let mut axes = Vec::new();
    if let Some(axis_e) = d.get("axis") {
        let tables = match &axis_e.value.payload {
            Payload::TableArray(tables) => tables,
            other => {
                return err(
                    axis_e.value.line,
                    axis_e.value.col,
                    format!(
                        "expected `[[axis]]` array of tables, found {}",
                        other.type_name()
                    ),
                )
            }
        };
        for t in tables {
            // Each [[axis]] table carries its own header position, so a
            // missing key in the third axis points at the third header.
            axes.push(decode_axis(t, (t.line, t.col), source)?);
        }
    }
    d.finish()?;

    // Cross-section validation the per-table decoders cannot see: only
    // TCP bulk transfers run over the cellular path (the ISender's
    // priors and the coexist/scripted harnesses all describe the model
    // family), and graph topologies drive exactly one agent per declared
    // flow, so reject bad combinations here rather than letting the
    // runner panic mid-sweep.
    match &topology {
        TopologySpec::Cellular { .. } => {
            let tcp_only = |s: &SenderSpec| {
                matches!(s, SenderSpec::TcpReno { .. } | SenderSpec::TcpCubic { .. })
            };
            if !tcp_only(&sender) {
                return err(
                    sender_e.value.line,
                    sender_e.value.col,
                    format!(
                        "sender kind `{}` cannot run over a cellular topology (only tcp-reno / \
                         tcp-cubic can)",
                        sender.label()
                    ),
                );
            }
            if !matches!(workload, WorkloadSpec::ClosedLoop) {
                return err(
                    workload_e.value.line,
                    workload_e.value.col,
                    "cellular topologies only support the closed-loop workload",
                );
            }
            for (axis, t) in axes.iter().zip(axis_tables(&root)) {
                if let Axis::Sender(senders) = axis {
                    if let Some(bad) = senders.iter().find(|s| !tcp_only(s)) {
                        return err(
                            t.line,
                            t.col,
                            format!(
                                "sender axis value `{}` cannot run over a cellular topology",
                                bad.label()
                            ),
                        );
                    }
                }
            }
        }
        TopologySpec::Graph(g) => {
            let exact = |s: &SenderSpec| matches!(s, SenderSpec::IsenderExact { .. });
            if !exact(&sender) {
                return err(
                    sender_e.value.line,
                    sender_e.value.col,
                    format!(
                        "sender kind `{}` cannot drive a graph topology's primary flow (the \
                         multi-flow harness needs an exact-belief isender)",
                        sender.label()
                    ),
                );
            }
            match &workload {
                WorkloadSpec::Coexist(cx) => {
                    if 1 + cx.peers.len() != g.flows.len() {
                        return err(
                            workload_e.value.line,
                            workload_e.value.col,
                            format!(
                                "graph topology declares {} flows but this workload drives {} \
                                 agents (primary + {} peers)",
                                g.flows.len(),
                                1 + cx.peers.len(),
                                cx.peers.len()
                            ),
                        );
                    }
                }
                _ => {
                    return err(
                        workload_e.value.line,
                        workload_e.value.col,
                        "graph topologies only support the coexist workload (one agent per \
                         declared flow)",
                    )
                }
            }
            for (axis, t) in axes.iter().zip(axis_tables(&root)) {
                match axis {
                    Axis::Sender(senders) => {
                        if let Some(bad) = senders.iter().find(|s| !exact(s)) {
                            return err(
                                t.line,
                                t.col,
                                format!(
                                    "sender axis value `{}` cannot drive a graph topology's \
                                     primary flow",
                                    bad.label()
                                ),
                            );
                        }
                    }
                    Axis::Peer(_) if g.flows.len() != 2 => {
                        return err(
                            t.line,
                            t.col,
                            format!(
                                "a peer axis replaces the peer list with one peer, but this \
                                 graph topology declares {} flows (needs exactly 2)",
                                g.flows.len()
                            ),
                        );
                    }
                    _ => {}
                }
            }
        }
        TopologySpec::Model(_) => {}
    }
    for (axis, t) in axes.iter().zip(axis_tables(&root)) {
        // Axes that tweak a knob only one topology family has.
        let model_only = match axis {
            Axis::LinkRate(_) => Some("a link_bps axis"),
            Axis::CrossRate(_) => Some("a cross_bps axis"),
            Axis::BufferCapacity(_) => Some("a buffer_bits axis"),
            Axis::InitialFullness(_) => Some("a fullness_bits axis"),
            Axis::Loss(_) => Some("a loss_ppm axis"),
            _ => None,
        };
        if let Some(what) = model_only {
            if let Err(msg) = topology.try_model(what) {
                return err(t.line, t.col, msg);
            }
        }
        if matches!(axis, Axis::Flows(_)) && !matches!(workload, WorkloadSpec::ManyFlows(_)) {
            return err(
                t.line,
                t.col,
                "a flows axis requires the many-flows workload (it sets the flow count)",
            );
        }
        if !matches!(topology, TopologySpec::Cellular { .. }) {
            let cellular_only = match axis {
                Axis::RateTrace(_) => Some("rate-trace"),
                Axis::Queue(_) => Some("queue"),
                _ => None,
            };
            if let Some(kind) = cellular_only {
                return err(
                    t.line,
                    t.col,
                    format!(
                        "a {kind} axis requires a cellular topology (only its radio path has \
                         that knob)"
                    ),
                );
            }
        }
    }

    Ok(SweepGrid {
        base: ScenarioSpec {
            name,
            topology,
            prior,
            sender,
            workload,
            duration,
            base_seed,
            observe,
        },
        axes,
    })
}

/// The `[[axis]]` tables of a parsed document, for validation passes
/// that need each axis's source position after decoding.
fn axis_tables(root: &Table) -> impl Iterator<Item = &Table> {
    root.get("axis")
        .into_iter()
        .flat_map(|e| match &e.value.payload {
            Payload::TableArray(tables) => tables.iter().collect::<Vec<_>>(),
            _ => Vec::new(),
        })
}

/// [`parse_grid`] over a file, with relative trace paths resolved
/// against the spec file's directory. IO failures surface as a
/// position-less [`ConfigError`] so callers print one error shape
/// either way.
pub fn load_grid(path: &Path) -> Result<SweepGrid, ConfigError> {
    let src = std::fs::read_to_string(path).map_err(|e| ConfigError {
        line: 0,
        col: 0,
        message: format!("cannot read {}: {e}", path.display()),
    })?;
    parse_grid_at(&src, path.parent())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::presets;

    /// The shipped spec text of a preset — the vehicle most decode-error
    /// tests splice their fault into.
    fn shipped(name: &str) -> &'static str {
        presets::spec_text(name).unwrap()
    }

    #[test]
    fn observe_round_trips_and_defaults_off() {
        // Default-off: no shipped spec carries an [observe] table.
        let text = shipped("fig3");
        assert!(!text.contains("[observe]"), "shipped spec grew [observe]");
        assert_eq!(
            parse_grid(text).unwrap().base.observe,
            ObserveSpec::default()
        );
        // Armed: both keys decode together, and each alone.
        let observe = |keys: &str| {
            parse_grid(&format!("{text}\n[observe]\n{keys}"))
                .unwrap()
                .base
                .observe
        };
        let every = Some(Dur::from_secs_f64(2.5));
        assert_eq!(
            observe("trace_events = true\nsnapshot_every_s = 2.5\n"),
            ObserveSpec {
                trace_events: true,
                snapshot_every: every,
            }
        );
        assert_eq!(
            observe("trace_events = true\n"),
            ObserveSpec {
                trace_events: true,
                snapshot_every: None,
            }
        );
        assert_eq!(
            observe("snapshot_every_s = 2.5\n"),
            ObserveSpec {
                trace_events: false,
                snapshot_every: every,
            }
        );
    }

    #[test]
    fn observe_zero_cadence_is_rejected() {
        let toml = format!("{}\n[observe]\nsnapshot_every_s = 0.0\n", shipped("fig3"));
        let e = parse_grid(&toml).unwrap_err();
        assert!(
            e.message.contains("`snapshot_every_s` must be > 0 seconds"),
            "got: {e}"
        );
    }

    #[test]
    fn observe_unknown_key_is_rejected() {
        let toml = format!("{}\n[observe]\nsnapshots = true\n", shipped("fig3"));
        let e = parse_grid(&toml).unwrap_err();
        assert!(
            e.message.contains("unknown key `snapshots` in [observe]"),
            "got: {e}"
        );
    }

    #[test]
    fn parser_reads_positions_comments_and_hex() {
        let src =
            "# comment\n[scenario]\nname = \"x\" # trailing\nbase_seed = 0xF13\nduration_s = 1.5\n";
        let root = Parser::new(src).parse_document().unwrap();
        let scen = match &root.get("scenario").unwrap().value.payload {
            Payload::Table(t) => t,
            other => panic!("{other:?}"),
        };
        assert!(matches!(
            scen.get("base_seed").unwrap().value.payload,
            Payload::Int(0xF13)
        ));
        let name = scen.get("name").unwrap();
        assert_eq!((name.line, name.col), (3, 1));
    }

    #[test]
    fn unknown_key_is_located_and_named() {
        let toml = shipped("fig3").replace("alpha = 1.0", "alpha = 1.0\nalpa = 1.0");
        let e = parse_grid(&toml).unwrap_err();
        assert!(
            e.message.contains("unknown key `alpa` in [sender]"),
            "got: {e}"
        );
        assert!(e.line > 0);
    }

    #[test]
    fn type_mismatch_names_the_expected_type() {
        let toml =
            shipped("fig3").replace("values = [0.9, 1.0, 2.5, 5.0]", "values = [0.9, \"high\"]");
        let e = parse_grid(&toml).unwrap_err();
        assert!(
            e.message
                .contains("expected float for `values[1]`, found string"),
            "got: {e}"
        );
    }

    #[test]
    fn many_flows_flow_count_is_range_checked() {
        let toml = shipped("ext-scaling-flows").replace("flows = 10\n", "flows = 0\n");
        let e = parse_grid(&toml).unwrap_err();
        assert!(
            e.message
                .contains("`flows` must be between 1 and 65536 (wire flow ids are u16), got 0"),
            "got: {e}"
        );
    }

    #[test]
    fn zero_branch_cap_is_rejected_at_decode_time() {
        let toml = shipped("fig3").replace("max_branches = 50000\n", "max_branches = 0\n");
        let e = parse_grid(&toml).unwrap_err();
        assert_eq!(e.message, "`max_branches` must be at least 1, got 0");
        let line = toml.lines().position(|l| l == "max_branches = 0").unwrap();
        assert_eq!((e.line as usize, e.col), (line + 1, 16));
    }

    #[test]
    fn zero_particle_count_in_a_sender_axis_is_rejected_at_decode_time() {
        let toml = shipped("scaling").replace("n_particles = 1000", "n_particles = 0");
        let e = parse_grid(&toml).unwrap_err();
        assert_eq!(e.message, "`n_particles` must be at least 1, got 0");
        let (line, text) = toml
            .lines()
            .enumerate()
            .find(|(_, l)| l.contains("n_particles = 0"))
            .unwrap();
        let col = text.find("n_particles = 0").unwrap() + "n_particles = ".len() + 1;
        assert_eq!((e.line as usize, e.col as usize), (line + 1, col));
    }

    #[test]
    fn many_flows_mix_rejects_belief_carrying_agents() {
        let toml = shipped("ext-scaling-flows").replace(
            "{ kind = \"aimd\", timeout_s = 8.0 }",
            "{ kind = \"isender\", alpha = 1.0 }",
        );
        let e = parse_grid(&toml).unwrap_err();
        assert!(
            e.message.contains("`mix` agents must be belief-free"),
            "got: {e}"
        );
    }

    #[test]
    fn flows_axis_requires_the_many_flows_workload() {
        let toml = format!(
            "{}\n[[axis]]\nkind = \"flows\"\nvalues = [10]\n",
            shipped("fig3")
        );
        let e = parse_grid(&toml).unwrap_err();
        assert!(
            e.message
                .contains("a flows axis requires the many-flows workload"),
            "got: {e}"
        );
    }

    #[test]
    fn flows_axis_values_are_range_checked() {
        let toml = shipped("ext-scaling-flows")
            .replace("values = [10, 100, 1000, 10000]", "values = [10, 70000]");
        let e = parse_grid(&toml).unwrap_err();
        assert!(
            e.message
                .contains("flow counts must be between 1 and 65536, got 70000"),
            "got: {e}"
        );
    }

    #[test]
    fn duplicate_table_is_rejected() {
        let toml = format!(
            "{}\n[sender]\nkind = \"tcp-reno\"\nmax_window = 4\n",
            shipped("fig3")
        );
        let e = parse_grid(&toml).unwrap_err();
        assert!(e.message.contains("duplicate table [sender]"), "got: {e}");
    }

    #[test]
    fn duplicate_key_is_rejected() {
        let src = "[scenario]\nname = \"a\"\nname = \"b\"\n";
        let e = parse_grid(src).unwrap_err();
        assert!(e.message.contains("duplicate key `name`"), "got: {e}");
        assert_eq!(e.line, 3);
    }

    #[test]
    fn missing_section_is_reported() {
        let e =
            parse_grid("[scenario]\nname = \"x\"\nduration_s = 1.0\nbase_seed = 1\n").unwrap_err();
        assert!(e.message.contains("missing key `topology`"), "got: {e}");
    }

    #[test]
    fn unknown_axis_kind_lists_the_menu() {
        let toml = format!(
            "{}\n[[axis]]\nkind = \"warp\"\nvalues = [1]\n",
            shipped("smoke")
        );
        let e = parse_grid(&toml).unwrap_err();
        assert!(e.message.contains("unknown axis kind `warp`"), "got: {e}");
    }

    #[test]
    fn three_peer_coexist_spec_parses() {
        let toml = shipped("coexist-fairness").replace(
            "peers = [\n  { kind = \"isender\", alpha = 1.0 },\n]",
            "peers = [\n  { kind = \"isender\", alpha = 1.0 },\n  { kind = \"aimd\", timeout_s = 8.0 },\n  { kind = \"tcp-reno\", max_window = 64 },\n]",
        );
        let grid = parse_grid(&toml).unwrap();
        match &grid.base.workload {
            WorkloadSpec::Coexist(cx) => {
                assert_eq!(cx.peers.len(), 3);
                assert_eq!(cx.label(), "isender+aimd+tcp-reno");
            }
            other => panic!("unexpected workload {other:?}"),
        }
    }

    #[test]
    fn isender_over_cellular_is_rejected_at_parse_time() {
        // Splice fig1's cellular topology into fig3's ISender spec: the
        // runner could only panic on this, so --check must reject it.
        let fig3 = shipped("fig3");
        let fig1 = shipped("fig1");
        let cut = |src: &str, header: &str| -> String {
            let start = src.find(header).unwrap();
            let end = src[start + header.len()..]
                .find("\n[")
                .map(|i| start + header.len() + i)
                .unwrap_or(src.len());
            src[start..end].to_string()
        };
        let spliced = fig3.replace(&cut(fig3, "[topology]"), &cut(fig1, "[topology]"));
        let e = parse_grid(&spliced).unwrap_err();
        assert!(
            e.message
                .contains("`isender-exact` cannot run over a cellular topology"),
            "got: {e}"
        );
    }

    /// A two-flow line graph (a → b → c) for the graph decode tests,
    /// with splice points for the flow list, workload, and a trailing
    /// axis.
    fn graph_spec(flows: &str, workload: &str, extra: &str) -> String {
        format!(
            "[scenario]\n\
             name = \"g\"\n\
             duration_s = 1.0\n\
             base_seed = 1\n\
             \n\
             [topology]\n\
             kind = \"graph\"\n\
             packet_bits = 12000\n\
             nodes = [\"a\", \"b\", \"c\"]\n\
             links = [\n\
             \x20 {{ name = \"ab\", from = \"a\", to = \"b\", bps = 24000, delay_s = 0.0, buffer_bits = 96000 }},\n\
             \x20 {{ name = \"ba\", from = \"b\", to = \"a\", bps = 24000, delay_s = 0.0, buffer_bits = 96000 }},\n\
             \x20 {{ name = \"bc\", from = \"b\", to = \"c\", bps = 24000, delay_s = 0.0, buffer_bits = 96000 }},\n\
             ]\n\
             flows = [\n{flows}\n]\n\
             \n\
             [prior]\n\
             kind = \"small\"\n\
             \n\
             [sender]\n\
             kind = \"isender-exact\"\n\
             alpha = 1.0\n\
             latency_penalty = 0.0\n\
             max_branches = 100\n\
             \n\
             [workload]\n{workload}\n{extra}"
        )
    }

    const LINE_FLOWS: &str =
        "  { name = \"f0\", class = \"primary\", src = \"a\", dst = \"c\" },\n\
                              \x20 { name = \"f1\", class = \"cross\", src = \"b\", dst = \"c\" },";
    const ONE_PEER: &str =
        "kind = \"coexist\"\npeers = [\n  { kind = \"aimd\", timeout_s = 8.0 },\n]";

    #[test]
    fn graph_spec_parses_and_round_trips() {
        let grid = parse_grid(&graph_spec(LINE_FLOWS, ONE_PEER, "")).unwrap();
        let TopologySpec::Graph(g) = &grid.base.topology else {
            panic!("unexpected topology {:?}", grid.base.topology)
        };
        assert_eq!(g.nodes, ["a", "b", "c"]);
        assert_eq!((g.links.len(), g.flows.len()), (3, 2));
        assert!(g.links.iter().all(|l| l.queue == QueueSpec::DropTail));
    }

    #[test]
    fn graph_unreachable_destination_names_the_flow() {
        // No link leaves c, so c → a cannot route.
        let flows = LINE_FLOWS.replace("src = \"b\", dst = \"c\"", "src = \"c\", dst = \"a\"");
        let e = parse_grid(&graph_spec(&flows, ONE_PEER, "")).unwrap_err();
        assert!(
            e.message
                .contains("flow \"f1\": destination \"a\" is unreachable from \"c\""),
            "got: {e}"
        );
        assert!(e.line > 0, "topology errors carry a position");
    }

    #[test]
    fn graph_routing_cycle_names_the_flow_and_node() {
        // An explicit path that revisits a node is a routing cycle, not
        // a runtime assert in Network::route.
        let flows = LINE_FLOWS.replace(
            "{ name = \"f0\", class = \"primary\", src = \"a\", dst = \"c\" }",
            "{ name = \"f0\", class = \"primary\", src = \"a\", dst = \"c\", \
             path = [\"a\", \"b\", \"a\", \"b\", \"c\"] }",
        );
        let e = parse_grid(&graph_spec(&flows, ONE_PEER, "")).unwrap_err();
        assert!(
            e.message
                .contains("routing cycle: flow \"f0\" visits node \"a\" twice"),
            "got: {e}"
        );
    }

    #[test]
    fn graph_flow_count_must_match_the_agent_count() {
        let peers = ONE_PEER.replace(
            "peers = [\n  { kind = \"aimd\", timeout_s = 8.0 },",
            "peers = [\n  { kind = \"aimd\", timeout_s = 8.0 },\n\
             \x20 { kind = \"aimd\", timeout_s = 8.0 },",
        );
        let e = parse_grid(&graph_spec(LINE_FLOWS, &peers, "")).unwrap_err();
        assert!(
            e.message
                .contains("declares 2 flows but this workload drives 3 agents"),
            "got: {e}"
        );
    }

    #[test]
    fn graph_rejects_non_coexist_workloads() {
        let e = parse_grid(&graph_spec(
            LINE_FLOWS,
            "kind = \"scripted-ping\"\ninterval_s = 1.0",
            "",
        ))
        .unwrap_err();
        assert!(
            e.message
                .contains("graph topologies only support the coexist workload"),
            "got: {e}"
        );
    }

    #[test]
    fn model_only_axis_over_graph_is_rejected_at_decode_time() {
        // Pre-`try_model` this panicked inside `Axis::apply` mid-sweep;
        // now it is a positioned spec error at --check time.
        let e = parse_grid(&graph_spec(
            LINE_FLOWS,
            ONE_PEER,
            "\n[[axis]]\nkind = \"link-rate\"\nvalues = [24000, 48000]\n",
        ))
        .unwrap_err();
        assert!(
            e.message
                .contains("a link_bps axis requires a model topology, got graph"),
            "got: {e}"
        );
    }

    /// The canonical fig1 spec with its schedule's `steps` list replaced
    /// — the vehicle for the malformed-schedule decode tests.
    fn fig1_with_steps(steps: &str) -> String {
        let toml = shipped("fig1");
        let start = toml.find("steps = [").expect("fig1 has a schedule");
        let end = toml[start..].find(']').map(|i| start + i + 1).unwrap();
        format!("{}{}{}", &toml[..start], steps, &toml[end..])
    }

    #[test]
    fn unsorted_schedule_offsets_are_rejected_at_decode_time() {
        // Before this check lived in the decoder, `--check` accepted the
        // file and the run panicked inside `Link::new`.
        let toml = fig1_with_steps(
            "steps = [{ at_s = 0.0, bps = 1000 }, { at_s = 9.0, bps = 2000 }, \
             { at_s = 4.0, bps = 3000 }]",
        );
        let e = parse_grid(&toml).unwrap_err();
        assert!(e.message.contains("strictly increasing"), "got: {e}");
        assert!(e.line > 0 && e.col > 0);
    }

    #[test]
    fn schedule_first_step_must_be_at_zero() {
        let toml = fig1_with_steps("steps = [{ at_s = 1.0, bps = 1000 }]");
        let e = parse_grid(&toml).unwrap_err();
        assert!(e.message.contains("`at_s = 0`"), "got: {e}");
    }

    #[test]
    fn schedule_zero_period_is_rejected_at_decode_time() {
        let toml = shipped("fig1").replace("period_s = 20.0", "period_s = 0.0");
        let e = parse_grid(&toml).unwrap_err();
        assert!(
            e.message.contains("`period_s` must be positive"),
            "got: {e}"
        );
        assert!(e.line > 0 && e.col > 0);
    }

    #[test]
    fn schedule_offset_past_period_is_rejected() {
        let toml =
            fig1_with_steps("steps = [{ at_s = 0.0, bps = 1000 }, { at_s = 20.0, bps = 2000 }]");
        let e = parse_grid(&toml).unwrap_err();
        assert!(e.message.contains("does not fit in the period"), "got: {e}");
    }

    #[test]
    fn zero_rate_is_rejected_not_a_panic() {
        let toml = fig1_with_steps("steps = [{ at_s = 0.0, bps = 0 }]");
        let e = parse_grid(&toml).unwrap_err();
        assert!(e.message.contains("`bps` must be positive"), "got: {e}");
    }

    #[test]
    fn zero_rate_axis_value_is_rejected_not_a_panic() {
        // Every BitRate decode path must reject zero with a position —
        // `BitRate::from_bps(0)` would otherwise panic inside `--check`.
        let toml = format!(
            "{}\n[[axis]]\nkind = \"link-rate\"\nvalues = [0]\n",
            shipped("smoke")
        );
        let e = parse_grid(&toml).unwrap_err();
        assert!(
            e.message.contains("`values[0]` must be positive"),
            "got: {e}"
        );
    }

    #[test]
    fn inverted_fine_link_rate_range_is_rejected_at_decode_time() {
        // Before this check, `--check` passed and PriorSpec::hypotheses
        // hit a u64 subtract-overflow mid-run.
        let toml = shipped("scaling").replace("lo_bps = 8000", "lo_bps = 32000");
        let e = parse_grid(&toml).unwrap_err();
        assert!(
            e.message
                .contains("`lo_bps` (32000) must not exceed `hi_bps` (16000)"),
            "got: {e}"
        );
        assert!(e.line > 0 && e.col > 0);
    }

    #[test]
    fn zero_hypothesis_fine_prior_is_rejected_at_decode_time() {
        let toml = shipped("scaling").replace("n = 101", "n = 0");
        let e = parse_grid(&toml).unwrap_err();
        assert!(e.message.contains("`n` must be at least 1"), "got: {e}");
    }

    #[test]
    fn missing_trace_file_is_a_positioned_error() {
        let toml = shipped("fig1").replace(
            "rate = { kind = \"schedule\", period_s = 20.0, steps = [{ at_s = 0.0, bps = 4000000 }, { at_s = 8.0, bps = 1000000 }, { at_s = 14.0, bps = 250000 }, { at_s = 17.0, bps = 2000000 }] }",
            "rate = { kind = \"trace\", file = \"no-such-trace.csv\", end = \"loop\" }",
        );
        let e = parse_grid(&toml).unwrap_err();
        assert!(e.message.contains("cannot read trace file"), "got: {e}");
        assert!(e.line > 0 && e.col > 0);
    }

    #[test]
    fn unknown_trace_end_policy_lists_the_menu() {
        let toml =
            shipped("replay-cellular").replace("end = \"loop\" }\narq", "end = \"wrap\" }\narq");
        let e = parse_grid(&toml).unwrap_err();
        assert!(
            e.message
                .contains("unknown trace end policy `wrap` (expected loop, hold-last)"),
            "got: {e}"
        );
    }

    #[test]
    fn queue_axis_over_model_topology_is_rejected_with_a_position() {
        let toml = format!(
            "{}\n[[axis]]\nkind = \"queue\"\nvalues = [\n  {{ kind = \"drop-tail\" }},\n]\n",
            shipped("fig3")
        );
        let e = parse_grid(&toml).unwrap_err();
        assert!(
            e.message
                .contains("a queue axis requires a cellular topology"),
            "got: {e}"
        );
    }

    #[test]
    fn rate_trace_axis_over_model_topology_is_rejected() {
        // The axis's trace file must load before the cross-section check
        // fires, so give it a real (if tiny) trace to read.
        let dir = std::env::temp_dir().join("augur-rate-trace-axis-test");
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join("x.csv"), "time_s,bps\n0.0,1000\n1.0,2000\n").unwrap();
        let toml = format!(
            "{}\n[[axis]]\nkind = \"rate-trace\"\nvalues = [\n  {{ file = \"x.csv\", end = \"loop\" }},\n]\n",
            shipped("fig3")
        );
        let e = parse_grid_at(&toml, Some(&dir)).unwrap_err();
        assert!(
            e.message
                .contains("rate-trace axis requires a cellular topology"),
            "got: {e}"
        );
    }

    #[test]
    fn out_of_range_u32_is_an_error_not_a_wrap() {
        // 2^32 + 200000: a wrap would silently yield a valid-looking
        // 200000 ppm loss rate.
        let toml = shipped("fig3").replace("loss_ppm = 200000", "loss_ppm = 4295167296");
        let e = parse_grid(&toml).unwrap_err();
        assert!(
            e.message.contains("`loss_ppm` must fit in a u32"),
            "got: {e}"
        );
    }

    #[test]
    fn full_u64_seed_space_round_trips() {
        // >= 2^63: the seed must not pass through a signed 64-bit read.
        let toml = shipped("smoke").replace("base_seed = 0x5A0E", "base_seed = 0x9E3779B97F4A7C15");
        assert_eq!(
            parse_grid(&toml).unwrap().base.base_seed,
            0x9E37_79B9_7F4A_7C15
        );
    }

    #[test]
    fn non_ascii_strings_survive_the_byte_scanner() {
        let name = |literal: &str| {
            let toml = shipped("smoke").replace("name = \"smoke\"", &format!("name = {literal}"));
            parse_grid(&toml).unwrap().base.name
        };
        assert_eq!(name("\"café-β\""), "café-β");
        // Backslashes occur in Windows-style trace paths: an escaped one
        // stays a backslash and never decodes as the escape after it.
        assert_eq!(name(r#""a\\tb \"q\"""#), "a\\tb \"q\"");
    }

    #[test]
    fn duplicate_trace_stems_in_an_axis_are_rejected() {
        // Same stem from different directories would collapse to one
        // sweep coordinate.
        let dir = std::env::temp_dir().join("augur-dup-stem-test");
        for sub in ["a", "b"] {
            std::fs::create_dir_all(dir.join(sub)).unwrap();
            std::fs::write(
                dir.join(sub).join("x.csv"),
                "time_s,bps\n0.0,1000\n1.0,2000\n",
            )
            .unwrap();
        }
        let toml = format!(
            "{}\n[[axis]]\nkind = \"rate-trace\"\nvalues = [\n  {{ file = \"a/x.csv\", end = \"loop\" }},\n  {{ file = \"b/x.csv\", end = \"loop\" }},\n]\n",
            shipped("fig1")
        );
        let e = parse_grid_at(&toml, Some(&dir)).unwrap_err();
        assert!(
            e.message.contains("distinct file stems (`x` repeats)"),
            "got: {e}"
        );
    }

    #[test]
    fn an_axis_with_no_points_is_rejected_at_its_header() {
        // Either shape expands to zero runs, which `--check` used to
        // report as OK.
        for (name, from, to) in [
            ("smoke", "count = 4", "count = 0"),
            ("fig3", "values = [0.9, 1.0, 2.5, 5.0]", "values = []"),
        ] {
            let toml = shipped(name).replace(from, to);
            let e = parse_grid(&toml).unwrap_err();
            assert_eq!(e.message, "axis has no points", "{name}");
            let lines: Vec<&str> = toml.lines().collect();
            let header = lines.iter().rposition(|l| *l == "[[axis]]").unwrap();
            assert_eq!((e.line as usize, e.col), (header + 1, 3), "{name}");
        }
    }

    #[test]
    fn errors_in_a_later_axis_point_at_that_axis() {
        let base = shipped("fig3");
        let appended_header_line = base.lines().count() as u32 + 2; // blank line, then [[axis]]
        let toml = format!("{base}\n[[axis]]\nkind = \"seeds\"\n");
        let e = parse_grid(&toml).unwrap_err();
        assert!(e.message.contains("missing key `count`"), "got: {e}");
        assert_eq!(
            e.line, appended_header_line,
            "error should point at the second [[axis]] header, got: {e}"
        );
    }
}
