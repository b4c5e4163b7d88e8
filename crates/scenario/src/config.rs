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
//! reference answered by that file's text as [`traces::SHIPPED`]
//! compiles it in, so a preset needs no file on disk. There is no
//! writer: a sweep is changed by editing its spec file, a trace by
//! editing its CSV.
//!
//! This module owns the format — what each key and `kind` is and what
//! one value may be — and no rule about how sections and axes fit
//! together: those live in [`SweepGrid::validate`], which every decoded
//! grid must pass, and all the decoder adds is the position of the
//! section or axis a broken rule blames.
#![deny(clippy::unwrap_used, clippy::expect_used)]
#![deny(clippy::panic, clippy::unreachable)]

use crate::grid::{rate_point_label, Axis, SweepGrid};
use crate::spec::{
    Blame, CoexistSpec, ManyFlowSpec, PeerSpec, PriorSpec, QueueSpec, RuleError, ScenarioSpec,
    SenderSpec, TopologySpec, WorkloadSpec,
};
use crate::traces;
use augur_elements::{CellularParams, GateSpec, ModelParams, RateProcess, TraceEnd};
use augur_inference::ModelPrior;
use augur_obs::ObsConfig;
use augur_sim::{BitRate, Bits, Dur, Ppm};
use augur_topo::{FlowSpec, GraphTopology, LinkSpec};
use std::borrow::Cow;
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

impl Value {
    /// An error at this value.
    fn bad<T>(&self, message: impl Into<String>) -> Result<T, ConfigError> {
        err(self.line, self.col, message)
    }
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
        // The table `key = value` lines currently land in: the root until
        // the first header, then whatever the latest header opened.
        let mut current = &mut root;
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
                current = open_table(&mut root, &path, is_array)?;
            } else {
                let (key, kline, kcol) = self.bare_key()?;
                self.skip_ws();
                if self.bump() != Some(b'=') {
                    return err(self.line, self.col, format!("expected `=` after `{key}`"));
                }
                self.skip_ws();
                let value = self.value()?;
                self.expect_eol()?;
                if current.get(&key).is_some() {
                    return err(kline, kcol, format!("duplicate key `{key}`"));
                }
                current.entries.push(Entry {
                    key,
                    line: kline,
                    col: kcol,
                    value,
                });
            }
        }
    }
}

/// Apply a `[path]` or `[[path]]` header to the document tree — creating
/// implicit parent tables as needed and entering the last element of any
/// array-of-tables on the way — and return the table it opens.
fn open_table<'t>(
    root: &'t mut Table,
    path: &[(String, u32, u32)],
    is_array: bool,
) -> Result<&'t mut Table, ConfigError> {
    let mut t = root;
    for (i, (seg, line, col)) in path.iter().enumerate() {
        let (line, col) = (*line, *col);
        let last = i + 1 == path.len();
        let fresh = |explicit| Table {
            explicit,
            line,
            col,
            ..Table::default()
        };
        // A new name enters the tree unopened — an implicit table, or an
        // array with no element yet — so the arms below open fresh and
        // existing entries the same way.
        let idx = match t.entries.iter().position(|e| &e.key == seg) {
            Some(idx) => idx,
            None => {
                let payload = if last && is_array {
                    Payload::TableArray(Vec::new())
                } else {
                    Payload::Table(fresh(false))
                };
                t.entries.push(Entry {
                    key: seg.clone(),
                    line,
                    col,
                    value: Value { line, col, payload },
                });
                t.entries.len() - 1
            }
        };
        t = match &mut t.entries[idx].value.payload {
            Payload::Table(sub) => {
                if last && is_array {
                    return err(
                        line,
                        col,
                        format!("`{seg}` is a table, not an array of tables"),
                    );
                }
                if last && sub.explicit {
                    return err(line, col, format!("duplicate table [{seg}]"));
                }
                sub.explicit |= last;
                sub
            }
            Payload::TableArray(subs) => {
                if last && !is_array {
                    return err(line, col, format!("duplicate table [{seg}]"));
                }
                if last {
                    subs.push(fresh(true));
                }
                match subs.last_mut() {
                    Some(sub) => sub,
                    None => return err(line, col, format!("`{seg}` has no table to extend")),
                }
            }
            other => {
                return err(
                    line,
                    col,
                    format!("key `{seg}` is a {}, not a table", other.type_name()),
                )
            }
        };
    }
    Ok(t)
}

// ---------------------------------------------------------------------
// Typed decoding.
// ---------------------------------------------------------------------

/// One arm of a `kind = "…"` menu: the name and the decoder of the
/// keys that kind carries.
type Arm<'f, T> = (
    &'static str,
    &'f dyn Fn(&mut Dec<'_>) -> Result<T, ConfigError>,
);

/// A table being decoded: errors about a missing key point at the table,
/// and it tracks which keys the decoder consumed so [`Dec::finish`] can
/// flag the first unknown one.
struct Dec<'a> {
    table: &'a Table,
    /// Context name for messages, e.g. `sender` or `axis`.
    ctx: String,
    used: Vec<bool>,
}

impl<'a> Dec<'a> {
    fn new(table: &'a Table, ctx: &str) -> Dec<'a> {
        Dec {
            table,
            ctx: ctx.to_string(),
            used: vec![false; table.entries.len()],
        }
    }

    /// Decode the table that `v` must be; `what` names it in messages.
    fn table(v: &'a Value, what: &str) -> Result<Dec<'a>, ConfigError> {
        match &v.payload {
            Payload::Table(t) => Ok(Dec::new(t, what)),
            _ => mismatch(v, "table", what),
        }
    }

    fn get(&mut self, key: &str) -> Option<&'a Value> {
        let idx = self.table.entries.iter().position(|e| e.key == key)?;
        self.used[idx] = true;
        Some(&self.table.entries[idx].value)
    }

    /// An error at `key`'s value — at the table itself if it has no such
    /// key.
    fn bad<T>(&self, key: &str, message: impl Into<String>) -> Result<T, ConfigError> {
        match self.table.get(key) {
            Some(e) => e.value.bad(message),
            None => err(self.table.line, self.table.col, message),
        }
    }

    fn req(&mut self, key: &str) -> Result<&'a Value, ConfigError> {
        match self.get(key) {
            Some(v) => Ok(v),
            None => self.bad(key, format!("missing key `{key}` in [{}]", self.ctx)),
        }
    }

    /// The required `key`, decoded by `read`.
    fn field<T>(
        &mut self,
        key: &str,
        read: impl FnOnce(&'a Value, &str) -> Result<T, ConfigError>,
    ) -> Result<T, ConfigError> {
        read(self.req(key)?, key)
    }

    /// The optional `key`, decoded by `read` when present.
    fn opt<T>(
        &mut self,
        key: &str,
        read: impl FnOnce(&'a Value, &str) -> Result<T, ConfigError>,
    ) -> Result<Option<T>, ConfigError> {
        self.get(key).map(|v| read(v, key)).transpose()
    }

    /// The required array `key`, its elements decoded by `read`.
    fn list<T>(
        &mut self,
        key: &str,
        read: impl Fn(&'a Value, &str) -> Result<T, ConfigError>,
    ) -> Result<Vec<T>, ConfigError> {
        self.field(key, each(read))
    }

    /// Dispatch on the string `key` through `arms`. The menu an unknown
    /// name is answered with is the arms themselves.
    fn choose<T>(&mut self, key: &str, noun: &str, arms: &[Arm<'_, T>]) -> Result<T, ConfigError> {
        let name = self.field(key, read_str)?;
        match arms.iter().find(|(arm, _)| *arm == name) {
            Some((_, decode)) => decode(self),
            None => {
                let menu: Vec<&str> = arms.iter().map(|(arm, _)| *arm).collect();
                self.bad(
                    key,
                    format!("unknown {noun} `{name}` (expected {})", menu.join(", ")),
                )
            }
        }
    }

    /// Decode a whole `{ kind = "…", … }` table: [`Dec::choose`] on
    /// `kind`, then [`Dec::finish`].
    fn by_kind<T>(mut self, noun: &str, arms: &[Arm<'_, T>]) -> Result<T, ConfigError> {
        let out = self.choose("kind", noun, arms)?;
        self.finish()?;
        Ok(out)
    }

    /// Error on the first key no decoder consumed.
    fn finish(&self) -> Result<(), ConfigError> {
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

fn mismatch<T>(v: &Value, expected: &str, what: &str) -> Result<T, ConfigError> {
    let found = v.payload.type_name();
    v.bad(format!("expected {expected} for `{what}`, found {found}"))
}

fn read_f64(v: &Value, what: &str) -> Result<f64, ConfigError> {
    match v.payload {
        Payload::Float(f) => Ok(f),
        // Integers coerce: `alpha = 1` is unambiguous.
        Payload::Int(i) => Ok(i as f64),
        _ => mismatch(v, "float", what),
    }
}

/// A checked integer read — an out-of-range value is an authoring error,
/// never a silent wrap.
fn read_int<T: TryFrom<i128>>(v: &Value, what: &str, ty: &str) -> Result<T, ConfigError> {
    let Payload::Int(i) = v.payload else {
        return mismatch(v, "integer", what);
    };
    T::try_from(i).or_else(|_| v.bad(format!("`{what}` must fit in a {ty}, got {i}")))
}

fn read_u64(v: &Value, what: &str) -> Result<u64, ConfigError> {
    read_int(v, what, "u64")
}

fn read_u32(v: &Value, what: &str) -> Result<u32, ConfigError> {
    read_int(v, what, "u32")
}

/// A population size (branch cap, particle count, prior size) or a TCP
/// window cap: a zero population leaves the belief engine nothing to
/// normalize, so it panics mid-run, and a zero window never sends.
fn read_count(v: &Value, what: &str) -> Result<usize, ConfigError> {
    match read_u64(v, what)? {
        0 => v.bad(format!("`{what}` must be at least 1, got 0")),
        n => Ok(n as usize),
    }
}

/// A concurrent-flow count: every flow needs its own 16-bit wire id.
fn read_flow_count(v: &Value, what: &str) -> Result<usize, ConfigError> {
    match read_u64(v, what)? {
        n @ 1..=0x1_0000 => Ok(n as usize),
        n => v.bad(format!(
            "`{what}` must be between 1 and 65536 (wire flow ids are u16), got {n}"
        )),
    }
}

fn read_bool(v: &Value, what: &str) -> Result<bool, ConfigError> {
    match v.payload {
        Payload::Bool(b) => Ok(b),
        _ => mismatch(v, "boolean", what),
    }
}

fn read_str<'a>(v: &'a Value, what: &str) -> Result<&'a str, ConfigError> {
    match &v.payload {
        Payload::Str(s) => Ok(s),
        _ => mismatch(v, "string", what),
    }
}

fn read_string(v: &Value, what: &str) -> Result<String, ConfigError> {
    read_str(v, what).map(str::to_string)
}

fn read_array<'a>(v: &'a Value, what: &str) -> Result<&'a [Value], ConfigError> {
    match &v.payload {
        Payload::Array(items) => Ok(items),
        _ => mismatch(v, "array", what),
    }
}

/// The reader of an array whose elements `read` decodes, naming them
/// `what[i]` in messages.
fn each<'a, T>(
    read: impl Fn(&'a Value, &str) -> Result<T, ConfigError>,
) -> impl Fn(&'a Value, &str) -> Result<Vec<T>, ConfigError> {
    move |v, what| {
        let item = |(i, item)| read(item, &format!("{what}[{i}]"));
        read_array(v, what)?.iter().enumerate().map(item).collect()
    }
}

/// A length of simulated time in float seconds, kept as whole
/// microseconds — a value past `u64` microseconds would otherwise
/// saturate silently in [`Dur::from_secs_f64`].
/// `s` seconds on the microsecond grid, or what is wrong with it — the
/// one range rule for every time in a spec or trace file.
pub(crate) fn seconds(s: f64) -> Result<Dur, String> {
    if !s.is_finite() || s < 0.0 {
        Err(format!("must be >= 0 seconds, got {s}"))
    } else if s * 1e6 >= u64::MAX as f64 {
        Err(format!(
            "= {s:e} seconds does not fit in 64-bit microseconds"
        ))
    } else {
        Ok(Dur::from_secs_f64(s))
    }
}

/// `s` seconds on the microsecond grid when that is more than zero and
/// fits in 64-bit microseconds, or what is wrong with it — the time rule a
/// spec file's times follow, plus `> 0`. A spec's `snapshot_every_s` and
/// the `sweep` binary's `--duration` and `--belief-snapshots` are read by
/// this one rule.
pub fn positive_seconds(s: f64) -> Result<Dur, String> {
    match seconds(s)? {
        Dur::ZERO => Err(format!("must be > 0 seconds, got {s}")),
        d => Ok(d),
    }
}

fn read_seconds(v: &Value, what: &str) -> Result<Dur, ConfigError> {
    seconds(read_f64(v, what)?).or_else(|m| v.bad(format!("`{what}` {m}")))
}

/// A positive bits-per-second read — [`BitRate::from_bps`] panics on
/// zero, so the decoder must reject it with a positioned error first.
fn read_bps(v: &Value, what: &str) -> Result<BitRate, ConfigError> {
    match read_u64(v, what)? {
        0 => v.bad(format!("`{what}` must be positive")),
        bps => Ok(BitRate::from_bps(bps)),
    }
}

fn read_bits(v: &Value, what: &str) -> Result<Bits, ConfigError> {
    read_u64(v, what).map(Bits::new)
}

/// A packet size: a packet of no bits is never sent, and at the slowest
/// rate there is (1 b/s) a packet must still serve in 64-bit microseconds.
fn read_packet_bits(v: &Value, what: &str) -> Result<Bits, ConfigError> {
    const MAX: u64 = u64::MAX / 1_000_000;
    match read_u64(v, what)? {
        n @ 1..=MAX => Ok(Bits::new(n)),
        n => v.bad(format!("`{what}` must be between 1 and {MAX}, got {n}")),
    }
}

/// A probability in parts per million.
fn read_ppm(v: &Value, what: &str) -> Result<Ppm, ConfigError> {
    match read_u32(v, what)? {
        n @ 0..=1_000_000 => Ok(Ppm::new(n)),
        n => v.bad(format!(
            "`{what}` must be at most 1000000 (a probability), got {n}"
        )),
    }
}

/// A positive length of simulated time.
fn read_positive_seconds(v: &Value, what: &str) -> Result<Dur, ConfigError> {
    match read_seconds(v, what)? {
        Dur::ZERO => v.bad(format!("`{what}` must be positive")),
        d => Ok(d),
    }
}

fn decode_gate(v: &Value, what: &str) -> Result<GateSpec, ConfigError> {
    Dec::table(v, what)?.by_kind(
        "gate kind",
        &[
            ("always-on", &|_| Ok(GateSpec::AlwaysOn)),
            ("square-wave", &|d| {
                Ok(GateSpec::SquareWave {
                    half_period: d.field("half_period_s", read_positive_seconds)?,
                    initially_connected: d.field("initially_connected", read_bool)?,
                })
            }),
            ("intermittent", &|d| {
                Ok(GateSpec::Intermittent {
                    mtts: d.field("mtts_s", read_seconds)?,
                    epoch: d.field("epoch_s", read_seconds)?,
                    initially_connected: d.field("initially_connected", read_bool)?,
                })
            }),
        ],
    )
}

/// Where a `file = "…"` trace reference gets its text.
#[derive(Clone, Copy)]
enum TraceSource<'a> {
    /// The named CSV file; a relative path resolves against this
    /// directory (the current one when `None`).
    Files(Option<&'a Path>),
    /// `../traces/<stem>.csv` as [`traces::SHIPPED`] compiles it in —
    /// what the specs compiled into [`crate::presets`] load from, so
    /// decoding them reads nothing from disk.
    Embedded,
}

/// Decode the `file = "…", end = "loop" | "hold-last"` keys of a trace
/// reference, loading and validating its samples from `source`.
fn decode_trace(d: &mut Dec<'_>, source: TraceSource<'_>) -> Result<RateProcess, ConfigError> {
    let file = d.field("file", read_str)?;
    let end = d.choose(
        "end",
        "trace end policy",
        &[
            ("loop", &|_| Ok(TraceEnd::Loop)),
            ("hold-last", &|_| Ok(TraceEnd::HoldLast)),
        ],
    )?;
    // `origin` names where the text came from in error messages.
    let (src, origin) = match source {
        TraceSource::Embedded => {
            let stem = file
                .strip_prefix("../traces/")
                .and_then(|name| name.strip_suffix(".csv"));
            match stem.and_then(traces::shipped_text) {
                Some(text) => (Cow::Borrowed(text), file.to_string()),
                None => return d.bad("file", format!("no shipped trace behind {file}")),
            }
        }
        TraceSource::Files(base) => {
            let resolved = base.map_or_else(|| PathBuf::from(file), |dir| dir.join(file));
            let origin = resolved.display().to_string();
            match std::fs::read_to_string(&resolved) {
                Ok(src) => (Cow::Owned(src), origin),
                Err(e) => return d.bad("file", format!("cannot read trace file {origin}: {e}")),
            }
        }
    };
    // Loader errors are positioned inside the CSV; carry that position in
    // the message and point the spec error at the `file` value.
    let samples = match traces::parse_trace_csv(&src) {
        Ok(samples) => samples,
        Err(te) => return d.bad("file", format!("{origin}:{te}")),
    };
    let rate = RateProcess::Trace {
        label: file.to_string(),
        samples,
        end,
    };
    match rate.check() {
        Ok(()) => Ok(rate),
        Err(message) => d.bad("file", format!("{origin}: {message}")),
    }
}

/// The `period_s` and `steps` keys of a rate schedule. Every invariant
/// violation points at the offending step — `--check` must reject here
/// what `Link::new` would otherwise panic on.
fn decode_schedule(d: &mut Dec<'_>) -> Result<RateProcess, ConfigError> {
    let period = d.field("period_s", read_positive_seconds)?;
    let mut steps: Vec<(Dur, BitRate)> = Vec::new();
    for (i, sv) in d.field("steps", read_array)?.iter().enumerate() {
        let mut sd = Dec::table(sv, &format!("steps[{i}]"))?;
        let at = sd.field("at_s", read_seconds)?;
        let bps = sd.field("bps", read_bps)?;
        sd.finish()?;
        match steps.last() {
            None if at != Dur::ZERO => return sv.bad("the first step must have `at_s = 0`"),
            Some(&(prev, _)) if at <= prev => {
                return sv.bad(format!(
                    "step offsets must be strictly increasing ({at} after {prev})"
                ))
            }
            _ if at >= period => {
                return sv.bad(format!(
                    "step offset {at} does not fit in the period {period}"
                ))
            }
            _ => steps.push((at, bps)),
        }
    }
    if steps.is_empty() {
        return d.bad("steps", "`steps` must be non-empty");
    }
    Ok(RateProcess::Schedule { steps, period })
}

fn decode_rate(v: &Value, what: &str, source: TraceSource<'_>) -> Result<RateProcess, ConfigError> {
    Dec::table(v, what)?.by_kind(
        "rate kind",
        &[
            ("constant", &|d| {
                d.field("bps", read_bps).map(RateProcess::Const)
            }),
            ("schedule", &decode_schedule),
            ("trace", &|d| decode_trace(d, source)),
        ],
    )
}

fn decode_queue(v: &Value, what: &str) -> Result<QueueSpec, ConfigError> {
    Dec::table(v, what)?.by_kind(
        "queue kind",
        &[
            ("drop-tail", &|_| Ok(QueueSpec::DropTail)),
            ("red", &|d| {
                Ok(QueueSpec::Red {
                    min_th: d.field("min_th_bits", read_bits)?,
                    max_th: d.field("max_th_bits", read_bits)?,
                    max_p: d.field("max_p_ppm", read_ppm)?,
                    w_shift: d.field("w_shift", read_u32)?,
                })
            }),
            ("codel", &|d| {
                Ok(QueueSpec::CoDel {
                    target: d.field("target_s", read_seconds)?,
                    interval: d.field("interval_s", read_seconds)?,
                })
            }),
        ],
    )
}

/// One `{ name, from, to, bps, delay_s, buffer_bits[, queue] }` link of
/// a graph topology; `queue` defaults to drop-tail.
fn decode_link(v: &Value, what: &str) -> Result<LinkSpec, ConfigError> {
    let mut d = Dec::table(v, what)?;
    let link = LinkSpec {
        name: d.field("name", read_string)?,
        from: d.field("from", read_string)?,
        to: d.field("to", read_string)?,
        rate: d.field("bps", read_bps)?,
        delay: d.field("delay_s", read_seconds)?,
        buffer: d.field("buffer_bits", read_bits)?,
        queue: d.opt("queue", decode_queue)?.unwrap_or(QueueSpec::DropTail),
    };
    d.finish()?;
    Ok(link)
}

/// One `{ name, class, src, dst[, path] }` flow of a graph topology;
/// without `path` the compiler routes it over the fewest hops.
fn decode_flow(v: &Value, what: &str) -> Result<FlowSpec, ConfigError> {
    let mut d = Dec::table(v, what)?;
    let flow = FlowSpec {
        name: d.field("name", read_string)?,
        class: d.field("class", read_string)?,
        src: d.field("src", read_string)?,
        dst: d.field("dst", read_string)?,
        path: d.opt("path", each(read_string))?,
    };
    d.finish()?;
    Ok(flow)
}

fn decode_topology(
    v: &Value,
    what: &str,
    source: TraceSource<'_>,
) -> Result<TopologySpec, ConfigError> {
    Dec::table(v, what)?.by_kind(
        "topology kind",
        &[
            ("model", &|d| {
                Ok(TopologySpec::Model(ModelParams {
                    link_rate: d.field("link_bps", read_bps)?,
                    cross_rate: d.field("cross_bps", read_bps)?,
                    gate: d.field("gate", decode_gate)?,
                    loss: d.field("loss_ppm", read_ppm)?,
                    buffer_capacity: d.field("buffer_bits", read_bits)?,
                    initial_fullness: d.field("initial_fullness_bits", read_bits)?,
                    packet_size: d.field("packet_bits", read_packet_bits)?,
                    cross_active: d.field("cross_active", read_bool)?,
                }))
            }),
            ("cellular", &|d| {
                Ok(TopologySpec::Cellular {
                    params: CellularParams {
                        buffer_capacity: d.field("buffer_bits", read_bits)?,
                        rate: d.field("rate", |v, what| decode_rate(v, what, source))?,
                        arq_loss: d.field("arq_loss_ppm", read_ppm)?,
                        arq_retry_delay: d.field("arq_retry_delay_s", read_seconds)?,
                        propagation: d.field("propagation_s", read_seconds)?,
                    },
                    queue: d.field("queue", decode_queue)?,
                })
            }),
            ("graph", &|d| {
                let g = GraphTopology {
                    nodes: d.list("nodes", read_string)?,
                    links: d.list("links", decode_link)?,
                    flows: d.list("flows", decode_flow)?,
                    packet_size: d.field("packet_bits", read_packet_bits)?,
                };
                // Routing problems (unknown nodes, cycles, unreachable
                // destinations, …) are authoring errors: surface them
                // here, at `--check` time, not as a runner panic mid-sweep.
                match augur_topo::validate(&g) {
                    Ok(()) => Ok(TopologySpec::Graph(g)),
                    Err(e) => err(
                        d.table.line,
                        d.table.col,
                        format!("invalid graph topology: {e}"),
                    ),
                }
            }),
        ],
    )
}

fn decode_prior(v: &Value, what: &str) -> Result<PriorSpec, ConfigError> {
    Dec::table(v, what)?.by_kind(
        "prior kind",
        &[
            ("paper", &|_| Ok(PriorSpec::Paper)),
            ("small", &|_| Ok(PriorSpec::Small)),
            ("fine-link-rate", &|d| {
                // PriorSpec::hypotheses asserts these at run time;
                // `--check` must reject them here with a position instead.
                let n = d.field("n", read_count)?;
                let lo_bps = d.field("lo_bps", read_u64)?;
                let hi_bps = d.field("hi_bps", read_u64)?;
                if lo_bps > hi_bps {
                    return d.bad(
                        "lo_bps",
                        format!("`lo_bps` ({lo_bps}) must not exceed `hi_bps` ({hi_bps})"),
                    );
                }
                // The grid's fastest link must take at least a microsecond,
                // the simulation's tick, to serve its 1500-byte packet.
                const FASTEST: u64 = 12_000 * 1_000_000;
                if hi_bps > FASTEST {
                    return d.bad(
                        "hi_bps",
                        format!(
                            "`hi_bps` ({hi_bps}) must be at most {FASTEST}: faster links serve a \
                             packet in under 1 µs"
                        ),
                    );
                }
                Ok(PriorSpec::FineLinkRate { n, lo_bps, hi_bps })
            }),
            ("custom", &|d| {
                Ok(PriorSpec::Custom(ModelPrior {
                    link_rates: d.list("link_rates_bps", read_bps)?,
                    cross_fracs_ppm: d.list("cross_fracs_ppm", read_u32)?,
                    losses: d.list("losses_ppm", read_ppm)?,
                    buffer_capacities: d.list("buffer_capacities_bits", read_bits)?,
                    fullness_step: d.opt("fullness_step_bits", read_bits)?,
                    gate_initial: d.list("gate_initial", read_bool)?,
                    mtts: d.field("mtts_s", read_seconds)?,
                    epoch: d.field("epoch_s", read_seconds)?,
                    packet_size: d.field("packet_bits", read_packet_bits)?,
                    cross_active: d.field("cross_active", read_bool)?,
                }))
            }),
        ],
    )
}

fn decode_sender(v: &Value, what: &str) -> Result<SenderSpec, ConfigError> {
    Dec::table(v, what)?.by_kind(
        "sender kind",
        &[
            ("isender-exact", &|d| {
                Ok(SenderSpec::IsenderExact {
                    alpha: d.field("alpha", read_f64)?,
                    latency_penalty: d.field("latency_penalty", read_f64)?,
                    max_branches: d.field("max_branches", read_count)?,
                })
            }),
            ("isender-particle", &|d| {
                Ok(SenderSpec::IsenderParticle {
                    alpha: d.field("alpha", read_f64)?,
                    latency_penalty: d.field("latency_penalty", read_f64)?,
                    n_particles: d.field("n_particles", read_count)?,
                })
            }),
            ("tcp-reno", &|d| {
                let max_window = d.field("max_window", read_count)? as u64;
                Ok(SenderSpec::TcpReno { max_window })
            }),
            ("tcp-cubic", &|d| {
                let max_window = d.field("max_window", read_count)? as u64;
                Ok(SenderSpec::TcpCubic { max_window })
            }),
        ],
    )
}

fn decode_peer(v: &Value, what: &str) -> Result<PeerSpec, ConfigError> {
    Dec::table(v, what)?.by_kind(
        "peer kind",
        &[
            ("isender", &|d| {
                let alpha = d.field("alpha", read_f64)?;
                Ok(PeerSpec::Isender { alpha })
            }),
            ("aimd", &|d| {
                let timeout = d.field("timeout_s", read_positive_seconds)?;
                Ok(PeerSpec::Aimd { timeout })
            }),
            ("tcp-reno", &|d| {
                let max_window = d.field("max_window", read_count)? as u64;
                Ok(PeerSpec::TcpReno { max_window })
            }),
            ("tcp-cubic", &|d| {
                let max_window = d.field("max_window", read_count)? as u64;
                Ok(PeerSpec::TcpCubic { max_window })
            }),
        ],
    )
}

fn decode_workload(v: &Value, what: &str) -> Result<WorkloadSpec, ConfigError> {
    Dec::table(v, what)?.by_kind(
        "workload kind",
        &[
            ("closed-loop", &|_| Ok(WorkloadSpec::ClosedLoop)),
            ("scripted-ping", &|d| {
                let interval = d.field("interval_s", read_seconds)?;
                Ok(WorkloadSpec::ScriptedPing { interval })
            }),
            ("coexist", &|d| {
                let peers = d.list("peers", decode_peer)?;
                if peers.is_empty() {
                    return d.bad("peers", "`peers` must name at least one competitor");
                }
                Ok(WorkloadSpec::Coexist(CoexistSpec { peers }))
            }),
            ("many-flows", &|d| {
                let flows = d.field("flows", read_flow_count)?;
                let mix = d.list("mix", decode_peer)?;
                if mix.is_empty() {
                    return d.bad("mix", "`mix` must name at least one agent kind");
                }
                if mix.iter().any(|p| matches!(p, PeerSpec::Isender { .. })) {
                    return d.bad(
                        "mix",
                        "`mix` agents must be belief-free (aimd, tcp-reno, tcp-cubic) — a \
                         many-flow run cannot carry one belief engine per flow",
                    );
                }
                Ok(WorkloadSpec::ManyFlows(ManyFlowSpec { flows, mix }))
            }),
        ],
    )
}

/// `[observe]` — optional observability arming: `trace_events` records
/// the structured event stream, `snapshot_every_s` sets the posterior
/// snapshot cadence. Both default off, matching `ObsConfig::default()`.
fn decode_observe(v: &Value, what: &str) -> Result<ObsConfig, ConfigError> {
    let mut d = Dec::table(v, what)?;
    let every = |v: &Value, what: &str| {
        positive_seconds(read_f64(v, what)?)
            .or_else(|m| v.bad(format!("`{what}` {m} (omit the key to disable snapshots)")))
    };
    let spec = ObsConfig {
        trace_events: d.opt("trace_events", read_bool)?.unwrap_or_default(),
        snapshot_every: d.opt("snapshot_every_s", every)?,
    };
    d.finish()?;
    Ok(spec)
}

/// The arm of an axis kind whose points are a `values` list of what
/// `read` decodes.
fn values<T>(
    read: impl Fn(&Value, &str) -> Result<T, ConfigError>,
    wrap: fn(Vec<T>) -> Axis,
) -> impl Fn(&mut Dec<'_>) -> Result<Axis, ConfigError> {
    move |d| d.list("values", &read).map(wrap)
}

fn decode_axis(t: &Table, source: TraceSource<'_>) -> Result<Axis, ConfigError> {
    let axis = Dec::new(t, "axis").by_kind(
        "axis kind",
        &[
            ("alpha", &values(read_f64, Axis::Alpha)),
            ("latency-penalty", &values(read_f64, Axis::LatencyPenalty)),
            ("link-rate", &values(read_bps, Axis::LinkRate)),
            ("cross-rate", &values(read_bps, Axis::CrossRate)),
            ("buffer-capacity", &values(read_bits, Axis::BufferCapacity)),
            (
                "initial-fullness",
                &values(read_bits, Axis::InitialFullness),
            ),
            ("loss", &values(read_ppm, Axis::Loss)),
            ("sender", &values(decode_sender, Axis::Sender)),
            ("peer", &values(decode_peer, Axis::Peer)),
            ("queue", &values(decode_queue, Axis::Queue)),
            ("rate-trace", &|d| {
                let rates = d.list("values", |v, what| {
                    let mut vd = Dec::table(v, what)?;
                    let rate = decode_trace(&mut vd, source)?;
                    vd.finish()?;
                    Ok(rate)
                })?;
                // Sweep coordinates label each point by the trace's file
                // stem; two points sharing a stem would be
                // indistinguishable in every report row.
                let mut stems: Vec<String> = rates.iter().map(rate_point_label).collect();
                stems.sort();
                if let Some(dup) = stems.windows(2).find(|w| w[0] == w[1]) {
                    return d.bad(
                        "values",
                        format!(
                            "rate-trace axis points must have distinct file stems (`{}` repeats)",
                            dup[0]
                        ),
                    );
                }
                Ok(Axis::RateTrace(rates))
            }),
            ("prior-size", &values(read_count, Axis::PriorSize)),
            ("flows", &values(read_flow_count, Axis::Flows)),
            ("seeds", &|d| {
                let count = d.field("count", read_u64)?;
                Ok(Axis::Seeds(count as usize))
            }),
        ],
    )?;
    // An empty axis empties the whole grid: `--check` would print OK for
    // a sweep of zero runs.
    if axis.is_empty() {
        return err(t.line, t.col, "axis has no points");
    }
    Ok(axis)
}

/// Parse spec-file text into a [`SweepGrid`] that has passed
/// [`SweepGrid::validate`]. Relative trace-file paths resolve against
/// the current directory; use [`parse_grid_at`] (or [`load_grid`]) to
/// resolve them against the spec file instead.
pub fn parse_grid(src: &str) -> Result<SweepGrid, ConfigError> {
    parse_grid_at(src, None)
}

/// [`parse_grid`] with an explicit base directory for relative paths in
/// the spec (trace files) — [`load_grid`] passes the spec file's parent.
pub fn parse_grid_at(src: &str, base: Option<&Path>) -> Result<SweepGrid, ConfigError> {
    decode_grid(src, TraceSource::Files(base))
}

/// Decode a spec compiled into [`crate::presets`]: its trace references
/// load from [`traces::SHIPPED`], so no file is read and the working
/// directory does not matter.
pub(crate) fn parse_embedded(src: &str) -> Result<SweepGrid, ConfigError> {
    decode_grid(src, TraceSource::Embedded)
}

fn decode_grid(src: &str, source: TraceSource<'_>) -> Result<SweepGrid, ConfigError> {
    let root = Parser::new(src).parse_document()?;
    let mut d = Dec::new(&root, "root");

    let mut sd = Dec::table(d.req("scenario")?, "scenario")?;
    let name = sd.field("name", read_string)?;
    let duration = sd.field("duration_s", read_seconds)?;
    let base_seed = sd.field("base_seed", read_u64)?;
    sd.finish()?;

    let topology = d.field("topology", |v, what| decode_topology(v, what, source))?;
    let prior = d.field("prior", decode_prior)?;
    let sender = d.field("sender", decode_sender)?;
    let workload = d.field("workload", decode_workload)?;
    let observe = d.opt("observe", decode_observe)?.unwrap_or_default();

    // Each [[axis]] table carries its own header position, so an error
    // in the third axis points at the third header.
    let axis_tables: &[Table] = match d.get("axis").map(|v| &v.payload) {
        None => &[],
        Some(Payload::TableArray(tables)) => tables,
        Some(other) => {
            let found = other.type_name();
            return d.bad(
                "axis",
                format!("expected `[[axis]]` array of tables, found {found}"),
            );
        }
    };
    let axes = axis_tables
        .iter()
        .map(|t| decode_axis(t, source))
        .collect::<Result<Vec<Axis>, ConfigError>>()?;
    d.finish()?;

    let grid = SweepGrid {
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
    };
    // Every rule that spans sections or axes lives in
    // `SweepGrid::validate`; all this adds is where in the file the part
    // it blames is — a section's header, or the k-th `[[axis]]` one.
    let Err(RuleError { blame, rule }) = grid.validate() else {
        return Ok(grid);
    };
    match (blame, axis_tables) {
        (Blame::Scenario, _) => d.bad("scenario", rule),
        (Blame::Topology, _) => d.bad("topology", rule),
        (Blame::Prior, _) => d.bad("prior", rule),
        (Blame::Sender, _) => d.bad("sender", rule),
        (Blame::Workload, _) => d.bad("workload", rule),
        (Blame::Axis(k), axes) if k < axes.len() => err(axes[k].line, axes[k].col, rule),
        (Blame::Axis(_), _) => d.bad("axis", rule),
    }
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
        assert_eq!(parse_grid(text).unwrap().base.observe, ObsConfig::default());
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
            ObsConfig {
                trace_events: true,
                snapshot_every: every,
            }
        );
        assert_eq!(
            observe("trace_events = true\n"),
            ObsConfig {
                trace_events: true,
                snapshot_every: None,
            }
        );
        assert_eq!(
            observe("snapshot_every_s = 2.5\n"),
            ObsConfig {
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
    fn zero_tcp_window_and_aimd_timeout_are_rejected_at_decode_time() {
        // A window as the closed-loop sender and as a many-flows mix
        // entry, and an AIMD peer's timeout.
        let window = "`max_window` must be at least 1, got 0";
        for (name, from, to, message) in [
            ("fig1", "max_window = 1000", "max_window = 0", window),
            (
                "ext-scaling-flows",
                "reno\", max_window = 64",
                "reno\", max_window = 0",
                window,
            ),
            (
                "ext-scaling-flows",
                "timeout_s = 8.0",
                "timeout_s = 0.0",
                "`timeout_s` must be positive",
            ),
        ] {
            let toml = shipped(name).replacen(from, to, 1);
            let e = parse_grid(&toml).unwrap_err();
            assert_eq!(e.message, message);
            let (line, text) = toml
                .lines()
                .enumerate()
                .find(|(_, l)| l.contains(to))
                .unwrap();
            let col = text.find(to).unwrap() + to.rfind(' ').unwrap() + 2;
            assert_eq!((e.line as usize, e.col as usize), (line + 1, col), "{to}");
        }
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
            e.message.contains(
                "`values[1]` must be between 1 and 65536 (wire flow ids are u16), got 70000"
            ),
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
    fn embedded_spec_naming_an_unshipped_trace_is_a_positioned_error() {
        let toml = shipped("replay-cellular").replace("lte-fade.csv", "lte-nowhere.csv");
        let e = parse_embedded(&toml).unwrap_err();
        assert!(
            e.message
                .contains("no shipped trace behind ../traces/lte-nowhere.csv"),
            "got: {e}"
        );
        // At the `file` value: its line, the column of its opening quote.
        let (i, line) = toml
            .lines()
            .enumerate()
            .find(|(_, l)| l.contains("lte-nowhere.csv"))
            .unwrap();
        let col = line.find("\"../traces/lte-nowhere.csv\"").unwrap();
        assert_eq!((e.line, e.col), (i as u32 + 1, col as u32 + 1));
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
