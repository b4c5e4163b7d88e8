//! Row-record tables — the export surface for sweep reports.
//!
//! Sweeps produce one *record* per run (mixed strings and numbers,
//! fixed columns). A
//! [`Table`] holds those rows and writes them as CSV or JSON-lines with
//! deterministic formatting: the same rows always serialize to the same
//! bytes, which is what lets the scenario subsystem assert that a
//! parallel sweep is byte-identical to a serial one.

use augur_sim::canon;
use std::io::{self, Write};

/// One cell of a record.
#[derive(Debug, Clone, PartialEq)]
pub enum Cell {
    /// A label (scenario name, sender kind, …).
    Str(String),
    /// An exact integer (counts, seeds, indices).
    Int(u64),
    /// A measurement. Formatted via Rust's shortest-roundtrip `Display`,
    /// which is deterministic. `NaN` serializes as an empty CSV field /
    /// JSON `null` (a missing measurement, not a number).
    Num(f64),
}

impl From<&str> for Cell {
    fn from(s: &str) -> Cell {
        Cell::Str(s.to_string())
    }
}

impl From<String> for Cell {
    fn from(s: String) -> Cell {
        Cell::Str(s)
    }
}

impl From<u64> for Cell {
    fn from(v: u64) -> Cell {
        Cell::Int(v)
    }
}

impl From<usize> for Cell {
    fn from(v: usize) -> Cell {
        Cell::Int(v as u64)
    }
}

impl From<f64> for Cell {
    fn from(v: f64) -> Cell {
        Cell::Num(v)
    }
}

/// A fixed-column table of records.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Table {
    columns: Vec<String>,
    rows: Vec<Vec<Cell>>,
}

impl Table {
    /// An empty table with the given column names.
    pub fn new<S: Into<String>>(columns: impl IntoIterator<Item = S>) -> Table {
        Table {
            columns: columns.into_iter().map(Into::into).collect(),
            rows: Vec::new(),
        }
    }

    /// Column names.
    pub fn columns(&self) -> &[String] {
        &self.columns
    }

    /// The records.
    pub fn rows(&self) -> &[Vec<Cell>] {
        &self.rows
    }

    /// Append a record.
    ///
    /// # Panics
    /// Panics if the row's arity differs from the column count.
    pub fn push_row(&mut self, row: Vec<Cell>) {
        assert_eq!(
            row.len(),
            self.columns.len(),
            "row arity {} vs {} columns",
            row.len(),
            self.columns.len()
        );
        self.rows.push(row);
    }

    /// Write as CSV: header line, then one line per record.
    pub fn write_csv<W: Write>(&self, mut w: W) -> io::Result<()> {
        writeln!(
            w,
            "{}",
            self.columns
                .iter()
                .map(|c| csv_escape(c))
                .collect::<Vec<_>>()
                .join(",")
        )?;
        for row in &self.rows {
            let line: Vec<String> = row.iter().map(csv_cell).collect();
            writeln!(w, "{}", line.join(","))?;
        }
        Ok(())
    }

    /// Write as JSON-lines: one object per record.
    pub fn write_jsonl<W: Write>(&self, mut w: W) -> io::Result<()> {
        for row in &self.rows {
            let fields: Vec<String> = self
                .columns
                .iter()
                .zip(row)
                .map(|(c, cell)| format!("{}:{}", canon::json_string(c), json_cell(cell)))
                .collect();
            writeln!(w, "{{{}}}", fields.join(","))?;
        }
        Ok(())
    }

    /// The CSV serialization as a string (convenience for tests and
    /// byte-identity checks).
    pub fn to_csv_string(&self) -> String {
        let mut out = Vec::new();
        self.write_csv(&mut out).expect("infallible Vec write");
        String::from_utf8(out).expect("CSV is UTF-8")
    }
}

fn csv_cell(cell: &Cell) -> String {
    match cell {
        Cell::Str(s) => csv_escape(s),
        Cell::Int(v) => v.to_string(),
        Cell::Num(v) if v.is_nan() => String::new(),
        Cell::Num(v) if v.is_infinite() => v.to_string(),
        Cell::Num(v) => canon::fmt_f64(*v),
    }
}

fn json_cell(cell: &Cell) -> String {
    match cell {
        Cell::Str(s) => canon::json_string(s),
        Cell::Int(v) => v.to_string(),
        Cell::Num(v) if v.is_infinite() => {
            canon::json_string(if *v > 0.0 { "inf" } else { "-inf" })
        }
        Cell::Num(v) => canon::json_num(*v),
    }
}

/// Quote a CSV field if needed.
fn csv_escape(field: &str) -> String {
    if field.contains([',', '"', '\n']) {
        format!("\"{}\"", field.replace('"', "\"\""))
    } else {
        field.to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn table() -> Table {
        let mut t = Table::new(["name", "count", "value"]);
        t.push_row(vec!["a".into(), 3u64.into(), 1.5.into()]);
        t.push_row(vec!["b,c".into(), 0u64.into(), f64::NAN.into()]);
        t
    }

    #[test]
    fn csv_round_trip() {
        let text = table().to_csv_string();
        assert_eq!(text, "name,count,value\na,3,1.5\n\"b,c\",0,\n");
    }

    #[test]
    fn jsonl_round_trip() {
        let mut out = Vec::new();
        table().write_jsonl(&mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert_eq!(
            text,
            "{\"name\":\"a\",\"count\":3,\"value\":1.5}\n{\"name\":\"b,c\",\"count\":0,\"value\":null}\n"
        );
    }

    #[test]
    fn serialization_is_deterministic() {
        assert_eq!(table().to_csv_string(), table().to_csv_string());
    }

    #[test]
    #[should_panic(expected = "row arity")]
    fn arity_mismatch_rejected() {
        let mut t = Table::new(["a"]);
        t.push_row(vec![Cell::Int(1), Cell::Int(2)]);
    }

    #[test]
    fn json_escapes_control_chars() {
        assert_eq!(canon::json_string("a\"b\\c\nd"), "\"a\\\"b\\\\c\\nd\"");
    }
}
