//! Shared harness utilities for the table/figure reproduction binaries.
//!
//! Every binary regenerates one table or figure of the DAC'24 SLLT paper;
//! see `DESIGN.md` for the experiment index. This crate holds the common
//! plumbing: CLI flags, aligned table rendering, and the demo net used by
//! Table 1 / Fig. 1.

pub mod flows;

use sllt_geom::Point;
use sllt_obs::Value;
use sllt_tree::{ClockNet, Sink};
use std::path::PathBuf;

/// Reads a `--name value` flag from `std::env::args`.
pub fn arg_value(name: &str) -> Option<String> {
    let args: Vec<String> = std::env::args().collect();
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .cloned()
}

/// Reads a `--name value` flag and parses it, falling back to `default`.
///
/// Exits with code 2 and a usage message when the value does not parse:
/// a malformed flag must never look like a successful run to CI.
pub fn arg_parse<T: std::str::FromStr>(name: &str, default: T) -> T {
    match arg_value(name) {
        None => default,
        Some(v) => v.parse().unwrap_or_else(|_| {
            eprintln!("error: {name} expects a number, got {v:?}");
            std::process::exit(2);
        }),
    }
}

/// Wraps a fallible `main` body: on `Err` the message goes to stderr and
/// the process exits with code 2, so every bench binary fails loudly
/// instead of printing a partial table and exiting 0.
pub fn run_main(body: impl FnOnce() -> Result<(), String>) -> std::process::ExitCode {
    match body() {
        Ok(()) => std::process::ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::ExitCode::from(2)
        }
    }
}

/// Whether a bare `--name` flag is present.
pub fn arg_flag(name: &str) -> bool {
    std::env::args().any(|a| a == name)
}

/// A simple aligned text table.
#[derive(Debug, Clone, Default)]
pub struct Table {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with the given column headers.
    pub fn new<S: Into<String>>(headers: Vec<S>) -> Self {
        Table {
            headers: headers.into_iter().map(Into::into).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row; short rows are padded with empty cells.
    pub fn row<S: Into<String>>(&mut self, cells: Vec<S>) {
        let mut r: Vec<String> = cells.into_iter().map(Into::into).collect();
        r.resize(self.headers.len(), String::new());
        self.rows.push(r);
    }

    /// Machine-readable form: `{"headers": [...], "rows": [[...], ...]}`.
    pub fn to_json(&self) -> Value {
        let headers: Vec<Value> = self.headers.iter().map(|h| h.as_str().into()).collect();
        let rows: Vec<Value> = self
            .rows
            .iter()
            .map(|r| {
                Value::from(
                    r.iter()
                        .map(|c| Value::from(c.as_str()))
                        .collect::<Vec<_>>(),
                )
            })
            .collect();
        Value::obj().with("headers", headers).with("rows", rows)
    }

    /// Renders with aligned columns.
    pub fn render(&self) -> String {
        let ncol = self.headers.len();
        let mut width = vec![0usize; ncol];
        for (i, h) in self.headers.iter().enumerate() {
            width[i] = width[i].max(h.len());
        }
        for row in &self.rows {
            for (i, c) in row.iter().enumerate() {
                width[i] = width[i].max(c.len());
            }
        }
        let fmt_row = |cells: &[String]| -> String {
            cells
                .iter()
                .enumerate()
                .map(|(i, c)| format!("{:>w$}", c, w = width[i]))
                .collect::<Vec<_>>()
                .join("  ")
        };
        let mut out = String::new();
        out.push_str(&fmt_row(&self.headers));
        out.push('\n');
        out.push_str(&"-".repeat(width.iter().sum::<usize>() + 2 * (ncol - 1)));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row));
            out.push('\n');
        }
        out
    }
}

/// Writes `value` as pretty-enough JSON (single line + trailing newline)
/// to `results/<name>.json`, creating the directory, and returns the
/// path.
///
/// # Errors
///
/// Propagates filesystem errors (unwritable directory, full disk).
pub fn write_json(name: &str, value: &Value) -> std::io::Result<PathBuf> {
    let dir = PathBuf::from("results");
    std::fs::create_dir_all(&dir)?;
    let path = dir.join(format!("{name}.json"));
    std::fs::write(&path, value.encode() + "\n")?;
    Ok(path)
}

/// The `--json` contract shared by every table/figure binary: when the
/// flag is present, bundle the named sections into one object and write
/// it to `results/<bin>.json`. Exits nonzero on a write failure so CI
/// catches broken output paths.
pub fn emit_json(bin: &str, sections: Vec<(&str, Value)>) {
    if !arg_flag("--json") {
        return;
    }
    let mut out = Value::obj().with("bin", bin);
    for (name, v) in sections {
        out.set(name, v);
    }
    match write_json(bin, &out) {
        Ok(path) => println!("wrote {}", path.display()),
        Err(e) => {
            eprintln!("error: could not write results/{bin}.json: {e}");
            std::process::exit(1);
        }
    }
}

/// The 8-sink demonstration net used for Table 1 and the Fig. 1 gallery:
/// a source on the boundary driving pins spread over a 6×6 region, with
/// both near and far pins so the algorithm trade-offs are visible.
pub fn demo_net() -> ClockNet {
    ClockNet::new(
        Point::new(0.0, 3.0),
        vec![
            Sink::new(Point::new(2.0, 1.0), 1.0),
            Sink::new(Point::new(2.0, 5.0), 1.0),
            Sink::new(Point::new(3.5, 3.0), 1.0),
            Sink::new(Point::new(4.5, 0.5), 1.0),
            Sink::new(Point::new(4.5, 5.5), 1.0),
            Sink::new(Point::new(5.5, 2.0), 1.0),
            Sink::new(Point::new(5.5, 4.0), 1.0),
            Sink::new(Point::new(6.0, 3.0), 1.0),
        ],
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_aligned() {
        let mut t = Table::new(vec!["a", "bb"]);
        t.row(vec!["1", "2"]);
        t.row(vec!["333"]);
        let s = t.render();
        assert!(s.contains("  a  bb") || s.contains("a  bb"));
        assert_eq!(s.lines().count(), 4);
    }

    #[test]
    fn table_to_json_mirrors_cells() {
        let mut t = Table::new(vec!["a", "bb"]);
        t.row(vec!["1", "2"]);
        t.row(vec!["333"]);
        let v = t.to_json();
        let headers = v.get("headers").and_then(Value::as_arr).unwrap();
        assert_eq!(headers.len(), 2);
        let rows = v.get("rows").and_then(Value::as_arr).unwrap();
        assert_eq!(rows.len(), 2);
        // Short rows were padded on entry, so JSON rows are rectangular.
        assert_eq!(rows[1].as_arr().unwrap().len(), 2);
        // The encoded form must parse back.
        assert!(sllt_obs::json::parse(&v.encode()).is_ok());
    }

    #[test]
    fn demo_net_shape() {
        let net = demo_net();
        assert_eq!(net.len(), 8);
        assert!(net.max_source_dist() > net.mean_source_dist());
    }
}
