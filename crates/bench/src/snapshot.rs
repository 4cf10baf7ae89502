//! Table-driven snapshot records: one row representation, one renderer,
//! one emit order.
//!
//! A snapshot is a list of [`Row`]s; a row is an ordered list of
//! `(column, cell)`. The column list is spelled once, where the row is
//! built, and both renderings — the Markdown table on stdout and the
//! `BENCH_*.json` record — derive from it. [`emit`] fixes the order every
//! snapshot follows: print the table, run the snapshot's floors, and only
//! then write the file, so a record that breaks a floor never reaches
//! disk.
//!
//! Snapshots hold deterministic columns only (counts, simulated time,
//! allocation counts), so regenerating one on an unchanged tree
//! reproduces the committed file byte for byte; CI relies on that.
//! Wall-clock measurements live in the frozen `benchmark/` package.

use std::fmt;
use std::path::Path;

use unistore_util::stats::percentile;

/// One value of a snapshot row.
#[derive(Clone, Debug, PartialEq)]
pub enum Cell {
    /// A label.
    Str(String),
    /// A count.
    Int(u64),
    /// A measurement, rendered with a fixed number of decimals.
    Float(f64, usize),
}

impl fmt::Display for Cell {
    /// The JSON rendering of the cell. Labels are ASCII identifiers and
    /// phrases, for which Rust's string escaping is also valid JSON.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Cell::Str(s) => write!(f, "{s:?}"),
            Cell::Int(n) => write!(f, "{n}"),
            Cell::Float(x, precision) => write!(f, "{x:.precision$}"),
        }
    }
}

/// An ordered list of `(column, cell)`.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Row(Vec<(&'static str, Cell)>);

impl Row {
    /// An empty row.
    pub fn new() -> Row {
        Row::default()
    }

    /// Appends a label column.
    pub fn str(mut self, column: &'static str, value: impl Into<String>) -> Row {
        self.0.push((column, Cell::Str(value.into())));
        self
    }

    /// Appends a count column.
    pub fn int(mut self, column: &'static str, value: u64) -> Row {
        self.0.push((column, Cell::Int(value)));
        self
    }

    /// Appends a measurement column rendered with `precision` decimals.
    pub fn float(mut self, column: &'static str, value: f64, precision: usize) -> Row {
        self.0.push((column, Cell::Float(value, precision)));
        self
    }

    fn cell(&self, column: &str) -> &Cell {
        match self.0.iter().find(|(c, _)| *c == column) {
            Some((_, cell)) => cell,
            None => panic!("row has no column {column:?}"),
        }
    }

    /// The label in `column`.
    ///
    /// # Panics
    /// Panics (here and in the other readers) when the row has no such
    /// column of that kind — a bug in the snapshot that built the row.
    pub fn get_str(&self, column: &str) -> &str {
        match self.cell(column) {
            Cell::Str(s) => s,
            other => panic!("column {column:?} holds {other:?}, not a label"),
        }
    }

    /// The count in `column`.
    pub fn get_int(&self, column: &str) -> u64 {
        match self.cell(column) {
            Cell::Int(n) => *n,
            other => panic!("column {column:?} holds {other:?}, not a count"),
        }
    }

    /// The unrounded measurement in `column`.
    pub fn get_float(&self, column: &str) -> f64 {
        match self.cell(column) {
            Cell::Float(x, _) => *x,
            other => panic!("column {column:?} holds {other:?}, not a measurement"),
        }
    }
}

/// The first row whose label columns equal `labels` — how floors pick
/// the cells they compare.
///
/// # Panics
/// Panics when no row matches: the floor names a cell the snapshot no
/// longer measures.
pub fn find<'a>(rows: &'a [Row], labels: &[(&str, &str)]) -> &'a Row {
    rows.iter()
        .find(|r| labels.iter().all(|(column, value)| r.get_str(column) == *value))
        .unwrap_or_else(|| panic!("no row with {labels:?}"))
}

/// One row for many draws of the same cell: labels and the `kept`
/// counts from the first draw, every other count summed over the
/// draws, every measurement's median (the upper one of an even number)
/// at its precision.
///
/// # Panics
/// Panics when `draws` is empty or a draw lacks a column of the first.
pub fn pooled(draws: &[Row], kept: &[&str]) -> Row {
    let Some(first) = draws.first() else { panic!("no draws to pool") };
    Row(first
        .0
        .iter()
        .map(|(column, cell)| {
            let pooled = match cell {
                Cell::Int(_) if !kept.contains(column) => {
                    Cell::Int(draws.iter().map(|r| r.get_int(column)).sum())
                }
                Cell::Float(_, precision) => {
                    let all: Vec<f64> = draws.iter().map(|r| r.get_float(column)).collect();
                    Cell::Float(percentile(&all, 50.0), *precision)
                }
                label_or_kept => label_or_kept.clone(),
            };
            (*column, pooled)
        })
        .collect())
}

/// Renders rows as the `BENCH_*.json` text: a JSON array, one object
/// per line.
pub fn json(rows: &[Row]) -> String {
    let mut out = String::from("[\n");
    for (i, row) in rows.iter().enumerate() {
        let fields: Vec<String> =
            row.0.iter().map(|(column, cell)| format!("\"{column}\": {cell}")).collect();
        let comma = if i + 1 < rows.len() { "," } else { "" };
        out.push_str(&format!("  {{{}}}{comma}\n", fields.join(", ")));
    }
    out.push_str("]\n");
    out
}

/// Renders rows as Markdown tables: a header, then rows, and a new
/// header, after a blank line, wherever a row's columns differ from the
/// row above.
pub fn markdown(rows: &[Row]) -> String {
    let line = |cells: Vec<String>| format!("| {} |\n", cells.join(" | "));
    let columns = |row: &Row| row.0.iter().map(|(column, _)| *column).collect::<Vec<_>>();
    let mut out = String::new();
    let mut head = Vec::new();
    for row in rows {
        if columns(row) != head {
            head = columns(row);
            if !out.is_empty() {
                out.push('\n');
            }
            out.push_str(&line(head.iter().map(|c| c.to_string()).collect()));
            out.push_str(&format!("|{}|\n", vec!["---"; head.len()].join("|")));
        }
        out.push_str(&line(
            row.0
                .iter()
                .map(|(_, cell)| match cell {
                    Cell::Str(s) => s.clone(),
                    other => other.to_string(),
                })
                .collect(),
        ));
    }
    out
}

/// Prints the table under `title`, runs `floors` over the rows, and —
/// only when they hold — writes the JSON record to `path`.
///
/// # Panics
/// Panics when a floor fails (floors assert) or the file cannot be
/// written.
pub fn emit(path: &Path, title: &str, rows: &[Row], floors: impl FnOnce(&[Row])) {
    println!("\n## {title}\n");
    print!("{}", markdown(rows));
    floors(rows);
    if let Err(e) = std::fs::write(path, json(rows)) {
        panic!("write {}: {e}", path.display());
    }
    println!("\nwrote {} ({} rows)", path.display(), rows.len());
}

#[cfg(test)]
mod tests {
    use super::*;

    fn join_row(backend: &str, msgs: u64, hops: u64, kib: f64, latency_ms: f64) -> Row {
        Row::new()
            .str("query", "3-way join")
            .str("backend", backend)
            .str("strategy", "collect")
            .int("msgs", msgs)
            .int("hops", hops)
            .float("kib", kib, 3)
            .float("latency_ms", latency_ms, 3)
            .int("rows", 224)
    }

    #[test]
    fn two_rows_render_as_the_committed_joins_record_begins() {
        let committed = include_str!("../../../BENCH_joins.json");
        let rows = [
            join_row("P-Grid", 12, 8, 24.3049, 5.4799),
            join_row("Chord+buckets", 19, 15, 24.5901, 8.7609),
        ];
        let rendered = json(&rows);
        let head = |s: &str| s.lines().take(2).map(String::from).collect::<Vec<_>>();
        assert_eq!(head(&rendered), head(committed));
        // The last row carries no comma and the array closes.
        assert!(rendered.ends_with("\"latency_ms\": 8.761, \"rows\": 224}\n]\n"), "{rendered}");
    }

    #[test]
    fn precision_is_per_column() {
        let row = Row::new()
            .float("mean_cov", 0.99166, 4)
            .float("bytes_per_op", 98.75, 1)
            .float("qps_sim", 0.28649, 3)
            .float("whole", 2.5, 0);
        assert_eq!(
            json(&[row]),
            "[\n  {\"mean_cov\": 0.9917, \"bytes_per_op\": 98.8, \"qps_sim\": 0.286, \
             \"whole\": 2}\n]\n"
        );
    }

    #[test]
    fn readers_return_unrounded_values_and_find_matches_labels() {
        let rows = [
            join_row("P-Grid", 14, 10, 63.8809, 6.2),
            join_row("Chord+buckets", 19, 15, 77.0, 8.7),
        ];
        let r = find(&rows, &[("backend", "Chord+buckets"), ("strategy", "collect")]);
        assert_eq!((r.get_int("msgs"), r.get_str("query")), (19, "3-way join"));
        assert_eq!(rows[0].get_float("kib"), 63.8809);
    }

    #[test]
    fn pooling_keeps_labels_sums_counts_and_takes_medians() {
        let draw = |cov90, p99| {
            Row::new()
                .str("backend", "P-Grid")
                .int("n", 64)
                .int("cov90", cov90)
                .float("p99", p99, 1)
        };
        let pooled = pooled(&[draw(3, 9.0), draw(5, 1.0), draw(4, 2.0), draw(1, 7.0)], &["n"]);
        assert_eq!(
            pooled,
            Row::new().str("backend", "P-Grid").int("n", 64).int("cov90", 13).float("p99", 7.0, 1)
        );
    }

    #[test]
    fn markdown_heads_the_table_with_the_column_names() {
        let table =
            markdown(&[Row::new().str("backend", "P-Grid").int("n", 64).float("g", 0.5, 2)]);
        assert_eq!(table, "| backend | n | g |\n|---|---|---|\n| P-Grid | 64 | 0.50 |\n");
        assert_eq!(markdown(&[]), "");
    }

    #[test]
    fn markdown_starts_a_new_header_when_the_columns_change() {
        let a = Row::new().str("table", "e1").int("n", 16);
        let b = Row::new().str("table", "e2").float("p50", 0.5, 1);
        assert_eq!(
            markdown(&[a.clone(), a, b]),
            "| table | n |\n|---|---|\n| e1 | 16 |\n| e1 | 16 |\n\n\
             | table | p50 |\n|---|---|\n| e2 | 0.5 |\n"
        );
    }

    #[test]
    fn a_failing_floor_leaves_no_file_behind() {
        let dir = std::env::temp_dir().join(format!("unistore-snapshot-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("create temp dir");
        let rows = [Row::new().int("cov90", 3)];

        let broken = dir.join("BENCH_broken.json");
        let failed = std::panic::catch_unwind(|| {
            emit(&broken, "broken", &rows, |rows| assert!(rows[0].get_int("cov90") >= 5, "floor"))
        });
        assert!(failed.is_err(), "the floor must fail the emit");
        assert!(!broken.exists(), "a record that breaks its floor is never written");

        let held = dir.join("BENCH_held.json");
        emit(&held, "held", &rows, |rows| assert!(rows[0].get_int("cov90") >= 3));
        assert_eq!(std::fs::read_to_string(&held).expect("written"), "[\n  {\"cov90\": 3}\n]\n");
        std::fs::remove_dir_all(&dir).expect("remove temp dir");
    }
}
