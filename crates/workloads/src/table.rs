//! A small ASCII table printer for experiment output.
//!
//! The `exp_*` binaries print their results through this so EXPERIMENTS.md
//! rows and terminal output share one format.

use std::fmt::Write as _;

/// A column-aligned text table.
#[derive(Debug, Clone, Default)]
pub struct Table {
    title: String,
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// New table with a title and column headers.
    pub fn new(title: impl Into<String>, headers: &[&str]) -> Self {
        Self {
            title: title.into(),
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Append a row (must match the header count).
    pub fn row(&mut self, cells: &[String]) -> &mut Self {
        assert_eq!(cells.len(), self.headers.len(), "column count mismatch");
        self.rows.push(cells.to_vec());
        self
    }

    /// Number of data rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// No rows yet?
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Render as aligned text.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.headers.iter().map(String::len).collect();
        for row in &self.rows {
            for (i, c) in row.iter().enumerate() {
                widths[i] = widths[i].max(c.len());
            }
        }
        let mut out = String::new();
        let _ = writeln!(out, "== {} ==", self.title);
        let line = |out: &mut String, cells: &[String]| {
            for (i, c) in cells.iter().enumerate() {
                let _ = write!(out, "| {:<w$} ", c, w = widths[i]);
            }
            out.push_str("|\n");
        };
        line(&mut out, &self.headers);
        let total: usize = widths.iter().map(|w| w + 3).sum::<usize>() + 1;
        out.push_str(&"-".repeat(total));
        out.push('\n');
        for row in &self.rows {
            line(&mut out, row);
        }
        out
    }

    /// Print to stdout.
    pub fn print(&self) {
        print!("{}", self.render());
    }
}

/// Format microseconds as seconds with 2 decimals.
pub fn secs(us: u64) -> String {
    format!("{:.2}", us as f64 / 1e6)
}

/// Format an optional µs duration.
pub fn secs_opt(us: Option<u64>) -> String {
    us.map(secs).unwrap_or_else(|| "-".into())
}

/// Format a ratio with 2 decimals.
pub fn ratio(x: f64) -> String {
    format!("{x:.2}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned_columns() {
        let mut t = Table::new("demo", &["policy", "makespan"]);
        t.row(&["condor-like".into(), "12.5".into()]);
        t.row(&["vce".into(), "8.1".into()]);
        let s = t.render();
        assert!(s.contains("== demo =="));
        assert!(s.contains("| condor-like | 12.5"));
        assert!(s.contains("| vce         | 8.1"));
        assert_eq!(t.len(), 2);
    }

    #[test]
    #[should_panic(expected = "column count mismatch")]
    fn mismatched_row_panics() {
        let mut t = Table::new("x", &["a", "b"]);
        t.row(&["only-one".into()]);
    }

    #[test]
    fn formatters() {
        assert_eq!(secs(1_500_000), "1.50");
        assert_eq!(secs_opt(None), "-");
        assert_eq!(secs_opt(Some(2_000_000)), "2.00");
        assert_eq!(ratio(1.234), "1.23");
    }
}
