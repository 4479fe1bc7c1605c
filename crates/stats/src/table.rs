//! Plain-text and CSV rendering of experiment results.
//!
//! The experiment driver prints every figure and table of the paper as an
//! aligned text table (and optionally CSV), so results can be diffed.

use std::fmt::Write as _;

/// A simple column-aligned text table builder.
///
/// # Example
///
/// ```
/// use stms_stats::TextTable;
///
/// let mut t = TextTable::new(vec!["workload".into(), "coverage".into()]);
/// t.add_row(vec!["Web Apache".into(), "55.3%".into()]);
/// let rendered = t.render();
/// assert!(rendered.contains("Web Apache"));
/// assert!(rendered.contains("coverage"));
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct TextTable {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
    title: Option<String>,
}

impl TextTable {
    /// Creates a table with the given column headers.
    pub fn new(headers: Vec<String>) -> Self {
        TextTable {
            headers,
            rows: Vec::new(),
            title: None,
        }
    }

    /// Sets a title line printed above the table.
    pub fn with_title(mut self, title: impl Into<String>) -> Self {
        self.title = Some(title.into());
        self
    }

    /// Number of data rows.
    pub fn row_count(&self) -> usize {
        self.rows.len()
    }

    /// The column headers.
    pub fn headers(&self) -> &[String] {
        &self.headers
    }

    /// The data rows, in insertion order.
    pub fn rows(&self) -> &[Vec<String>] {
        &self.rows
    }

    /// The title line, if one was set.
    pub fn title(&self) -> Option<&str> {
        self.title.as_deref()
    }

    /// Appends a row.
    ///
    /// # Panics
    ///
    /// Panics if the row has a different number of cells than the header.
    pub fn add_row(&mut self, row: Vec<String>) {
        assert_eq!(
            row.len(),
            self.headers.len(),
            "row width must match header width"
        );
        self.rows.push(row);
    }

    /// Renders an aligned, human-readable table.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let mut out = String::new();
        if let Some(title) = &self.title {
            let _ = writeln!(out, "== {title} ==");
        }
        let line = |cells: &[String], widths: &[usize]| -> String {
            cells
                .iter()
                .zip(widths)
                .map(|(c, w)| format!("{c:<w$}", w = w))
                .collect::<Vec<_>>()
                .join("  ")
        };
        let _ = writeln!(out, "{}", line(&self.headers, &widths));
        let _ = writeln!(
            out,
            "{}",
            widths
                .iter()
                .map(|w| "-".repeat(*w))
                .collect::<Vec<_>>()
                .join("  ")
        );
        for row in &self.rows {
            let _ = writeln!(out, "{}", line(row, &widths));
        }
        out
    }

    /// Renders the table as CSV.
    pub fn to_csv(&self) -> String {
        let escape = |cell: &str| -> String {
            if cell.contains(',') || cell.contains('"') {
                format!("\"{}\"", cell.replace('"', "\"\""))
            } else {
                cell.to_string()
            }
        };
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{}",
            self.headers
                .iter()
                .map(|h| escape(h))
                .collect::<Vec<_>>()
                .join(",")
        );
        for row in &self.rows {
            let _ = writeln!(
                out,
                "{}",
                row.iter().map(|c| escape(c)).collect::<Vec<_>>().join(",")
            );
        }
        out
    }
}

/// Formats a fraction as a percentage with one decimal, e.g. `0.553` →
/// `"55.3%"`.
pub fn pct(fraction: f64) -> String {
    format!("{:.1}%", fraction * 100.0)
}

/// Formats a ratio with two decimals, e.g. overhead bytes per useful byte.
pub fn ratio(value: f64) -> String {
    format!("{value:.2}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_aligns_columns() {
        let mut t = TextTable::new(vec!["a".into(), "long header".into()]).with_title("Demo");
        t.add_row(vec!["x".into(), "1".into()]);
        t.add_row(vec!["longer".into(), "2".into()]);
        let s = t.render();
        assert!(s.contains("== Demo =="));
        assert!(s.lines().count() >= 4);
        assert_eq!(t.row_count(), 2);
        // All data lines are equally long (aligned).
        let lines: Vec<&str> = s.lines().skip(1).collect();
        assert_eq!(lines[1].len(), lines[2].len().max(lines[1].len()));
    }

    #[test]
    fn csv_escapes_commas_and_quotes() {
        let mut t = TextTable::new(vec!["name".into(), "value".into()]);
        t.add_row(vec!["a,b".into(), "say \"hi\"".into()]);
        let csv = t.to_csv();
        assert!(csv.contains("\"a,b\""));
        assert!(csv.contains("\"say \"\"hi\"\"\""));
    }

    #[test]
    #[should_panic(expected = "row width")]
    fn mismatched_row_panics() {
        let mut t = TextTable::new(vec!["a".into()]);
        t.add_row(vec!["x".into(), "y".into()]);
    }

    #[test]
    fn accessors_return_what_was_built() {
        let mut t = TextTable::new(vec!["a".into(), "b".into()]).with_title("T");
        t.add_row(vec!["1".into(), "2".into()]);
        assert_eq!(t.headers(), ["a", "b"]);
        assert_eq!(t.rows(), [["1", "2"]]);
        assert_eq!(t.title(), Some("T"));
    }

    #[test]
    fn formatting_helpers() {
        assert_eq!(pct(0.5534), "55.3%");
        assert_eq!(pct(0.0), "0.0%");
        assert_eq!(ratio(1.2345), "1.23");
    }
}
