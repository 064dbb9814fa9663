//! Plain-text table formatting for the figures.

/// A simple fixed-width text table.
#[derive(Debug, Clone)]
pub struct Table {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// New table with the given column headers.
    pub fn new<S: AsRef<str>>(headers: &[S]) -> Self {
        Table {
            headers: headers.iter().map(|s| s.as_ref().to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Append a row (should match the header count).
    ///
    /// Arity mismatches are a harness bug, but they must not abort a long
    /// release sweep at render time: in release builds the row is
    /// normalized (short rows padded with empty cells, long rows
    /// truncated) and kept. Debug builds still panic so the bug is caught
    /// in development.
    pub fn row(&mut self, cells: Vec<String>) -> &mut Self {
        debug_assert_eq!(cells.len(), self.headers.len(), "column count mismatch");
        let mut cells = cells;
        cells.resize(self.headers.len(), String::new());
        self.rows.push(cells);
        self
    }

    /// Render to a string.
    pub fn render(&self) -> String {
        let ncols = self.headers.len();
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, c) in row.iter().enumerate() {
                widths[i] = widths[i].max(c.len());
            }
        }
        let mut out = String::new();
        let fmt_row = |cells: &[String], widths: &[usize]| -> String {
            let mut line = String::new();
            for i in 0..ncols {
                if i > 0 {
                    line.push_str("  ");
                }
                let pad = widths[i].saturating_sub(cells[i].len());
                line.push_str(&cells[i]);
                line.push_str(&" ".repeat(pad));
            }
            line.trim_end().to_string()
        };
        out.push_str(&fmt_row(&self.headers, &widths));
        out.push('\n');
        out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (ncols - 1)));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row, &widths));
            out.push('\n');
        }
        out
    }
}

/// Format a percentage with one decimal.
pub fn fmt_pct(v: f64) -> String {
    format!("{v:.1}%")
}

/// Running arithmetic mean (the paper reports arithmetic averages of
/// per-application percentages).
#[derive(Debug, Clone, Default)]
pub struct Mean {
    sum: f64,
    n: u32,
}

impl Mean {
    /// Empty accumulator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add a sample.
    pub fn push(&mut self, v: f64) {
        self.sum += v;
        self.n += 1;
    }

    /// Current mean (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.sum / f64::from(self.n)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_aligned() {
        let mut t = Table::new(&["app", "value"]);
        t.row(vec!["BFS".into(), "23.0%".into()]);
        t.row(vec!["ParticleFilter".into(), "4.2%".into()]);
        let s = t.render();
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].starts_with("app"));
        assert!(lines[3].starts_with("ParticleFilter"));
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "column count mismatch")]
    fn wrong_arity_panics_in_debug() {
        Table::new(&["a", "b"]).row(vec!["x".into()]);
    }

    #[test]
    #[cfg(not(debug_assertions))]
    fn wrong_arity_normalized_in_release() {
        // One malformed row must not abort a long sweep: short rows are
        // padded, long rows truncated, and rendering still succeeds.
        let mut t = Table::new(&["a", "b"]);
        t.row(vec!["x".into()]);
        t.row(vec!["1".into(), "2".into(), "3".into()]);
        let s = t.render();
        assert_eq!(s.lines().count(), 4);
        assert!(s.contains('x'));
        assert!(!s.contains('3'));
    }

    #[test]
    fn mean_accumulates() {
        let mut m = Mean::new();
        assert_eq!(m.mean(), 0.0);
        m.push(10.0);
        m.push(20.0);
        assert_eq!(m.mean(), 15.0);
    }

    #[test]
    fn pct_formatting() {
        assert_eq!(fmt_pct(12.34), "12.3%");
        assert_eq!(fmt_pct(-3.0), "-3.0%");
    }
}
