//! Markdown-style result tables, printed to stdout.

/// A simple column-aligned markdown table.
pub struct MdTable {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl MdTable {
    /// New table with the given column headers.
    pub fn new<I, S>(headers: I) -> Self
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        MdTable {
            headers: headers.into_iter().map(Into::into).collect(),
            rows: Vec::new(),
        }
    }

    /// Adds a row (stringified cells).
    pub fn row<I, S>(&mut self, cells: I) -> &mut Self
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        let cells: Vec<String> = cells.into_iter().map(Into::into).collect();
        assert_eq!(cells.len(), self.headers.len(), "row arity");
        self.rows.push(cells);
        self
    }

    /// Renders the table.
    pub fn render(&self) -> String {
        let ncols = self.headers.len();
        let mut widths: Vec<usize> = self.headers.iter().map(String::len).collect();
        for row in &self.rows {
            for (w, cell) in widths.iter_mut().zip(row) {
                *w = (*w).max(cell.len());
            }
        }
        let mut out = String::new();
        let fmt_row = |cells: &[String], widths: &[usize]| -> String {
            let mut line = String::from("|");
            for (cell, w) in cells.iter().zip(widths) {
                line.push_str(&format!(" {cell:<w$} |"));
            }
            line.push('\n');
            line
        };
        out.push_str(&fmt_row(&self.headers, &widths));
        out.push('|');
        for w in &widths {
            out.push_str(&format!("{:-<1$}|", "", w + 2));
        }
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row, &widths));
        }
        let _ = ncols;
        out
    }

    /// Prints the table to stdout.
    pub fn print(&self) {
        print!("{}", self.render());
    }
}

/// Formats a float with 3 decimals.
pub fn f3(x: f64) -> String {
    format!("{x:.3}")
}

/// Formats a percentage.
pub fn pct(x: f64) -> String {
    format!("{:.1}%", 100.0 * x)
}

/// Section header helper.
pub fn section(title: &str) {
    println!("\n## {title}\n");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned_markdown() {
        let mut t = MdTable::new(["name", "value"]);
        t.row(["a", "1"]).row(["long-name", "2.5"]);
        let s = t.render();
        assert!(s.contains("| name      | value |"));
        assert!(s.contains("|-----------|-------|"));
        assert!(s.contains("| long-name | 2.5   |"));
    }

    #[test]
    #[should_panic(expected = "row arity")]
    fn arity_checked() {
        MdTable::new(["a", "b"]).row(["only-one"]);
    }
}
