//! Plain-text tables for the figure-regeneration binaries.
//!
//! They print the rows/series of every figure as aligned text tables (and
//! CSV when piping into plotting tools); this keeps the harness free of
//! plotting dependencies.

/// A simple column-aligned text table.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TextTable {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl TextTable {
    /// Creates a table with the given column headers.
    pub fn new<S: Into<String>>(header: Vec<S>) -> Self {
        TextTable {
            header: header.into_iter().map(Into::into).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row. Rows shorter than the header are padded with empty
    /// cells; longer rows are truncated to the header width.
    pub fn add_row<S: Into<String>>(&mut self, row: Vec<S>) {
        let mut cells: Vec<String> = row.into_iter().map(Into::into).collect();
        cells.resize(self.header.len(), String::new());
        self.rows.push(cells);
    }

    /// Number of data rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Returns `true` when the table has no data rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Renders the table with aligned columns.
    pub fn render(&self) -> String {
        let cols = self.header.len();
        let mut widths: Vec<usize> = self.header.iter().map(String::len).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate().take(cols) {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let mut out = String::new();
        let render_row = |cells: &[String], widths: &[usize]| -> String {
            cells
                .iter()
                .enumerate()
                .map(|(i, c)| format!("{:width$}", c, width = widths[i]))
                .collect::<Vec<_>>()
                .join("  ")
        };
        out.push_str(&render_row(&self.header, &widths));
        out.push('\n');
        out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (cols.saturating_sub(1))));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&render_row(row, &widths));
            out.push('\n');
        }
        out
    }

    /// Renders the table as CSV (comma-separated, header first).
    pub fn to_csv(&self) -> String {
        let mut out = String::new();
        out.push_str(&self.header.join(","));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&row.join(","));
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rows_are_padded_and_truncated_to_the_header() {
        let mut t = TextTable::new(vec!["a", "b", "c"]);
        t.add_row(vec!["1"]);
        t.add_row(vec!["1", "2", "3", "4"]);
        assert_eq!(t.len(), 2);
        let csv = t.to_csv();
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines[0], "a,b,c");
        assert_eq!(lines[1], "1,,");
        assert_eq!(lines[2], "1,2,3");
    }

    #[test]
    fn render_aligns_columns() {
        let mut t = TextTable::new(vec!["name", "value"]);
        t.add_row(vec!["short", "1"]);
        t.add_row(vec!["a-much-longer-name", "22"]);
        let rendered = t.render();
        let lines: Vec<&str> = rendered.lines().collect();
        assert_eq!(lines.len(), 4);
        // All data lines have the same width up to trailing spaces.
        assert!(lines[2].starts_with("short"));
        assert!(lines[3].starts_with("a-much-longer-name"));
        assert!(lines[2].len() <= lines[3].len());
    }

    #[test]
    fn empty_table_renders_header_only() {
        let t = TextTable::new(vec!["x"]);
        assert!(t.is_empty());
        assert_eq!(t.render().lines().count(), 2);
        assert_eq!(t.to_csv(), "x\n");
    }
}
