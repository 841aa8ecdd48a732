//! CSV output for experiment results.
//!
//! Each `abacus-repro` subcommand writes its series to `results/<id>.csv` so
//! the figures can be re-plotted outside of Rust. The writer is deliberately
//! tiny: comma-separated, values quoted only when they contain a comma,
//! quote, or newline.

use std::fs::{self, File};
use std::io::{self, BufWriter, Write};
use std::path::Path;

/// A buffered CSV writer.
#[derive(Debug)]
pub struct CsvWriter {
    out: BufWriter<File>,
    columns: usize,
}

impl CsvWriter {
    /// Create (truncating) `path` and write the header row. Parent
    /// directories are created as needed.
    pub fn create(path: impl AsRef<Path>, header: &[&str]) -> io::Result<Self> {
        let path = path.as_ref();
        if let Some(parent) = path.parent() {
            if !parent.as_os_str().is_empty() {
                fs::create_dir_all(parent)?;
            }
        }
        let mut w = Self {
            out: BufWriter::new(File::create(path)?),
            columns: header.len(),
        };
        w.write_row(header.iter().map(|s| s.to_string()))?;
        Ok(w)
    }

    /// Write a row of string cells.
    pub fn write_row(&mut self, cells: impl IntoIterator<Item = String>) -> io::Result<()> {
        let cells: Vec<String> = cells.into_iter().collect();
        assert_eq!(cells.len(), self.columns, "row arity must match header");
        let line: Vec<String> = cells.iter().map(|c| escape(c)).collect();
        writeln!(self.out, "{}", line.join(","))
    }

    /// Write a label followed by floats.
    pub fn write_record(&mut self, label: &str, values: &[f64]) -> io::Result<()> {
        let mut cells = vec![label.to_string()];
        cells.extend(values.iter().map(|v| format!("{v}")));
        self.write_row(cells)
    }

    /// Flush the underlying buffer.
    pub fn flush(&mut self) -> io::Result<()> {
        self.out.flush()
    }
}

fn escape(cell: &str) -> String {
    if cell.contains(',') || cell.contains('"') || cell.contains('\n') {
        format!("\"{}\"", cell.replace('"', "\"\""))
    } else {
        cell.to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn writes_header_and_rows() {
        let dir = std::env::temp_dir().join("abacus_csv_test");
        let path = dir.join("t.csv");
        {
            let mut w = CsvWriter::create(&path, &["a", "b"]).unwrap();
            w.write_record("x", &[1.5]).unwrap();
            w.write_row(vec!["with,comma".into(), "q\"q".into()])
                .unwrap();
            w.flush().unwrap();
        }
        let text = std::fs::read_to_string(&path).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines[0], "a,b");
        assert_eq!(lines[1], "x,1.5");
        assert_eq!(lines[2], "\"with,comma\",\"q\"\"q\"");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    #[should_panic(expected = "arity")]
    fn arity_checked() {
        let dir = std::env::temp_dir().join("abacus_csv_test2");
        let mut w = CsvWriter::create(dir.join("t.csv"), &["a", "b"]).unwrap();
        let _ = w.write_record("only-label-and-nothing", &[]);
        std::fs::remove_dir_all(&dir).ok();
    }
}
