//! Small text-table renderer shared by the experiment modules, and
//! `scemu`'s wall-clock timing.
#![expect(
    clippy::disallowed_methods,
    reason = "the [timing] line goes to stderr, never into a table or results/"
)]

use std::time::Instant;

/// Wall-clock timing of one experiment run. `scemu` prints this to
/// stderr, keeping stdout tables and `results/*.json` byte-identical
/// whatever the thread count.
#[derive(Debug, Clone)]
pub struct RunTiming {
    pub experiment: String,
    pub wall_s: f64,
    pub threads: usize,
}

impl RunTiming {
    pub fn line(&self) -> String {
        format!(
            "[timing] {}: {:.3} s wall, {} thread{}",
            self.experiment,
            self.wall_s,
            self.threads,
            if self.threads == 1 { "" } else { "s" }
        )
    }

    pub fn eprint(&self) {
        eprintln!("{}", self.line());
    }
}

/// Time `f`, labeling the result with the experiment name and the
/// engine's worker count.
pub fn timed<R>(experiment: &str, f: impl FnOnce() -> R) -> (R, RunTiming) {
    let start = Instant::now();
    let r = f();
    (
        r,
        RunTiming {
            experiment: experiment.to_string(),
            wall_s: start.elapsed().as_secs_f64(),
            threads: crate::engine::thread_count(),
        },
    )
}

/// A simple fixed-width text table.
#[derive(Debug, Clone, Default)]
pub struct TextTable {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl TextTable {
    pub fn new(header: &[&str]) -> Self {
        Self {
            header: header.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    pub fn row(&mut self, cells: Vec<String>) -> &mut Self {
        assert_eq!(cells.len(), self.header.len(), "row arity mismatch");
        self.rows.push(cells);
        self
    }

    /// Render with per-column widths.
    pub fn render(&self) -> String {
        let cols = self.header.len();
        let mut widths = vec![0usize; cols];
        for (i, h) in self.header.iter().enumerate() {
            widths[i] = h.len();
        }
        for r in &self.rows {
            for (i, c) in r.iter().enumerate() {
                widths[i] = widths[i].max(c.len());
            }
        }
        let mut out = String::new();
        let fmt_row = |cells: &[String], widths: &[usize]| -> String {
            let mut s = String::from("|");
            for (c, w) in cells.iter().zip(widths) {
                s.push_str(&format!(" {:<w$} |", c, w = w));
            }
            s.push('\n');
            s
        };
        out.push_str(&fmt_row(&self.header, &widths));
        out.push('|');
        for w in &widths {
            out.push_str(&format!("{:-<w$}|", "", w = w + 2));
        }
        out.push('\n');
        for r in &self.rows {
            out.push_str(&fmt_row(r, &widths));
        }
        out
    }
}

/// Format a float compactly: integers without decimals, small values
/// with 2-3 significant decimals.
pub fn fmt_num(v: f64) -> String {
    if v == 0.0 {
        "0".into()
    } else if v.abs() >= 1000.0 {
        format!("{:.0}", v)
    } else if v.abs() >= 10.0 {
        format!("{:.1}", v)
    } else {
        format!("{:.3}", v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned_table() {
        let mut t = TextTable::new(&["name", "value"]);
        t.row(vec!["a".into(), "1".into()]);
        t.row(vec!["long-name".into(), "12345".into()]);
        let s = t.render();
        assert!(s.contains("| name      | value |"), "{s}");
        assert!(s.lines().count() == 4);
        // All lines equal width.
        let lens: Vec<_> = s.lines().map(|l| l.len()).collect();
        assert!(lens.windows(2).all(|w| w[0] == w[1]), "{lens:?}");
    }

    #[test]
    #[should_panic(expected = "row arity mismatch")]
    fn arity_checked() {
        TextTable::new(&["a", "b"]).row(vec!["x".into()]);
    }

    #[test]
    fn fmt_num_ranges() {
        assert_eq!(fmt_num(0.0), "0");
        assert_eq!(fmt_num(12345.6), "12346");
        assert_eq!(fmt_num(42.34), "42.3");
        assert_eq!(fmt_num(1.2345), "1.234");
    }
}
