//! The ratchet file: per-crate counters checked into the repo as
//! `audit.baseline.toml`. The format is a tiny TOML subset
//! (`[section]`, `key = integer`, `#` comments) parsed by hand so the
//! auditor stays dependency-free. It carries the R3 panic-hygiene
//! counters (`unwrap`/`expect`/`panic`/`unsafe`) only: every other rule
//! is fatal on its first finding, so it has no ceiling to record.
//!
//! The ratchet direction: current counts may be **at or below** the
//! baseline, never above. Dropping below prints a nudge to regenerate
//! (`sc-audit --update-baseline`) so the ceiling follows the progress
//! down.

use crate::rules::PanicCounts;
use std::collections::BTreeMap;

/// Baseline counters keyed by crate directory name (`fiveg`, `emu`, …).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Baseline {
    pub crates: BTreeMap<String, PanicCounts>,
}

/// A parse failure with its line number.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    pub line: usize,
    pub message: String,
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "baseline line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for ParseError {}

impl Baseline {
    /// Parse the TOML-subset text.
    pub fn parse(text: &str) -> Result<Self, ParseError> {
        let mut out = Baseline::default();
        let mut current: Option<String> = None;
        for (i, raw) in text.lines().enumerate() {
            let lineno = i + 1;
            let line = raw.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            if let Some(rest) = line.strip_prefix('[') {
                let Some(name) = rest.strip_suffix(']') else {
                    return Err(ParseError {
                        line: lineno,
                        message: format!("unterminated section header `{line}`"),
                    });
                };
                let name = name.trim().to_string();
                out.crates.entry(name.clone()).or_default();
                current = Some(name);
                continue;
            }
            let Some((key, value)) = line.split_once('=') else {
                return Err(ParseError {
                    line: lineno,
                    message: format!("expected `key = value`, got `{line}`"),
                });
            };
            let Some(section) = current.as_ref() else {
                return Err(ParseError {
                    line: lineno,
                    message: "key before any [crate] section".into(),
                });
            };
            let value: u32 = value.trim().parse().map_err(|_| ParseError {
                line: lineno,
                message: format!("`{}` is not a non-negative integer", value.trim()),
            })?;
            let c = out.crates.get_mut(section).expect("section inserted above");
            match key.trim() {
                "unwrap" => c.unwrap = value,
                "expect" => c.expect = value,
                "panic" => c.panic = value,
                "unsafe" => c.r#unsafe = value,
                other => {
                    return Err(ParseError {
                        line: lineno,
                        message: format!("unknown counter `{other}`"),
                    })
                }
            }
        }
        Ok(out)
    }

    /// Render back to the canonical checked-in form.
    pub fn render(&self) -> String {
        let mut s = String::from(
            "# Ratchet file for sc-audit. Counts are per crate directory under\n\
             # crates/ and may only go DOWN over time; regenerate after genuine\n\
             # reductions with: cargo run -p sc-audit -- --update-baseline\n\
             # unwrap/expect/panic/unsafe: R3 panic hygiene.\n",
        );
        for (name, c) in &self.crates {
            s.push_str(&format!(
                "\n[{name}]\nunwrap = {}\nexpect = {}\npanic = {}\nunsafe = {}\n",
                c.unwrap, c.expect, c.panic, c.r#unsafe
            ));
        }
        s
    }

    /// Build from measured counts.
    pub fn from_counts(counts: &BTreeMap<String, PanicCounts>) -> Self {
        Self {
            crates: counts.clone(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip() {
        let mut counts = BTreeMap::new();
        counts.insert(
            "fiveg".to_string(),
            PanicCounts {
                unwrap: 12,
                expect: 3,
                panic: 1,
                r#unsafe: 0,
            },
        );
        counts.insert("emu".to_string(), PanicCounts::default());
        let b = Baseline::from_counts(&counts);
        let parsed = Baseline::parse(&b.render()).unwrap();
        assert_eq!(parsed, b);
    }

    #[test]
    fn comments_and_blank_lines_ok() {
        let b = Baseline::parse("# header\n\n[geo]\nunwrap = 4\n# trailing\n").unwrap();
        assert_eq!(b.crates["geo"].unwrap, 4);
    }

    #[test]
    fn rejects_garbage() {
        assert!(Baseline::parse("unwrap = 1\n").is_err(), "key before section");
        assert!(Baseline::parse("[x]\nunwrap = -1\n").is_err(), "negative");
        assert!(Baseline::parse("[x]\nwat = 1\n").is_err(), "unknown key");
        assert!(Baseline::parse("[x]\nr4 = 0\n").is_err(), "R4/R5 have no ceiling");
        assert!(Baseline::parse("[x\n").is_err(), "unterminated header");
    }
}
