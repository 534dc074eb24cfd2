//! One reader for the TOML subset behind every config file: fault plans
//! (`dmig_sim::faults`), availability models
//! (`dmig_workloads::availability`) and gate rules ([`crate::gate`]).
//!
//! The subset is line-oriented:
//!
//! * `#` starts a comment that runs to the end of the line, unless it sits
//!   inside a `"…"` string (`\"` does not end the string);
//! * `[name]` opens a table and `[[name]]` one element of an array of
//!   tables; names are trimmed;
//! * `key = value` splits at the first `=`; key and value are trimmed, and
//!   the value stays raw text until a typed accessor reads it;
//! * blank lines are skipped.
//!
//! The reader knows no keys and no table names. Each format walks the
//! entries in file order, so a repeated key keeps the last value and an
//! unknown key or table is the format's error to report. Tables keep their
//! header line and entries their own line, so every error — the reader's
//! or a format's — is a [`ConfError`]: a 1-based line plus a message.
//!
//! ```
//! use dmig_obs::conf;
//!
//! let doc = conf::read("seed = 7\n\n[[crash]] # a comment\ndisk = 3\n")?;
//! assert_eq!(doc.top.entries[0].parse::<u64>("an integer")?, 7);
//! let crash = &doc.tables[0];
//! assert_eq!((crash.name.as_str(), crash.array, crash.line), ("crash", true, 3));
//! assert_eq!(crash.entries[0].line, 4);
//! assert_eq!(conf::read("nonsense\n").unwrap_err().line, 1);
//! # Ok::<(), conf::ConfError>(())
//! ```

use std::str::FromStr;

/// A read file: the entries before the first header, then every table in
/// file order.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Doc {
    /// The top-level table (name `""`, line 0).
    pub top: Table,
    /// Every `[name]` and `[[name]]` table, in file order.
    pub tables: Vec<Table>,
}

/// One table: its header and its `key = value` entries.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Table {
    /// The trimmed header name (`""` for the top-level table).
    pub name: String,
    /// `true` for a `[[name]]` header.
    pub array: bool,
    /// 1-based line of the header (0 for the top-level table).
    pub line: usize,
    /// Entries in file order, repeats included.
    pub entries: Vec<Entry>,
}

impl Table {
    /// The header as `[name]` or `[[name]]`.
    #[must_use]
    pub fn header(&self) -> String {
        let (open, close) = if self.array { ("[[", "]]") } else { ("[", "]") };
        format!("{open}{}{close}", self.name)
    }

    /// An error on the header line.
    #[must_use]
    pub fn error(&self, message: impl Into<String>) -> ConfError {
        ConfError {
            line: self.line,
            message: message.into(),
        }
    }
}

/// One `key = value` line with its value as raw (trimmed) text.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Entry {
    /// The trimmed key.
    pub key: String,
    /// The trimmed value text, quotes included.
    pub value: String,
    /// 1-based line of the entry.
    pub line: usize,
}

impl Entry {
    /// An error on the entry's line.
    #[must_use]
    pub fn error(&self, message: impl Into<String>) -> ConfError {
        ConfError {
            line: self.line,
            message: message.into(),
        }
    }

    /// The value as an `f64`.
    ///
    /// # Errors
    ///
    /// `key: expected a number, got `value``.
    pub fn number(&self) -> Result<f64, ConfError> {
        self.parse("a number")
    }

    /// The value parsed as any `T` (an integer type, say); `what` names
    /// the expected kind in the error (`"an integer"`, `"a disk index"`).
    ///
    /// # Errors
    ///
    /// `key: expected what, got `value``.
    pub fn parse<T: FromStr>(&self, what: &str) -> Result<T, ConfError> {
        self.value.parse().map_err(|_| {
            self.error(format!(
                "{}: expected {what}, got `{}`",
                self.key, self.value
            ))
        })
    }

    /// The value as a bare `true` or `false`.
    ///
    /// # Errors
    ///
    /// `key: expected true/false, got `value``.
    pub fn boolean(&self) -> Result<bool, ConfError> {
        match self.value.as_str() {
            "true" => Ok(true),
            "false" => Ok(false),
            other => Err(self.error(format!("{}: expected true/false, got `{other}`", self.key))),
        }
    }

    /// The value as a `"…"` string with `\"` and `\\` unescaped, or `None`
    /// when it is not wrapped in double quotes.
    #[must_use]
    pub fn quoted(&self) -> Option<String> {
        let v = self.value.as_str();
        (v.len() >= 2 && v.starts_with('"') && v.ends_with('"')).then(|| {
            v[1..v.len() - 1]
                .replace("\\\"", "\"")
                .replace("\\\\", "\\")
        })
    }

    /// The value with any surrounding double quotes removed: quotes are
    /// optional for this kind of string.
    #[must_use]
    pub fn loose(&self) -> &str {
        self.value.trim_matches('"')
    }
}

/// A line-numbered config error.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ConfError {
    /// 1-based line number.
    pub line: usize,
    /// What went wrong.
    pub message: String,
}

impl std::fmt::Display for ConfError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for ConfError {}

/// Reads `text` into its tables.
///
/// # Errors
///
/// A [`ConfError`] for the first line that is neither blank, a comment, a
/// table header nor a `key = value` pair.
pub fn read(text: &str) -> Result<Doc, ConfError> {
    let mut doc = Doc::default();
    for (i, raw) in text.lines().enumerate() {
        let line = i + 1;
        let err = |message: String| Err(ConfError { line, message });
        let body = strip_comment(raw).trim();
        if body.is_empty() {
            continue;
        }
        if let Some(rest) = body.strip_prefix('[') {
            let (name, array) = match rest.strip_prefix('[').and_then(|s| s.strip_suffix("]]")) {
                Some(name) => (name, true),
                None => match rest.strip_suffix(']') {
                    Some(name) => (name, false),
                    None => return err(format!("malformed table header `{body}`")),
                },
            };
            doc.tables.push(Table {
                name: name.trim().to_string(),
                array,
                line,
                entries: Vec::new(),
            });
        } else if let Some((key, value)) = body.split_once('=') {
            let table = doc.tables.last_mut().unwrap_or(&mut doc.top);
            table.entries.push(Entry {
                key: key.trim().to_string(),
                value: value.trim().to_string(),
                line,
            });
        } else {
            return err(format!("expected `key = value`, got `{body}`"));
        }
    }
    Ok(doc)
}

/// Drops a `#` comment, respecting `"…"` strings.
fn strip_comment(line: &str) -> &str {
    let mut in_string = false;
    let mut prev_backslash = false;
    for (i, c) in line.char_indices() {
        match c {
            '"' if !prev_backslash => in_string = !in_string,
            '#' if !in_string => return &line[..i],
            _ => {}
        }
        prev_backslash = c == '\\' && !prev_backslash;
    }
    line
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(value: &str) -> Entry {
        Entry {
            key: "k".into(),
            value: value.into(),
            line: 3,
        }
    }

    #[test]
    fn comments_stop_at_hash_outside_strings_only() {
        assert_eq!(strip_comment("a = 1 # note"), "a = 1 ");
        assert_eq!(strip_comment("a = \"x # y\""), "a = \"x # y\"");
        assert_eq!(
            strip_comment("a = \"x \\\" # y\" # z"),
            "a = \"x \\\" # y\" "
        );
        let doc = read("name = \"rack#1\" # the rack\nn = 2 # two\n").unwrap();
        assert_eq!(doc.top.entries[0].value, "\"rack#1\"");
        assert_eq!(doc.top.entries[0].loose(), "rack#1");
        assert_eq!(doc.top.entries[1].value, "2");
    }

    #[test]
    fn tables_and_arrays_of_tables_are_told_apart() {
        let doc = read("a = 1\n[ one ]\nb = 2\n\n[[ many ]]\n[[many]]\nc=3\n").unwrap();
        assert_eq!(doc.top.entries.len(), 1);
        let heads: Vec<(&str, bool, usize, usize)> = doc
            .tables
            .iter()
            .map(|t| (t.name.as_str(), t.array, t.line, t.entries.len()))
            .collect();
        assert_eq!(
            heads,
            vec![
                ("one", false, 2, 1),
                ("many", true, 5, 0),
                ("many", true, 6, 1)
            ]
        );
        assert_eq!(doc.tables[0].header(), "[one]");
        assert_eq!(doc.tables[1].header(), "[[many]]");
        assert_eq!(doc.tables[2].entries[0].key, "c");
        // An unbalanced array header reads as a plain table whose name
        // keeps the stray bracket, so formats name it as written.
        assert_eq!(read("[[x]\n").unwrap().tables[0].header(), "[[x]");
    }

    #[test]
    fn empty_and_comment_only_files_have_no_tables() {
        for text in ["", "\n\n", "# only a comment\n   \n"] {
            assert_eq!(read(text).unwrap(), Doc::default(), "{text:?}");
        }
    }

    #[test]
    fn repeated_keys_are_all_kept_in_order() {
        let doc = read("k = 1\nk = 2\n").unwrap();
        let values: Vec<&str> = doc.top.entries.iter().map(|e| e.value.as_str()).collect();
        assert_eq!(values, ["1", "2"]);
    }

    #[test]
    fn every_error_class_carries_its_line() {
        let err = read("a = 1\n\ngibberish\n").unwrap_err();
        assert_eq!(err.line, 3);
        assert!(err.message.contains("expected `key = value`"), "{err}");
        let err = read("a = 1\n[open\n").unwrap_err();
        assert_eq!(err.line, 2);
        assert!(err.message.contains("malformed table header"), "{err}");
        assert_eq!(err.to_string(), "line 2: malformed table header `[open`");

        let e = entry("x");
        assert_eq!(e.number().unwrap_err().line, 3);
        assert!(e
            .number()
            .unwrap_err()
            .message
            .contains("k: expected a number, got `x`"));
        let err = e.parse::<u64>("an integer").unwrap_err();
        assert_eq!(
            (err.line, err.message.as_str()),
            (3, "k: expected an integer, got `x`")
        );
        assert_eq!(e.boolean().unwrap_err().line, 3);
        assert_eq!(e.quoted(), None);
        let table = Table {
            line: 7,
            ..Table::default()
        };
        assert_eq!(table.error("missing").line, 7);
    }

    #[test]
    fn typed_accessors_read_raw_values() {
        assert_eq!(entry("2.5").number(), Ok(2.5));
        assert_eq!(entry("1e-9").number(), Ok(1e-9));
        assert_eq!(entry("42").parse::<usize>("a disk index"), Ok(42));
        assert!(entry("-1").parse::<usize>("a disk index").is_err());
        assert_eq!(entry("true").boolean(), Ok(true));
        assert_eq!(entry("false").boolean(), Ok(false));
        assert!(entry("\"true\"").boolean().is_err());
        assert_eq!(
            entry(r#""a \"b\" \\ c""#).quoted().as_deref(),
            Some(r#"a "b" \ c"#)
        );
        assert_eq!(entry("\"\"").quoted().as_deref(), Some(""));
        assert_eq!(entry("\"").quoted(), None);
        assert_eq!(entry("\"crash\"").loose(), "crash");
        assert_eq!(entry("crash").loose(), "crash");
    }
}
