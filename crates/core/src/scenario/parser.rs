//! Spanned TOML-subset parser for scenario files.
//!
//! The workspace vendors no TOML crate, so scenarios are parsed by this
//! deliberately small, line-oriented reader. It covers the subset the
//! scenario format needs — bare and quoted keys, `[table]` / `[[array]]`
//! headers (dotted paths allowed), strings, integers, floats (including
//! `inf`), booleans, single-line arrays and inline tables, `#` comments —
//! and attaches a [`Span`] (line and column, both 1-based) to every key and
//! value so diagnostics can point at the offending character, rustc-style.
//!
//! JSON scenarios share the same downstream schema builder: [`from_json`]
//! converts a `serde_json::Value` into the identical spanned tree (with
//! null spans, since the vendored JSON parser does not track positions).

use super::{ScenarioError, Span};

/// A value together with the source position it was parsed from.
#[derive(Debug, Clone, PartialEq)]
pub struct Spanned<T> {
    /// The parsed value.
    pub value: T,
    /// Where it came from (line/col are 0 for synthesized values).
    pub span: Span,
}

impl<T> Spanned<T> {
    /// Wraps `value` with `span`.
    pub fn new(value: T, span: Span) -> Self {
        Self { value, span }
    }

    /// Wraps a value that has no source position (JSON input, defaults).
    pub fn synthetic(value: T) -> Self {
        Self {
            value,
            span: Span::NONE,
        }
    }
}

/// A parsed TOML value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// A quoted string.
    Str(String),
    /// An integer literal; wide enough for every `u64` (seeds) and for
    /// negative values, so range errors are the schema's to report.
    Int(i128),
    /// A float literal (also produced by `inf` / `-inf`).
    Float(f64),
    /// `true` / `false`.
    Bool(bool),
    /// A single-line `[a, b, c]` array.
    Array(Vec<Spanned<Value>>),
    /// A `[header]`, `[[header]]` element or `{ inline = "table" }`.
    Table(Table),
}

impl Value {
    /// Human-readable type name for error messages.
    pub fn type_name(&self) -> &'static str {
        match self {
            Value::Str(_) => "string",
            Value::Int(_) => "integer",
            Value::Float(_) => "float",
            Value::Bool(_) => "boolean",
            Value::Array(_) => "array",
            Value::Table(_) => "table",
        }
    }
}

/// An insertion-ordered table of `key = value` entries.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Table {
    entries: Vec<(Spanned<String>, Spanned<Value>)>,
}

impl Table {
    /// The entries in file order.
    pub fn entries(&self) -> &[(Spanned<String>, Spanned<Value>)] {
        &self.entries
    }

    /// Looks up a key.
    pub fn get(&self, key: &str) -> Option<&Spanned<Value>> {
        self.entries
            .iter()
            .find(|(k, _)| k.value == key)
            .map(|(_, v)| v)
    }

    /// The span of a key, if present.
    pub fn key_span(&self, key: &str) -> Option<Span> {
        self.entries
            .iter()
            .find(|(k, _)| k.value == key)
            .map(|(k, _)| k.span)
    }

    /// Inserts an entry, rejecting duplicates.
    fn insert(&mut self, key: Spanned<String>, value: Spanned<Value>) -> Result<(), ScenarioError> {
        if self.get(&key.value).is_some() {
            return Err(ScenarioError::at(
                key.span,
                format!("duplicate key `{}`", key.value),
            ));
        }
        self.entries.push((key, value));
        Ok(())
    }
}

/// Parses a TOML-subset document into its root table.
///
/// # Errors
///
/// Returns a [`ScenarioError`] with the line/column of the first offending
/// character.
pub fn parse_document(text: &str) -> Result<Table, ScenarioError> {
    let mut root = Table::default();
    // Path of the table currently receiving `key = value` lines.
    let mut current: Vec<String> = Vec::new();
    for (idx, raw_line) in text.lines().enumerate() {
        let line_no = idx as u32 + 1;
        let line = strip_comment(raw_line);
        let trimmed = line.trim_end();
        let first = match trimmed.find(|c: char| !c.is_whitespace()) {
            None => continue,
            Some(i) => i,
        };
        let span = Span::new(line_no, first as u32 + 1);
        let body = &trimmed[first..];
        if let Some(header) = body.strip_prefix("[[") {
            let inner = header.strip_suffix("]]").ok_or_else(|| {
                ScenarioError::at(span, "array-of-tables header is missing `]]`".to_string())
            })?;
            let path = parse_header_path(inner, span)?;
            open_array_of_tables(&mut root, &path, span)?;
            current = path;
        } else if let Some(header) = body.strip_prefix('[') {
            let inner = header.strip_suffix(']').ok_or_else(|| {
                ScenarioError::at(span, "table header is missing `]`".to_string())
            })?;
            let path = parse_header_path(inner, span)?;
            open_table(&mut root, &path, span, true)?;
            current = path;
        } else {
            let (key, value) = parse_key_value(trimmed, first, line_no)?;
            let table = navigate(&mut root, &current, span)?;
            table.insert(key, value)?;
        }
    }
    Ok(root)
}

/// Removes a `#` comment, respecting quoted strings.
fn strip_comment(line: &str) -> &str {
    let mut in_string = false;
    let mut escaped = false;
    for (i, c) in line.char_indices() {
        if escaped {
            escaped = false;
            continue;
        }
        match c {
            '\\' if in_string => escaped = true,
            '"' => in_string = !in_string,
            '#' if !in_string => return &line[..i],
            _ => {}
        }
    }
    line
}

/// Splits a dotted header path (`link.latency`) into segments.
fn parse_header_path(inner: &str, span: Span) -> Result<Vec<String>, ScenarioError> {
    let mut path = Vec::new();
    for segment in inner.split('.') {
        let segment = segment.trim();
        if segment.is_empty() || !segment.chars().all(is_bare_key_char) {
            return Err(ScenarioError::at(
                span,
                format!("invalid table header segment `{segment}`"),
            ));
        }
        path.push(segment.to_string());
    }
    Ok(path)
}

fn is_bare_key_char(c: char) -> bool {
    c.is_ascii_alphanumeric() || c == '_' || c == '-'
}

/// Walks `path` from `root`, descending into the last element of any
/// array-of-tables along the way, creating missing tables.
fn navigate<'a>(
    root: &'a mut Table,
    path: &[String],
    span: Span,
) -> Result<&'a mut Table, ScenarioError> {
    let mut table = root;
    for segment in path {
        let idx = match table.entries.iter().position(|(k, _)| k.value == *segment) {
            Some(i) => i,
            None => {
                table.entries.push((
                    Spanned::new(segment.clone(), span),
                    Spanned::new(Value::Table(Table::default()), span),
                ));
                table.entries.len() - 1
            }
        };
        table = match &mut table.entries[idx].1.value {
            Value::Table(t) => t,
            Value::Array(items) => match items.last_mut() {
                Some(Spanned {
                    value: Value::Table(t),
                    ..
                }) => t,
                _ => {
                    return Err(ScenarioError::at(
                        span,
                        format!("`{segment}` is not a table"),
                    ))
                }
            },
            _ => {
                return Err(ScenarioError::at(
                    span,
                    format!("`{segment}` is already defined as a value, not a table"),
                ))
            }
        };
    }
    Ok(table)
}

/// Handles a `[path]` header. `explicit` headers may not redefine a table
/// that was already opened with its own header.
fn open_table(
    root: &mut Table,
    path: &[String],
    span: Span,
    explicit: bool,
) -> Result<(), ScenarioError> {
    let (parent, last) = path.split_at(path.len() - 1);
    let table = navigate(root, parent, span)?;
    let last = &last[0];
    match table.entries.iter().position(|(k, _)| k.value == *last) {
        None => {
            table.entries.push((
                Spanned::new(last.clone(), span),
                Spanned::new(Value::Table(Table::default()), span),
            ));
            Ok(())
        }
        Some(i) => match &table.entries[i].1.value {
            // Re-opening is only legal for tables created implicitly by a
            // dotted child header; an explicit duplicate is an error.
            Value::Table(_) if explicit && table.entries[i].0.span != span => Err(
                ScenarioError::at(span, format!("table `{last}` is defined twice")),
            ),
            Value::Table(_) => Ok(()),
            other => Err(ScenarioError::at(
                span,
                format!("`{last}` is already a {}", other.type_name()),
            )),
        },
    }
}

/// Handles a `[[path]]` header: appends a fresh table to the array at
/// `path`, creating the array on first use.
fn open_array_of_tables(
    root: &mut Table,
    path: &[String],
    span: Span,
) -> Result<(), ScenarioError> {
    let (parent, last) = path.split_at(path.len() - 1);
    let table = navigate(root, parent, span)?;
    let last = &last[0];
    match table.entries.iter().position(|(k, _)| k.value == *last) {
        None => {
            table.entries.push((
                Spanned::new(last.clone(), span),
                Spanned::new(
                    Value::Array(vec![Spanned::new(Value::Table(Table::default()), span)]),
                    span,
                ),
            ));
            Ok(())
        }
        Some(i) => match &mut table.entries[i].1.value {
            Value::Array(items) => {
                items.push(Spanned::new(Value::Table(Table::default()), span));
                Ok(())
            }
            other => Err(ScenarioError::at(
                span,
                format!("`{last}` is already a {}", other.type_name()),
            )),
        },
    }
}

/// Parses one `key = value` line (offset `first` into the line).
fn parse_key_value(
    line: &str,
    first: usize,
    line_no: u32,
) -> Result<(Spanned<String>, Spanned<Value>), ScenarioError> {
    let mut cur = Cursor::new(line, line_no);
    cur.i = first;
    let key = cur.parse_key()?;
    cur.skip_ws();
    if !cur.eat('=') {
        return Err(ScenarioError::at(
            cur.span(),
            "expected `=` after key".to_string(),
        ));
    }
    cur.skip_ws();
    if cur.at_end() {
        return Err(ScenarioError::at(
            cur.span(),
            format!("key `{}` has no value", key.value),
        ));
    }
    let value = cur.parse_value()?;
    cur.skip_ws();
    if !cur.at_end() {
        return Err(ScenarioError::at(
            cur.span(),
            format!("unexpected trailing characters `{}`", cur.rest()),
        ));
    }
    Ok((key, value))
}

/// Character cursor over one line.
struct Cursor {
    chars: Vec<char>,
    i: usize,
    line: u32,
}

impl Cursor {
    fn new(raw: &str, line: u32) -> Self {
        Self {
            chars: raw.chars().collect(),
            i: 0,
            line,
        }
    }

    fn span(&self) -> Span {
        Span::new(self.line, self.i as u32 + 1)
    }

    fn at_end(&self) -> bool {
        self.i >= self.chars.len()
    }

    fn peek(&self) -> Option<char> {
        self.chars.get(self.i).copied()
    }

    fn eat(&mut self, c: char) -> bool {
        if self.peek() == Some(c) {
            self.i += 1;
            true
        } else {
            false
        }
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(c) if c.is_whitespace()) {
            self.i += 1;
        }
    }

    fn rest(&self) -> String {
        self.chars[self.i..].iter().collect()
    }

    fn parse_key(&mut self) -> Result<Spanned<String>, ScenarioError> {
        let span = self.span();
        if self.peek() == Some('"') {
            let value = self.parse_string()?;
            return Ok(Spanned::new(value, span));
        }
        let start = self.i;
        while matches!(self.peek(), Some(c) if is_bare_key_char(c)) {
            self.i += 1;
        }
        if self.i == start {
            return Err(ScenarioError::at(span, "expected a key".to_string()));
        }
        let key: String = self.chars[start..self.i].iter().collect();
        if self.peek() == Some('.') {
            return Err(ScenarioError::at(
                span,
                format!("dotted key `{key}.…` is not supported; use a [table] header"),
            ));
        }
        Ok(Spanned::new(key, span))
    }

    fn parse_string(&mut self) -> Result<String, ScenarioError> {
        let span = self.span();
        debug_assert_eq!(self.peek(), Some('"'));
        self.i += 1;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => {
                    return Err(ScenarioError::at(span, "unterminated string".to_string()));
                }
                Some('"') => {
                    self.i += 1;
                    return Ok(out);
                }
                Some('\\') => {
                    self.i += 1;
                    let escaped = self.peek().ok_or_else(|| {
                        ScenarioError::at(span, "unterminated string".to_string())
                    })?;
                    out.push(match escaped {
                        'n' => '\n',
                        't' => '\t',
                        'r' => '\r',
                        '"' => '"',
                        '\\' => '\\',
                        other => {
                            return Err(ScenarioError::at(
                                self.span(),
                                format!("unsupported escape `\\{other}`"),
                            ))
                        }
                    });
                    self.i += 1;
                }
                Some(c) => {
                    out.push(c);
                    self.i += 1;
                }
            }
        }
    }

    fn parse_value(&mut self) -> Result<Spanned<Value>, ScenarioError> {
        let span = self.span();
        match self.peek() {
            Some('"') => {
                let s = self.parse_string()?;
                Ok(Spanned::new(Value::Str(s), span))
            }
            Some('[') => {
                self.i += 1;
                let mut items = Vec::new();
                loop {
                    self.skip_ws();
                    if self.eat(']') {
                        break;
                    }
                    items.push(self.parse_value()?);
                    self.skip_ws();
                    if self.eat(',') {
                        continue;
                    }
                    if self.eat(']') {
                        break;
                    }
                    return Err(ScenarioError::at(
                        self.span(),
                        "expected `,` or `]` in array".to_string(),
                    ));
                }
                Ok(Spanned::new(Value::Array(items), span))
            }
            Some('{') => {
                self.i += 1;
                let mut table = Table::default();
                loop {
                    self.skip_ws();
                    if self.eat('}') {
                        break;
                    }
                    let key = self.parse_key()?;
                    self.skip_ws();
                    if !self.eat('=') {
                        return Err(ScenarioError::at(
                            self.span(),
                            "expected `=` in inline table".to_string(),
                        ));
                    }
                    self.skip_ws();
                    let value = self.parse_value()?;
                    table.insert(key, value)?;
                    self.skip_ws();
                    if self.eat(',') {
                        continue;
                    }
                    if self.eat('}') {
                        break;
                    }
                    return Err(ScenarioError::at(
                        self.span(),
                        "expected `,` or `}` in inline table".to_string(),
                    ));
                }
                Ok(Spanned::new(Value::Table(table), span))
            }
            Some(_) => self.parse_scalar(span),
            None => Err(ScenarioError::at(span, "expected a value".to_string())),
        }
    }

    fn parse_scalar(&mut self, span: Span) -> Result<Spanned<Value>, ScenarioError> {
        let start = self.i;
        while matches!(self.peek(), Some(c) if !c.is_whitespace() && !matches!(c, ',' | ']' | '}'))
        {
            self.i += 1;
        }
        let word: String = self.chars[start..self.i].iter().collect();
        let value = match word.as_str() {
            "true" => Value::Bool(true),
            "false" => Value::Bool(false),
            "inf" | "+inf" => Value::Float(f64::INFINITY),
            "-inf" => Value::Float(f64::NEG_INFINITY),
            _ => {
                let digits: String = word.chars().filter(|&c| c != '_').collect();
                if digits.contains(['.', 'e', 'E'])
                    || (digits.starts_with(['+', '-']) && digits[1..].contains(['.', 'e', 'E']))
                {
                    match digits.parse::<f64>() {
                        Ok(f) => Value::Float(f),
                        Err(_) => {
                            return Err(ScenarioError::at(span, format!("invalid value `{word}`")))
                        }
                    }
                } else {
                    match digits.parse::<i128>() {
                        Ok(n) => Value::Int(n),
                        Err(_) => {
                            return Err(ScenarioError::at(span, format!("invalid value `{word}`")))
                        }
                    }
                }
            }
        };
        Ok(Spanned::new(value, span))
    }
}

/// Converts a parsed JSON document into the same spanned tree the TOML
/// parser produces (spans are all [`Span::NONE`]). JSON and TOML scenarios
/// therefore share one schema builder and produce identical [`super::Scenario`]
/// values.
///
/// # Errors
///
/// Returns an error for JSON nulls or mixed scalar/table arrays, which have
/// no TOML counterpart.
pub fn from_json(value: &serde_json::Value) -> Result<Spanned<Value>, ScenarioError> {
    use serde_json::Value as J;
    let converted = match value {
        J::Null => {
            return Err(ScenarioError::new(
                "JSON null has no scenario counterpart; omit the key instead".to_string(),
            ))
        }
        J::Bool(b) => Value::Bool(*b),
        J::U64(n) => Value::Int(i128::from(*n)),
        J::I64(n) => Value::Int(i128::from(*n)),
        J::U128(n) => {
            let n = i128::try_from(*n)
                .map_err(|_| ScenarioError::new(format!("integer {n} is out of range")))?;
            Value::Int(n)
        }
        J::F64(f) => Value::Float(*f),
        J::Str(s) => Value::Str(s.clone()),
        J::Seq(items) => {
            let items: Result<Vec<_>, _> = items.iter().map(from_json).collect();
            Value::Array(items?)
        }
        J::Map(entries) => {
            let mut table = Table::default();
            for (k, v) in entries {
                table.insert(Spanned::synthetic(k.clone()), from_json(v)?)?;
            }
            Value::Table(table)
        }
    };
    Ok(Spanned::synthetic(converted))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(text: &str) -> Table {
        parse_document(text).unwrap()
    }

    #[test]
    fn scalars_and_comments() {
        let t = parse(
            "name = \"demo # not a comment\" # trailing\nseed = 42\nfrac = 0.5\nflag = true\nneg = -3\nbig = 1_000\ninfty = inf\n",
        );
        assert_eq!(
            t.get("name").unwrap().value,
            Value::Str("demo # not a comment".into())
        );
        assert_eq!(t.get("seed").unwrap().value, Value::Int(42));
        assert_eq!(t.get("frac").unwrap().value, Value::Float(0.5));
        assert_eq!(t.get("flag").unwrap().value, Value::Bool(true));
        assert_eq!(t.get("neg").unwrap().value, Value::Int(-3));
        assert_eq!(t.get("big").unwrap().value, Value::Int(1000));
        assert_eq!(t.get("infty").unwrap().value, Value::Float(f64::INFINITY));
    }

    #[test]
    fn spans_are_one_based() {
        let t = parse("a = 1\n  b = 2\n");
        assert_eq!(t.key_span("a").unwrap(), Span::new(1, 1));
        assert_eq!(t.key_span("b").unwrap(), Span::new(2, 3));
        assert_eq!(t.get("b").unwrap().span, Span::new(2, 7));
    }

    #[test]
    fn tables_and_dotted_headers() {
        let t = parse("[link]\nloss = 0.1\n[link.latency]\ndist = \"exponential\"\nmean = 0.3\n");
        let link = match &t.get("link").unwrap().value {
            Value::Table(t) => t,
            other => panic!("{other:?}"),
        };
        assert_eq!(link.get("loss").unwrap().value, Value::Float(0.1));
        let latency = match &link.get("latency").unwrap().value {
            Value::Table(t) => t,
            other => panic!("{other:?}"),
        };
        assert_eq!(
            latency.get("dist").unwrap().value,
            Value::Str("exponential".into())
        );
    }

    #[test]
    fn array_of_tables_preserves_order() {
        let t = parse("[[phase]]\nkind = \"a\"\n[[phase]]\nkind = \"b\"\n");
        let phases = match &t.get("phase").unwrap().value {
            Value::Array(items) => items,
            other => panic!("{other:?}"),
        };
        assert_eq!(phases.len(), 2);
        let kind = |i: usize| match &phases[i].value {
            Value::Table(t) => t.get("kind").unwrap().value.clone(),
            other => panic!("{other:?}"),
        };
        assert_eq!(kind(0), Value::Str("a".into()));
        assert_eq!(kind(1), Value::Str("b".into()));
    }

    #[test]
    fn arrays_and_inline_tables() {
        let t = parse("detectors = [\"a\", \"b\"]\nlatency = { dist = \"pareto\", shape = 2.5, mean = 0.4 }\nempty = []\n");
        match &t.get("detectors").unwrap().value {
            Value::Array(items) => {
                assert_eq!(items.len(), 2);
                assert_eq!(items[1].value, Value::Str("b".into()));
            }
            other => panic!("{other:?}"),
        }
        match &t.get("latency").unwrap().value {
            Value::Table(inline) => {
                assert_eq!(inline.get("shape").unwrap().value, Value::Float(2.5));
            }
            other => panic!("{other:?}"),
        }
        assert_eq!(t.get("empty").unwrap().value, Value::Array(Vec::new()));
    }

    #[test]
    fn errors_carry_positions() {
        let err = parse_document("a = 1\nb 2\n").unwrap_err();
        assert_eq!(err.span, Some(Span::new(2, 3)));
        assert!(err.message.contains("expected `=`"), "{}", err.message);

        let err = parse_document("a = \"unterminated\n").unwrap_err();
        assert!(err.message.contains("unterminated"), "{}", err.message);

        let err = parse_document("a = 1\na = 2\n").unwrap_err();
        assert!(err.message.contains("duplicate key `a`"), "{}", err.message);
        assert_eq!(err.span, Some(Span::new(2, 1)));

        let err = parse_document("[t]\nx = 1\n[t]\n").unwrap_err();
        assert!(err.message.contains("defined twice"), "{}", err.message);

        let err = parse_document("a = 1 trailing\n").unwrap_err();
        assert!(err.message.contains("trailing"), "{}", err.message);
    }

    #[test]
    fn json_converts_to_same_tree() {
        let json: serde_json::Value = serde_json::from_str(
            "{\"seed\": 7, \"frac\": 0.5, \"tags\": [\"x\"], \"link\": {\"loss\": 0.1}}",
        )
        .unwrap();
        let spanned = from_json(&json).unwrap();
        let table = match spanned.value {
            Value::Table(t) => t,
            other => panic!("{other:?}"),
        };
        assert_eq!(table.get("seed").unwrap().value, Value::Int(7));
        assert_eq!(table.get("frac").unwrap().value, Value::Float(0.5));
        match &table.get("link").unwrap().value {
            Value::Table(link) => assert_eq!(link.get("loss").unwrap().value, Value::Float(0.1)),
            other => panic!("{other:?}"),
        }
    }
}
