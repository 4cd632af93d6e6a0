//! The one reader behind the three checked-in manifests —
//! `lint.allow.toml`, `lint.capabilities.toml` and `lint.models.toml`.
//!
//! Only the TOML subset they use is read: `[[table]]` headers, one
//! `key = value` per line, `#` comments and blank lines. Each manifest
//! supplies the checks for its own keys; the reader reports every
//! problem as `file:line: message`, with a missing key at its entry's
//! header line.

/// A malformed manifest: which file, where, and what is wrong.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ManifestError {
    /// The manifest's file name (`lint.allow.toml`, …).
    pub file: &'static str,
    /// 1-based line of the problem.
    pub line: usize,
    /// What is wrong.
    pub message: String,
}

impl std::fmt::Display for ManifestError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}:{}: {}", self.file, self.line, self.message)
    }
}

impl std::error::Error for ManifestError {}

/// Reads `text` as `[[table]]` entries of `file`. Each `key = value`
/// line goes to `set` on the current entry, and each finished entry
/// goes to `finish` with its header line. An error from `set` is
/// reported at the key's line, one from `finish` at the header's.
///
/// # Errors
///
/// [`ManifestError`] on the first malformed line or rejected key or
/// entry.
pub(crate) fn read_tables<E: Default>(
    file: &'static str,
    table: &str,
    text: &str,
    mut set: impl FnMut(&mut E, &str, &str) -> Result<(), String>,
    mut finish: impl FnMut(usize, E) -> Result<(), String>,
) -> Result<(), ManifestError> {
    let err = |line: usize, message: String| ManifestError {
        file,
        line,
        message,
    };
    let header = format!("[[{table}]]");
    let mut current: Option<(usize, E)> = None;
    for (idx, raw) in text.lines().enumerate() {
        let lineno = idx + 1;
        let line = strip_comment(raw).trim();
        if line.is_empty() {
            continue;
        }
        if line == header {
            if let Some((at, entry)) = current.take() {
                finish(at, entry).map_err(|m| err(at, m))?;
            }
            current = Some((lineno, E::default()));
            continue;
        }
        let Some((key, value)) = line.split_once('=') else {
            return Err(err(lineno, format!("expected `key = value` or `{header}`")));
        };
        let Some((_, entry)) = current.as_mut() else {
            return Err(err(lineno, format!("key outside a {header} entry")));
        };
        set(entry, key.trim(), value.trim()).map_err(|m| err(lineno, m))?;
    }
    if let Some((at, entry)) = current {
        finish(at, entry).map_err(|m| err(at, m))?;
    }
    Ok(())
}

/// A quoted string value, or `what` as the error.
pub(crate) fn quoted(value: &str, what: &str) -> Result<String, String> {
    parse_string(value).ok_or_else(|| what.to_string())
}

/// Strips a `#` comment that is outside any quoted string.
fn strip_comment(line: &str) -> &str {
    let mut in_str = false;
    let mut escaped = false;
    for (i, c) in line.char_indices() {
        match c {
            '\\' if in_str && !escaped => {
                escaped = true;
                continue;
            }
            '"' if !escaped => in_str = !in_str,
            '#' if !in_str => return &line[..i],
            _ => {}
        }
        escaped = false;
    }
    line
}

/// Unquotes a `"…"` value with `\n`, `\t` and `\"`-style escapes.
fn parse_string(value: &str) -> Option<String> {
    let inner = value.strip_prefix('"')?.strip_suffix('"')?;
    let mut out = String::with_capacity(inner.len());
    let mut escaped = false;
    for c in inner.chars() {
        if escaped {
            out.push(match c {
                'n' => '\n',
                't' => '\t',
                other => other,
            });
            escaped = false;
        } else if c == '\\' {
            escaped = true;
        } else if c == '"' {
            return None; // unescaped quote mid-string
        } else {
            out.push(c);
        }
    }
    if escaped {
        return None;
    }
    Some(out)
}
