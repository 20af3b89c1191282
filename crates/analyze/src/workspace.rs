//! Workspace loading: walking the repository, lexing every Rust file,
//! and the shared structural helpers rules build on (brace matching,
//! `#[cfg(test)]` region detection, `xlint::` directive parsing).

use crate::lexer::{lex, Line};
use std::path::{Path, PathBuf};

/// Directory names the walker never descends into. `fixtures` keeps the
/// analyzer's own seeded-violation corpus out of real runs; `vendor`
/// holds third-party miniatures that are not ours to lint.
const SKIP_DIRS: [&str; 5] = ["target", "vendor", ".git", "fixtures", "node_modules"];

/// An `xlint::` directive found in comment text.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Directive {
    /// `xlint::hot-path(name)` — the next braced item is a hot path.
    HotPathItem { name: String },
    /// `xlint::hot-path(name) begin` — opens an explicit hot region.
    HotPathBegin { name: String },
    /// `xlint::hot-path(name) end` — closes it.
    HotPathEnd { name: String },
    /// An `xlint::` marker the parser does not recognize.
    Unknown { text: String },
}

/// One lexed source file.
#[derive(Debug)]
pub struct SourceFile {
    /// Path relative to the workspace root, with forward slashes.
    pub rel: String,
    /// Per-line code/comment split.
    pub lines: Vec<Line>,
    /// `test_lines[i]` is true for lines inside a `#[cfg(test)]` item.
    pub test_lines: Vec<bool>,
    /// Directives, as `(line_index, directive)` pairs (0-based lines).
    pub directives: Vec<(usize, Directive)>,
}

impl SourceFile {
    fn from_source(rel: String, src: &str) -> Self {
        let lines = lex(src);
        let test_lines = mark_test_lines(&lines);
        let directives = collect_directives(&lines);
        Self {
            rel,
            lines,
            test_lines,
            directives,
        }
    }
}

/// Every lexed file of the workspace.
#[derive(Debug)]
pub struct Workspace {
    pub files: Vec<SourceFile>,
}

impl Workspace {
    /// Loads every `*.rs` under `root` (skipping `SKIP_DIRS`).
    pub fn load(root: &Path) -> std::io::Result<Self> {
        let mut paths: Vec<PathBuf> = Vec::new();
        walk(root, &mut paths)?;
        paths.sort();
        let mut files = Vec::with_capacity(paths.len());
        for p in &paths {
            let src = std::fs::read_to_string(p)?;
            let rel = relative_slash(root, p);
            files.push(SourceFile::from_source(rel, &src));
        }
        Ok(Self { files })
    }

    pub fn file(&self, rel: &str) -> Option<&SourceFile> {
        self.files.iter().find(|f| f.rel == rel)
    }
}

fn relative_slash(root: &Path, p: &Path) -> String {
    let rel = p.strip_prefix(root).unwrap_or(p);
    let mut out = String::new();
    for comp in rel.components() {
        if !out.is_empty() {
            out.push('/');
        }
        out.push_str(&comp.as_os_str().to_string_lossy());
    }
    out
}

fn walk(dir: &Path, out: &mut Vec<PathBuf>) -> std::io::Result<()> {
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        let name = entry.file_name().to_string_lossy().into_owned();
        if path.is_dir() {
            if SKIP_DIRS.contains(&name.as_str()) || name.starts_with('.') {
                continue;
            }
            walk(&path, out)?;
        } else if name.ends_with(".rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// Finds the first `{` in code text at or after `(line, col)` and
/// returns the 0-based line index of its matching `}`.
pub fn matching_brace(lines: &[Line], from_line: usize, from_col: usize) -> Option<usize> {
    let mut depth = 0usize;
    let mut started = false;
    for (li, line) in lines.iter().enumerate().skip(from_line) {
        let skip = if li == from_line { from_col } else { 0 };
        for c in line.code.chars().skip(skip) {
            match c {
                '{' => {
                    depth += 1;
                    started = true;
                }
                '}' => {
                    depth = depth.saturating_sub(1);
                    if started && depth == 0 {
                        return Some(li);
                    }
                }
                _ => {}
            }
        }
    }
    None
}

/// Marks the lines belonging to `#[cfg(test)]` items (the attribute
/// line through the close of the item's braces).
fn mark_test_lines(lines: &[Line]) -> Vec<bool> {
    let mut mask = vec![false; lines.len()];
    for (i, line) in lines.iter().enumerate() {
        if !line.code.contains("#[cfg(test)]") || mask[i] {
            continue;
        }
        if let Some(end) = matching_brace(lines, i, 0) {
            for m in mask.iter_mut().take(end + 1).skip(i) {
                *m = true;
            }
        } else {
            // Attribute with no braced item below (e.g. on a `use`):
            // conservatively mark just the attribute line.
            mask[i] = true;
        }
    }
    mask
}

/// Parses `xlint::` markers out of the comment channel. Only a marker
/// that *leads* the comment is a directive — `xlint::` mentioned
/// mid-sentence or quoted in backticks is prose, not an instruction.
fn collect_directives(lines: &[Line]) -> Vec<(usize, Directive)> {
    let mut out = Vec::new();
    for (i, line) in lines.iter().enumerate() {
        let mut body = line.comment.trim_start();
        // Strip comment leaders: `//`, `///`, `//!`, `/*`, `/**`, `/*!`,
        // and the `*` that opens block-comment continuation lines.
        loop {
            let stripped = body
                .strip_prefix("//")
                .or_else(|| body.strip_prefix("/*"))
                .or_else(|| body.strip_prefix('*'))
                .or_else(|| body.strip_prefix('/'))
                .or_else(|| body.strip_prefix('!'));
            match stripped {
                Some(s) => body = s,
                None => break,
            }
        }
        if let Some(tail) = body.trim_start().strip_prefix("xlint::") {
            out.push((i, parse_directive(tail)));
        }
    }
    out
}

/// Parses one directive body (the text after `xlint::`).
fn parse_directive(tail: &str) -> Directive {
    if let Some(after) = tail.strip_prefix("hot-path") {
        let (name, after_name) = match after.strip_prefix('(').and_then(|b| b.split_once(')')) {
            Some((name, rest)) => (name.trim().to_owned(), rest),
            None => (String::new(), after),
        };
        let trimmed = after_name.trim_start();
        if trimmed.starts_with("begin") {
            return Directive::HotPathBegin { name };
        }
        if trimmed.starts_with("end") {
            return Directive::HotPathEnd { name };
        }
        return Directive::HotPathItem { name };
    }
    let text: String = tail.chars().take(40).collect();
    Directive::Unknown { text }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn test_regions_are_marked() {
        let src = "fn a() {}\n#[cfg(test)]\nmod tests {\n    fn b() {}\n}\nfn c() {}\n";
        let f = SourceFile::from_source("x.rs".into(), src);
        assert_eq!(f.test_lines, vec![false, true, true, true, true, false]);
    }

    #[test]
    fn directives_parse() {
        let src = "\
// xlint::hot-path(replay)\n\
// xlint::hot-path(ops) begin\n\
// xlint::hot-path(ops) end\n\
// xlint::allow(some-rule): the escape hatch is gone\n";
        let f = SourceFile::from_source("x.rs".into(), src);
        let dirs: Vec<&Directive> = f.directives.iter().map(|(_, d)| d).collect();
        assert_eq!(
            dirs[0],
            &Directive::HotPathItem {
                name: "replay".into()
            }
        );
        assert_eq!(dirs[1], &Directive::HotPathBegin { name: "ops".into() });
        assert_eq!(dirs[2], &Directive::HotPathEnd { name: "ops".into() });
        assert!(matches!(dirs[3], Directive::Unknown { text } if text.starts_with("allow(")));
    }

    #[test]
    fn directive_in_string_is_ignored() {
        let src = "let s = \"xlint::allow(x): nope\";\n";
        let f = SourceFile::from_source("x.rs".into(), src);
        assert!(f.directives.is_empty());
    }
}
