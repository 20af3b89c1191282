//! Diagnostics and report rendering (human and JSON).

/// One finding: a named rule, a location, and what went wrong.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// The rule that fired (e.g. `unsafe-containment`).
    pub rule: &'static str,
    /// Path relative to the workspace root, forward slashes.
    pub path: String,
    /// 1-based line number.
    pub line: usize,
    /// Human-readable description of the violation.
    pub message: String,
}

impl Diagnostic {
    pub fn new(rule: &'static str, path: &str, line0: usize, message: String) -> Self {
        Self {
            rule,
            path: path.to_owned(),
            line: line0 + 1,
            message,
        }
    }
}

/// A diagnostic silenced by an inline `xlint::allow` with a reason.
#[derive(Debug, Clone)]
pub struct Suppression {
    pub diagnostic: Diagnostic,
    pub reason: String,
}

/// The outcome of one analyzer run.
#[derive(Debug, Default)]
pub struct Report {
    /// Violations that survived suppression, sorted by path and line.
    pub diagnostics: Vec<Diagnostic>,
    /// Violations silenced by inline `xlint::allow` directives.
    pub suppressed: Vec<Suppression>,
    /// Informational notes (counts).
    pub notes: Vec<String>,
}

impl Report {
    pub fn sort(&mut self) {
        self.diagnostics
            .sort_by(|a, b| (&a.path, a.line, a.rule).cmp(&(&b.path, b.line, b.rule)));
    }

    /// `path:line: [rule] message` lines plus a summary, as the CLI
    /// prints them.
    pub fn render_human(&self) -> String {
        let mut out = String::new();
        for d in &self.diagnostics {
            out.push_str(&format!(
                "{}:{}: [{}] {}\n",
                d.path, d.line, d.rule, d.message
            ));
        }
        for n in &self.notes {
            out.push_str(&format!("note: {n}\n"));
        }
        out.push_str(&format!(
            "xlint: {} violation(s), {} suppressed\n",
            self.diagnostics.len(),
            self.suppressed.len()
        ));
        out
    }

    /// The full report as a JSON object (hand-rolled; the analyzer is
    /// std-only by design).
    pub fn render_json(&self) -> String {
        let mut out = String::from("{\n  \"diagnostics\": [");
        for (i, d) in self.diagnostics.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "\n    {{\"rule\": {}, \"path\": {}, \"line\": {}, \"message\": {}}}",
                json_str(d.rule),
                json_str(&d.path),
                d.line,
                json_str(&d.message)
            ));
        }
        out.push_str("\n  ],\n  \"suppressed\": [");
        for (i, s) in self.suppressed.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "\n    {{\"rule\": {}, \"path\": {}, \"line\": {}, \"reason\": {}}}",
                json_str(s.diagnostic.rule),
                json_str(&s.diagnostic.path),
                s.diagnostic.line,
                json_str(&s.reason)
            ));
        }
        out.push_str("\n  ],\n  \"notes\": [");
        for (i, n) in self.notes.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!("\n    {}", json_str(n)));
        }
        out.push_str(&format!(
            "\n  ],\n  \"violations\": {}\n}}\n",
            self.diagnostics.len()
        ));
        out
    }
}

fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_escapes() {
        assert_eq!(json_str("a\"b\\c\nd"), "\"a\\\"b\\\\c\\nd\"");
    }

    #[test]
    fn human_render_counts() {
        let mut r = Report::default();
        r.diagnostics
            .push(Diagnostic::new("x-rule", "a.rs", 4, "boom".into()));
        let text = r.render_human();
        assert!(text.contains("a.rs:5: [x-rule] boom"));
        assert!(text.contains("1 violation(s)"));
    }
}
