//! Diagnostics and the human-readable report.

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

/// The outcome of one analyzer run.
#[derive(Debug, Default)]
pub struct Report {
    /// Violations, sorted by path and line.
    pub diagnostics: Vec<Diagnostic>,
}

impl Report {
    pub fn sort(&mut self) {
        self.diagnostics
            .sort_by(|a, b| (&a.path, a.line, a.rule).cmp(&(&b.path, b.line, b.rule)));
    }

    /// `path:line: [rule] message` lines plus a summary, as a failing
    /// test prints them.
    pub fn render_human(&self) -> String {
        let mut out = String::new();
        for d in &self.diagnostics {
            out.push_str(&format!(
                "{}:{}: [{}] {}\n",
                d.path, d.line, d.rule, d.message
            ));
        }
        out.push_str(&format!("xlint: {} violation(s)\n", self.diagnostics.len()));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
