//! `hot-path-no-alloc`: turns the point-pins in `zero_alloc.rs` into a
//! whole-surface guarantee. Code regions annotated `xlint::hot-path`
//! may not contain allocation tokens; the annotations themselves are
//! required per file (config), so deleting one fails the lint rather
//! than silently dropping the guarantee.
//!
//! Two annotation forms:
//!
//! * `// xlint::hot-path(name)` — covers the next braced item (fn,
//!   impl, or mod);
//! * `// xlint::hot-path(name) begin` … `// xlint::hot-path(name) end`
//!   — covers the lines between the pair.
//!
//! `#[cfg(test)]` items inside a region are exempt (test helpers may
//! allocate). The token list is deliberately conservative: amortized
//! `push` onto reused scratch is the sanctioned pattern and stays
//! legal; constructors, clones, and formatting are not.

use crate::config::Config;
use crate::diag::{Diagnostic, Report};
use crate::workspace::{matching_brace, Directive, SourceFile, Workspace};

pub const NAME: &str = "hot-path-no-alloc";

/// Tokens that allocate (or hand out something freshly allocated).
const BANNED: [&str; 16] = [
    "Vec::new",
    "vec!",
    ".to_vec",
    ".collect",
    ".clone(",
    "Box::new",
    "format!",
    ".to_string",
    ".to_owned",
    "String::new",
    "with_capacity",
    "HashMap::new",
    "BTreeMap::new",
    "VecDeque::new",
    "Arc::new",
    "Rc::new",
];

pub fn run(ws: &Workspace, cfg: &Config, report: &mut Report) {
    for f in &ws.files {
        let regions = hot_regions(f, report);
        for (name, start, end) in &regions {
            for li in *start..=(*end).min(f.lines.len().saturating_sub(1)) {
                if f.test_lines[li] {
                    continue;
                }
                let code = &f.lines[li].code;
                for token in BANNED {
                    if code.contains(token) {
                        report.diagnostics.push(Diagnostic::new(
                            NAME,
                            &f.rel,
                            li,
                            format!("allocation token `{token}` inside hot path `{name}`"),
                        ));
                    }
                }
            }
        }
    }
    for &(rel, marker) in cfg.required_hot_paths {
        let Some(f) = ws.file(rel) else {
            report.diagnostics.push(Diagnostic::new(
                NAME,
                rel,
                0,
                format!("file required to carry hot-path marker `{marker}` is missing"),
            ));
            continue;
        };
        let found = f.directives.iter().any(|(_, d)| {
            matches!(d,
                Directive::HotPathItem { name }
                | Directive::HotPathBegin { name } if name == marker)
        });
        if !found {
            report.diagnostics.push(Diagnostic::new(
                NAME,
                rel,
                0,
                format!(
                    "missing required `xlint::hot-path({marker})` annotation; \
                     the no-alloc guarantee for this surface would be silently dropped"
                ),
            ));
        }
    }
}

/// Resolves every hot-path directive in `f` to `(name, start, end)`
/// line ranges, reporting dangling/unmatched markers.
fn hot_regions(f: &SourceFile, report: &mut Report) -> Vec<(String, usize, usize)> {
    let mut regions = Vec::new();
    let mut open: Vec<(String, usize)> = Vec::new();
    for (li, d) in &f.directives {
        match d {
            Directive::HotPathItem { name } => match matching_brace(&f.lines, *li, 0) {
                Some(end) => regions.push((name.clone(), *li, end)),
                None => report.diagnostics.push(Diagnostic::new(
                    NAME,
                    &f.rel,
                    *li,
                    format!("hot-path annotation `{name}` is not followed by a braced item"),
                )),
            },
            Directive::HotPathBegin { name } => open.push((name.clone(), *li)),
            Directive::HotPathEnd { name } => match open.iter().rposition(|(n, _)| n == name) {
                Some(idx) => {
                    let (n, start) = open.remove(idx);
                    regions.push((n, start, *li));
                }
                None => report.diagnostics.push(Diagnostic::new(
                    NAME,
                    &f.rel,
                    *li,
                    format!("hot-path `end` marker `{name}` has no matching `begin`"),
                )),
            },
            _ => {}
        }
    }
    for (name, li) in open {
        report.diagnostics.push(Diagnostic::new(
            NAME,
            &f.rel,
            li,
            format!("hot-path `begin` marker `{name}` is never closed"),
        ));
    }
    regions
}
