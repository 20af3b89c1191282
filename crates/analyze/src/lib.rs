//! `xorbas_analyze` — the project lint engine (`cargo xlint`).
//!
//! A std-only, registry-free static analyzer that proves the
//! project-specific invariants CI otherwise takes on faith: unsafe
//! containment and safety-contract coverage, hot-path allocation
//! freedom, and no panic-capable call in library code.
//! See `docs/ARCHITECTURE.md` ("Static analysis") for the rule catalog
//! and annotation conventions.
//!
//! The engine is deliberately *lexical*: a literal-aware lexer
//! ([`lexer`]) splits every line into code and comment channels, and
//! rules match tokens against the code channel (plus light brace-based
//! structure where needed, e.g. the extent of a hot-path item).
//! No `syn`, no registry dependencies — the analyzer must build in the
//! same sealed container as the workspace it checks.
//!
//! | Module | Role |
//! |---|---|
//! | [`lexer`] | string/char/comment/raw-string aware line splitter |
//! | [`workspace`] | file walking, brace matching, `xlint::` directives |
//! | [`config`] | rule set, allowlists, project anchors |
//! | [`rules`] | the four shipped rules |
//! | [`diag`] | diagnostics, human and JSON rendering |

#![forbid(unsafe_code)]

pub mod config;
pub mod diag;
pub mod lexer;
pub mod rules;
pub mod workspace;

pub use config::{Config, ALL_RULES, DIRECTIVE_RULE};
pub use diag::{Diagnostic, Report, Suppression};

use workspace::{Directive, Workspace};

/// Loads the workspace under `cfg.root` and runs the enabled rules.
/// Inline `xlint::allow(rule): reason` suppressions are applied here,
/// to every rule but the directive meta-rule itself.
pub fn run(cfg: &Config) -> std::io::Result<Report> {
    let ws = Workspace::load(&cfg.root)?;
    let mut report = Report::default();
    for rule in &cfg.rules {
        match *rule {
            rules::unsafe_containment::NAME => {
                rules::unsafe_containment::run(&ws, cfg, &mut report)
            }
            rules::safety_comments::NAME => rules::safety_comments::run(&ws, cfg, &mut report),
            rules::hot_path::NAME => rules::hot_path::run(&ws, cfg, &mut report),
            rules::no_panic::NAME => rules::no_panic::run(&ws, &mut report),
            other => report.notes.push(format!("unknown rule `{other}` ignored")),
        }
    }
    check_directives(&ws, &mut report);
    apply_suppressions(&ws, &mut report);
    report.sort();
    Ok(report)
}

/// Malformed or unknown `xlint::` markers are violations themselves: a
/// typo in an escape hatch must not silently disable it.
fn check_directives(ws: &Workspace, report: &mut Report) {
    for f in &ws.files {
        for (i, d) in &f.directives {
            match d {
                Directive::AllowMissingReason { rule } => {
                    report.diagnostics.push(Diagnostic::new(
                        DIRECTIVE_RULE,
                        &f.rel,
                        *i,
                        format!("`xlint::allow({rule})` requires a reason: append `: <why>`"),
                    ));
                }
                Directive::Allow { rule, .. } if !ALL_RULES.contains(&rule.as_str()) => {
                    report.diagnostics.push(Diagnostic::new(
                        DIRECTIVE_RULE,
                        &f.rel,
                        *i,
                        format!("`xlint::allow({rule})` names an unknown rule"),
                    ));
                }
                Directive::Unknown { text } => {
                    report.diagnostics.push(Diagnostic::new(
                        DIRECTIVE_RULE,
                        &f.rel,
                        *i,
                        format!("unrecognized xlint directive `xlint::{text}`"),
                    ));
                }
                _ => {}
            }
        }
    }
}

/// Moves diagnostics silenced by an `xlint::allow(rule): reason` on the
/// same line, or in the comment run directly above it, into the
/// suppressed list.
fn apply_suppressions(ws: &Workspace, report: &mut Report) {
    let diags = std::mem::take(&mut report.diagnostics);
    for d in diags {
        if d.rule == DIRECTIVE_RULE {
            report.diagnostics.push(d);
            continue;
        }
        match suppression_reason(ws, &d) {
            Some(reason) => report.suppressed.push(Suppression {
                diagnostic: d,
                reason,
            }),
            None => report.diagnostics.push(d),
        }
    }
}

fn suppression_reason(ws: &Workspace, d: &Diagnostic) -> Option<String> {
    let f = ws.file(&d.path)?;
    let line0 = d.line.checked_sub(1)?;
    // Candidate directive lines: the diagnostic's own line, then the
    // contiguous blank/comment run above it.
    let mut candidates = vec![line0];
    let mut j = line0;
    while j > 0 {
        j -= 1;
        if !f.lines.get(j)?.is_blank_or_comment() {
            break;
        }
        candidates.push(j);
    }
    for (li, dir) in &f.directives {
        if let Directive::Allow { rule, reason } = dir {
            if rule == d.rule && candidates.contains(li) {
                return Some(reason.clone());
            }
        }
    }
    None
}
