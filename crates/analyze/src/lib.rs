//! `xorbas_analyze` — the project lint engine.
//!
//! A std-only, registry-free static analyzer for the project-specific
//! invariants that rustc and clippy cannot check: which files may hold
//! `unsafe`, the doc contracts on unsafe and `#[target_feature]`
//! items, and allocation freedom of the annotated hot paths. Panics in
//! library code and `// SAFETY:` comments on unsafe blocks are clippy's
//! (each crate root's header and the workspace lint table).
//! See `docs/ARCHITECTURE.md` ("Static analysis") for the rule catalog
//! and annotation conventions.
//!
//! There is no binary: `tests/rules.rs` runs every rule over the
//! shipped workspace, so `cargo test -p xorbas_analyze` (and any
//! `cargo test --workspace`) is the way to run it.
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
//! | [`rules`] | the three shipped rules |
//! | [`diag`] | diagnostics and the human-readable report |

#![forbid(unsafe_code)]
#![cfg_attr(
    not(test),
    deny(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::unreachable,
        clippy::todo,
        clippy::unimplemented
    )
)]

pub mod config;
pub mod diag;
pub mod lexer;
pub mod rules;
pub mod workspace;

pub use config::{Config, ALL_RULES, DIRECTIVE_RULE};
pub use diag::{Diagnostic, Report};

use std::io::{Error, ErrorKind};
use workspace::{Directive, Workspace};

/// Loads the workspace under `cfg.root` and runs the enabled rules. A
/// rule name the engine does not know is an error, not a clean run.
pub fn run(cfg: &Config) -> std::io::Result<Report> {
    let ws = Workspace::load(&cfg.root)?;
    let mut report = Report::default();
    for rule in &cfg.rules {
        match *rule {
            rules::unsafe_containment::NAME => {
                rules::unsafe_containment::run(&ws, cfg, &mut report)
            }
            rules::safety_comments::NAME => rules::safety_comments::run(&ws, &mut report),
            rules::hot_path::NAME => rules::hot_path::run(&ws, cfg, &mut report),
            other => {
                return Err(Error::new(
                    ErrorKind::InvalidInput,
                    format!("unknown rule `{other}`"),
                ))
            }
        }
    }
    check_directives(&ws, &mut report);
    report.sort();
    Ok(report)
}

/// Unknown `xlint::` markers are violations themselves: a typo in a
/// hot-path marker must not silently drop its region.
fn check_directives(ws: &Workspace, report: &mut Report) {
    for f in &ws.files {
        for (i, d) in &f.directives {
            if let Directive::Unknown { text } = d {
                report.diagnostics.push(Diagnostic::new(
                    DIRECTIVE_RULE,
                    &f.rel,
                    *i,
                    format!("unrecognized xlint directive `xlint::{text}`"),
                ));
            }
        }
    }
}
