//! `safety-comment-coverage`: every unsafe item must state its
//! contract where its callers read it.
//!
//! * An `unsafe fn` / `unsafe trait` / `unsafe extern` needs a doc
//!   contract above its attributes: a `# Safety` section (or an
//!   explicit `SAFETY:` line). Clippy's `missing_safety_doc` covers
//!   only public fns.
//! * A `#[target_feature]` function — even a *safe* one — needs the
//!   same, or a `Safe to …` note explaining why defining it is sound
//!   (e.g. value-only operations callable only under the feature).
//!
//! Unsafe blocks and `unsafe impl`s are clippy's
//! (`undocumented_unsafe_blocks`, denied workspace-wide).

use super::find_word;
use crate::diag::{Diagnostic, Report};
use crate::workspace::{SourceFile, Workspace};

pub const NAME: &str = "safety-comment-coverage";

pub fn run(ws: &Workspace, report: &mut Report) {
    for f in &ws.files {
        let mut decl_lines: Vec<usize> = Vec::new();
        for (i, line) in f.lines.iter().enumerate() {
            let mut from = 0;
            while let Some(at) = find_word(&line.code, "unsafe", from) {
                from = at + "unsafe".len();
                let rest = line.code[from..].trim_start();
                if rest.starts_with("fn") || rest.starts_with("trait") || rest.starts_with("extern")
                {
                    decl_lines.push(i);
                    if !declaration_has_contract(f, i) {
                        report.diagnostics.push(Diagnostic::new(
                            NAME,
                            &f.rel,
                            i,
                            "unsafe declaration without a `# Safety` (or `SAFETY:`) \
                             contract in its doc comment"
                                .to_owned(),
                        ));
                    }
                    // One declaration per line; further `unsafe` tokens
                    // on it belong to the same item.
                    break;
                }
            }
        }
        for (i, line) in f.lines.iter().enumerate() {
            if !line.code.contains("#[target_feature") {
                continue;
            }
            // The function this attribute decorates; if it is an
            // `unsafe fn` it was already checked above.
            let Some(fn_line) = next_code_line(f, i + 1) else {
                continue;
            };
            if decl_lines.contains(&fn_line) {
                continue;
            }
            if !declaration_has_contract(f, i) {
                report.diagnostics.push(Diagnostic::new(
                    NAME,
                    &f.rel,
                    i,
                    "#[target_feature] fn without a safety contract (`# Safety`, \
                     `SAFETY:`, or a `Safe to …` note) in its doc comment"
                        .to_owned(),
                ));
            }
        }
    }
}

fn is_attr_line(f: &SourceFile, i: usize) -> bool {
    f.lines[i].code.trim_start().starts_with("#[")
}

/// The next line at or after `from` that carries code.
fn next_code_line(f: &SourceFile, from: usize) -> Option<usize> {
    (from..f.lines.len()).find(|&j| !f.lines[j].is_blank_or_comment())
}

fn comment_states_contract(text: &str) -> bool {
    text.contains("SAFETY:") || text.contains("# Safety") || text.contains("Safe to ")
}

/// Scans the doc/comment run above a declaration at `i`, skipping
/// attribute lines, for a safety contract.
fn declaration_has_contract(f: &SourceFile, i: usize) -> bool {
    if comment_states_contract(&f.lines[i].comment) {
        return true;
    }
    let mut j = i;
    while j > 0 {
        j -= 1;
        let line = &f.lines[j];
        if line.is_blank_or_comment() || is_attr_line(f, j) {
            if comment_states_contract(&line.comment) {
                return true;
            }
            continue;
        }
        break;
    }
    false
}
