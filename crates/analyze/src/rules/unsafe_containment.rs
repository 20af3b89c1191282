//! `unsafe-containment`: `unsafe` may appear only in the allowlisted
//! files, and every crate root must carry the matching `unsafe_code`
//! lint header — `#![forbid(unsafe_code)]` for crates with no
//! sanctioned unsafe, `#![deny(unsafe_code)]` plus
//! `#![warn(unsafe_op_in_unsafe_fn)]` for crates that re-allow it in an
//! allowlisted module.

use super::has_word;
use crate::config::Config;
use crate::diag::{Diagnostic, Report};
use crate::workspace::Workspace;

pub const NAME: &str = "unsafe-containment";

pub fn run(ws: &Workspace, cfg: &Config, report: &mut Report) {
    for f in &ws.files {
        if cfg.unsafe_allowlist.contains(&f.rel.as_str()) {
            continue;
        }
        for (i, line) in f.lines.iter().enumerate() {
            if has_word(&line.code, "unsafe") {
                report.diagnostics.push(Diagnostic::new(
                    NAME,
                    &f.rel,
                    i,
                    "`unsafe` outside the allowlisted files; the only sanctioned unsafe \
                     surface is the SIMD kernel module (and the zero-alloc test allocator)"
                        .to_owned(),
                ));
            }
        }
    }
    for f in &ws.files {
        let crate_src_prefix = match crate_src_prefix(&f.rel) {
            Some(p) => p,
            None => continue,
        };
        let sanctions_unsafe = cfg
            .unsafe_allowlist
            .iter()
            .any(|p| p.starts_with(crate_src_prefix));
        let has = |attr: &str| f.lines.iter().any(|l| l.code.contains(attr));
        if sanctions_unsafe {
            if !has("#![deny(unsafe_code)]") {
                report.diagnostics.push(Diagnostic::new(
                    NAME,
                    &f.rel,
                    0,
                    "crate sanctions an unsafe module but its root lacks \
                     `#![deny(unsafe_code)]` (the allowlisted module re-allows locally)"
                        .to_owned(),
                ));
            }
            if !has("#![warn(unsafe_op_in_unsafe_fn)]") {
                report.diagnostics.push(Diagnostic::new(
                    NAME,
                    &f.rel,
                    0,
                    "crate sanctions an unsafe module but its root lacks \
                     `#![warn(unsafe_op_in_unsafe_fn)]`"
                        .to_owned(),
                ));
            }
        } else if !has("#![forbid(unsafe_code)]") {
            report.diagnostics.push(Diagnostic::new(
                NAME,
                &f.rel,
                0,
                "crate root lacks `#![forbid(unsafe_code)]`".to_owned(),
            ));
        }
    }
}

/// For a crate root path, the prefix its library sources share:
/// `crates/gf/src/lib.rs` → `crates/gf/src/`, `src/lib.rs` → `src/`.
fn crate_src_prefix(rel: &str) -> Option<&str> {
    if rel == "src/lib.rs" {
        return Some("src/");
    }
    let segs: Vec<&str> = rel.split('/').collect();
    match segs.as_slice() {
        ["crates", _, "src", "lib.rs"] => Some(&rel[..rel.len() - "lib.rs".len()]),
        _ => None,
    }
}
