//! `no-panic-in-lib`: no panic-capable call in non-test library code.
//!
//! Flags every `.unwrap()` / `.expect(` / `panic!` / `unreachable!` /
//! `todo!` / `unimplemented!` in a library file (doc comments, strings,
//! `#[cfg(test)]` items, `tests/` and `benches/` trees excluded). A site
//! that cannot become a typed error yet carries an inline
//! `xlint::allow(no-panic-in-lib): reason`, like any other rule's.

use crate::diag::{Diagnostic, Report};
use crate::workspace::Workspace;

pub const NAME: &str = "no-panic-in-lib";

const TOKENS: [&str; 6] = [
    ".unwrap()",
    ".expect(",
    "panic!",
    "unreachable!",
    "todo!",
    "unimplemented!",
];

pub fn run(ws: &Workspace, report: &mut Report) {
    let mut sites = 0usize;
    let mut indexing_sites = 0usize;
    for f in &ws.files {
        if !f.is_library_source() || f.is_test_or_bench_path() {
            continue;
        }
        for (i, line) in f.lines.iter().enumerate() {
            if f.test_lines[i] {
                continue;
            }
            for token in TOKENS {
                for _ in line.code.matches(token) {
                    sites += 1;
                    report.diagnostics.push(Diagnostic::new(
                        NAME,
                        &f.rel,
                        i,
                        format!(
                            "`{token}` in library code; return a typed error instead \
                             (or `xlint::allow({NAME}): reason` where none is possible yet)"
                        ),
                    ));
                }
            }
            indexing_sites += count_indexing(&line.code);
        }
    }
    report.notes.push(format!(
        "no-panic-in-lib: {sites} panic-capable call(s) in library code; \
         indexing escape report: {indexing_sites} `[...]` site(s) (informational — \
         see the clippy::indexing_slicing gate on the gf hot modules)"
    ));
}

/// Indexing sites: `[` directly preceded by an identifier character,
/// `]`, or `)` — i.e. `x[i]`, `arr[0][1]`, `f()[k]` — as opposed to
/// array types/literals and attributes.
fn count_indexing(code: &str) -> usize {
    let bytes = code.as_bytes();
    let mut n = 0;
    for (i, &b) in bytes.iter().enumerate() {
        if b == b'[' && i > 0 {
            let p = bytes[i - 1];
            if p.is_ascii_alphanumeric() || p == b'_' || p == b']' || p == b')' {
                n += 1;
            }
        }
    }
    n
}
