//! Pins what the crate roots promise, read as text with line comments
//! dropped: every library and binary root carries the no-panic header,
//! only the two engine set-up fns relax it, every library root carries
//! its unsafe header, `allow(unsafe_code)` sits in two files only, and
//! the SIMD kernels declare no `unsafe fn`.

use std::path::Path;

const NO_PANIC: &str = "clippy::unwrap_used,clippy::expect_used,clippy::panic,\
                        clippy::unreachable,clippy::todo,clippy::unimplemented";

/// Every `.rs` file outside `target`, `vendor` and hidden directories,
/// as (path from the repository root, code with line comments dropped).
fn sources(dir: &Path, out: &mut Vec<(String, String)>) {
    for path in std::fs::read_dir(dir).unwrap().map(|e| e.unwrap().path()) {
        let name = path.file_name().unwrap().to_str().unwrap();
        if path.is_dir() && !["target", "vendor"].contains(&name) && !name.starts_with('.') {
            sources(&path, out);
        } else if name.ends_with(".rs") {
            let text = std::fs::read_to_string(&path).unwrap();
            let code: Vec<&str> = text
                .lines()
                .map(|l| l.split("//").next().unwrap())
                .collect();
            let rel = path.strip_prefix(env!("CARGO_MANIFEST_DIR")).unwrap();
            out.push((rel.to_str().unwrap().to_owned(), code.join("\n")));
        }
    }
}

/// Each `#[…]` or `#![…]` attribute of `code`, whitespace removed, with
/// the name of the first fn after it.
fn attributes(code: &str) -> impl Iterator<Item = (String, &str)> {
    let starts = code.match_indices("#[").chain(code.match_indices("#!["));
    starts.map(|(at, _)| {
        let mut depth = 0;
        let len = 1 + code[at..]
            .find(|c| {
                depth += i32::from(c == '[') - i32::from(c == ']');
                c == ']' && depth == 0
            })
            .unwrap();
        let after = code[at + len..].split("fn ").nth(1).unwrap_or("");
        let mut item = after.split(|c: char| !(c.is_alphanumeric() || c == '_'));
        (
            code[at..at + len].split_whitespace().collect(),
            item.next().unwrap(),
        )
    })
}

#[test]
fn crate_roots_keep_their_panic_and_unsafe_headers() {
    let mut files = Vec::new();
    sources(Path::new(env!("CARGO_MANIFEST_DIR")), &mut files);
    files.retain(|(rel, _)| rel != "tests/crate_roots.rs");
    let header = format!("#![cfg_attr(not(test),deny({NO_PANIC}))]");
    let (mut relaxed, mut roots, mut unsafe_allowed) = (vec![], vec![], vec![]);
    for (rel, code) in &files {
        for (attr, item) in attributes(code) {
            let mut words = attr.split(|c: char| !(c.is_alphanumeric() || "_:".contains(c)));
            if attr.replace(",)", ")") == header {
                roots.push(rel.as_str());
            } else if words.any(|w| NO_PANIC.split(',').any(|lint| lint == w)) {
                relaxed.push(format!(
                    "{rel}: {} {item}",
                    &attr[..attr.find('(').unwrap()]
                ));
            }
            if attr.contains("allow(unsafe_code)") {
                unsafe_allowed.push(rel.as_str());
            }
        }
        let in_crate = rel
            .strip_prefix("crates/")
            .map_or(rel.as_str(), |r| &r[r.find('/').unwrap() + 1..]);
        if ["src/lib.rs", "src/main.rs"].contains(&in_crate) || in_crate.starts_with("src/bin/") {
            assert!(
                roots.contains(&rel.as_str()),
                "{rel} lacks the no-panic header"
            );
        }
        if in_crate == "src/lib.rs" {
            let gf = ["#![deny(unsafe_code)]", "#![warn(unsafe_op_in_unsafe_fn)]"];
            let wanted: &[&str] = if rel == "crates/gf/src/lib.rs" {
                &gf
            } else {
                &["#![forbid(unsafe_code)]"]
            };
            assert!(
                wanted.iter().all(|h| code.contains(h)),
                "{rel} lacks {wanted:?}"
            );
        }
        if rel == "crates/gf/src/simd.rs" {
            let words: Vec<&str> = code.split_whitespace().collect();
            assert!(
                !words.windows(2).any(|w| w == ["unsafe", "fn"]),
                "an `unsafe fn` in {rel}"
            );
        }
    }
    assert!(roots.contains(&"crates/node/src/bin/load_gen.rs"));
    let engine = "crates/sim/src/engine/mod.rs: #[expect";
    assert_eq!(
        relaxed,
        [
            format!("{engine} new"),
            format!("{engine} load_raided_file")
        ]
    );
    unsafe_allowed.sort();
    assert_eq!(
        unsafe_allowed,
        ["crates/gf/src/simd.rs", "tests/alloc_budgets.rs"]
    );
}
