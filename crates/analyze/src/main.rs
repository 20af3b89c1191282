//! The `cargo xlint` entry point (aliased in `.cargo/config.toml`).
//!
//! Exit codes: 0 clean, 1 violations, 2 usage or I/O failure.

use std::path::PathBuf;
use std::process::ExitCode;
use xorbas_analyze::Config;

const USAGE: &str = "\
usage: cargo xlint [--json] [--root DIR] [--rule NAME]...

  --json             machine-readable report on stdout
  --root DIR         workspace root (default: the workspace containing
                     this binary's manifest)
  --rule NAME        run only the named rule (repeatable)
";

fn main() -> ExitCode {
    let mut cfg = Config {
        root: default_root(),
        ..Config::default()
    };
    let mut json = false;
    let mut only_rules: Vec<&'static str> = Vec::new();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--json" => json = true,
            "--root" => match args.next() {
                Some(dir) => cfg.root = PathBuf::from(dir),
                None => return usage_error("--root requires a directory"),
            },
            "--rule" => match args.next().as_deref().map(resolve_rule) {
                Some(Some(name)) => only_rules.push(name),
                _ => return usage_error("--rule requires a known rule name"),
            },
            "--help" | "-h" => {
                print!("{USAGE}");
                return ExitCode::SUCCESS;
            }
            other => return usage_error(&format!("unrecognized argument `{other}`")),
        }
    }
    if !only_rules.is_empty() {
        cfg.rules = only_rules;
    }

    match xorbas_analyze::run(&cfg) {
        Ok(report) => {
            if json {
                print!("{}", report.render_json());
            } else {
                print!("{}", report.render_human());
            }
            if report.diagnostics.is_empty() {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("xlint: {e}");
            ExitCode::from(2)
        }
    }
}

fn resolve_rule(name: &str) -> Option<&'static str> {
    xorbas_analyze::ALL_RULES
        .iter()
        .copied()
        .find(|r| *r == name)
}

fn usage_error(msg: &str) -> ExitCode {
    eprintln!("xlint: {msg}\n{USAGE}");
    ExitCode::from(2)
}

/// The workspace root: two levels above this crate's manifest, or the
/// current directory when not built by cargo.
fn default_root() -> PathBuf {
    let manifest: Option<PathBuf> = option_env!("CARGO_MANIFEST_DIR").map(PathBuf::from);
    manifest
        .as_deref()
        .and_then(|m| m.parent())
        .and_then(|p| p.parent())
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("."))
}
