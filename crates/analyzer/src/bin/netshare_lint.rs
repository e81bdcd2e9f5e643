//! `netshare-lint` CLI.
//!
//! ```text
//! netshare-lint [--root DIR] [--format text|json] [--list-rules]
//! ```
//!
//! Lints every `.rs` file under `--root` (default `.`): the per-file
//! rules and the three cross-module passes (lock-order, capability
//! graph, DP taint dataflow), with inline waivers applied.
//!
//! Exit codes: 0 clean (waived findings only), 1 unwaived findings,
//! 2 usage or I/O error.

use std::path::PathBuf;
use std::process::ExitCode;

use analyzer::config::RuleId;

fn usage() -> String {
    let mut s = String::from(
        "usage: netshare-lint [--root DIR] [--format text|json] [--list-rules]\nrules:\n",
    );
    for r in RuleId::ALL {
        s.push_str(&format!("  {:28} {}\n", r.name(), r.describe()));
    }
    s
}

/// `(root, json, list_rules)`, or the message for a usage error.
fn parse_args(argv: &[String]) -> Result<(PathBuf, bool, bool), String> {
    let (mut root, mut json, mut list_rules) = (PathBuf::from("."), false, false);
    let mut it = argv.iter();
    while let Some(a) = it.next() {
        let mut value = |flag: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} requires a value"))
        };
        match a.as_str() {
            "--root" => root = PathBuf::from(value("--root")?),
            "--format" => {
                json = match value("--format")?.as_str() {
                    "text" => false,
                    "json" => true,
                    other => return Err(format!("unknown format `{other}`")),
                }
            }
            "--list-rules" => list_rules = true,
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok((root, json, list_rules))
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (root, json, list_rules) = match parse_args(&argv) {
        Ok(a) => a,
        Err(msg) => {
            eprintln!("netshare-lint: {msg}");
            eprint!("{}", usage());
            return ExitCode::from(2);
        }
    };
    if list_rules {
        print!("{}", usage());
        return ExitCode::SUCCESS;
    }
    let report = match analyzer::run(&root) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("netshare-lint: io error: {e}");
            return ExitCode::from(2);
        }
    };
    if json {
        println!("{}", report.to_json());
    } else {
        print!("{}", report.to_text());
    }
    ExitCode::from(report.exit_code())
}
