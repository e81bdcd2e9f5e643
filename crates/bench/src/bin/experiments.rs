//! The paper's evaluation, from one registry (see the `bench` crate).
//!
//! ```text
//! experiments run [NAME…]   # run entries (all by default) into results/
//! experiments report        # rewrite EXPERIMENTS.md's blocks from results/
//! ```
//!
//! Paths are relative to the working directory, so run it from the
//! repository root. `NETSHARE_N` and `NETSHARE_STEPS` set the scale.

use bench::{registry, ExpScale};
use std::path::Path;
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let results = Path::new("results");
    let entries = registry();
    match args.first().map(String::as_str) {
        Some("run") => {
            let names = &args[1..];
            if let Some(bad) = names.iter().find(|n| !entries.iter().any(|e| e.name == n.as_str())) {
                let all: Vec<&str> = entries.iter().map(|e| e.name).collect();
                eprintln!("experiments: no entry `{bad}`; entries: {}", all.join(", "));
                return ExitCode::from(2);
            }
            let scale = ExpScale::from_env();
            for e in entries.iter().filter(|e| names.is_empty() || names.iter().any(|n| n == e.name)) {
                eprintln!("experiments: running {} (n = {}, steps = {})", e.name, scale.n, scale.steps);
                match e.run(scale, results) {
                    Ok(path) => eprintln!("experiments: wrote {}", path.display()),
                    Err(err) => {
                        eprintln!("experiments: entry {} failed: {err}", e.name);
                        return ExitCode::FAILURE;
                    }
                }
            }
            ExitCode::SUCCESS
        }
        Some("report") if args.len() == 1 => {
            let doc = Path::new("EXPERIMENTS.md");
            let written = std::fs::read_to_string(doc)
                .map_err(|e| format!("{}: {e}", doc.display()))
                .and_then(|text| bench::report(&text, results).map_err(|e| e.to_string()))
                .and_then(|text| std::fs::write(doc, text).map_err(|e| format!("{}: {e}", doc.display())));
            if let Err(err) = written {
                eprintln!("experiments: report failed: {err}");
                return ExitCode::FAILURE;
            }
            ExitCode::SUCCESS
        }
        _ => {
            eprintln!("usage: experiments run [NAME…] | experiments report");
            ExitCode::from(2)
        }
    }
}
