//! The `netshared` daemon binary.
//!
//! lint: io-boundary — reads stdin for the shutdown trigger.
//!
//! ```text
//! netshared --artifact path.json [--artifact ...] [--demo name:seed ...]
//!           [--addr 127.0.0.1:0] [--addr-file PATH]
//!           [--capacity-bytes N] [--idle-timeout-secs S]
//!           [--drain-secs S] [--max-sessions N] [--metrics-out PATH]
//! ```
//!
//! The daemon serves until stdin closes or a line reading `shutdown`
//! arrives (the SIGTERM stand-in that needs no signal-handling
//! machinery: `scripts/ci.sh serve` drives it through a FIFO), then runs
//! the graceful drain and exits 0. `--addr-file` writes the bound
//! address (ephemeral ports) once the listener is up. Exit codes follow
//! the workspace taxonomy: 0 success, 1 runtime failure, 2 usage error.

use doppelganger::ArtifactBundle;
use netshared::{demo_bundle, Server, ServerConfig};
use std::io::BufRead;
use std::time::Duration;

#[derive(Debug)]
struct Args {
    artifacts: Vec<String>,
    demos: Vec<(String, u64)>,
    addr: String,
    addr_file: Option<String>,
    capacity_bytes: usize,
    idle_timeout_secs: Option<f64>,
    drain_secs: f64,
    max_sessions: Option<usize>,
    metrics_out: Option<String>,
}

fn usage() -> String {
    "usage: netshared [--artifact BUNDLE.json ...] [--demo NAME:SEED ...]\n\
     \x20                [--addr HOST:PORT] [--addr-file PATH]\n\
     \x20                [--capacity-bytes N] [--idle-timeout-secs S]\n\
     \x20                [--drain-secs S] [--max-sessions N] [--metrics-out PATH]\n\
     at least one --artifact or --demo is required"
        .to_string()
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        artifacts: Vec::new(),
        demos: Vec::new(),
        addr: "127.0.0.1:0".to_string(),
        addr_file: None,
        capacity_bytes: 64 * 1024,
        idle_timeout_secs: None,
        drain_secs: 2.0,
        max_sessions: None,
        metrics_out: None,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{name} needs a value"))
        };
        match flag.as_str() {
            "--artifact" => args.artifacts.push(value("--artifact")?),
            "--demo" => {
                let spec = value("--demo")?;
                let (name, seed) = spec
                    .split_once(':')
                    .ok_or_else(|| format!("--demo wants NAME:SEED, got {spec:?}"))?;
                let seed: u64 = seed
                    .parse()
                    .map_err(|_| format!("--demo seed must be a u64, got {seed:?}"))?;
                if name.is_empty() {
                    return Err(format!("--demo wants NAME:SEED, got {spec:?}"));
                }
                args.demos.push((name.to_string(), seed));
            }
            "--addr" => args.addr = value("--addr")?,
            "--addr-file" => args.addr_file = Some(value("--addr-file")?),
            "--capacity-bytes" => {
                let v = value("--capacity-bytes")?;
                args.capacity_bytes = v
                    .parse()
                    .map_err(|_| format!("--capacity-bytes must be a usize, got {v:?}"))?;
            }
            "--idle-timeout-secs" => {
                let v = value("--idle-timeout-secs")?;
                args.idle_timeout_secs = Some(
                    v.parse()
                        .map_err(|_| format!("--idle-timeout-secs must be a number, got {v:?}"))?,
                );
            }
            "--drain-secs" => {
                let v = value("--drain-secs")?;
                args.drain_secs = v
                    .parse()
                    .map_err(|_| format!("--drain-secs must be a number, got {v:?}"))?;
            }
            "--max-sessions" => {
                let v = value("--max-sessions")?;
                let n: usize = v
                    .parse()
                    .map_err(|_| format!("--max-sessions must be a usize, got {v:?}"))?;
                if n == 0 {
                    return Err("--max-sessions must be at least 1".to_string());
                }
                args.max_sessions = Some(n);
            }
            "--metrics-out" => args.metrics_out = Some(value("--metrics-out")?),
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    if args.artifacts.is_empty() && args.demos.is_empty() {
        return Err("nothing to serve".to_string());
    }
    Ok(args)
}

fn run(args: Args) -> Result<(), String> {
    let mut bundles = Vec::new();
    for path in &args.artifacts {
        bundles.push(ArtifactBundle::load(std::path::Path::new(path))?);
    }
    for (name, seed) in &args.demos {
        bundles.push(demo_bundle(name, *seed));
    }
    let server = Server::start(
        ServerConfig {
            addr: args.addr.clone(),
            capacity_bytes: args.capacity_bytes,
            idle_timeout_secs: args.idle_timeout_secs,
            drain: Duration::from_secs_f64(args.drain_secs.max(0.0)),
            max_sessions: args.max_sessions,
        },
        bundles,
    )?;
    let addr = server.local_addr();
    if let Some(path) = &args.addr_file {
        std::fs::write(path, format!("{addr}\n"))
            .map_err(|e| format!("write {path}: {e}"))?;
    }
    eprintln!("netshared: serving {:?} on {addr}", server.artifacts());

    // Serve until stdin closes or says "shutdown".
    let stdin = std::io::stdin();
    for line in stdin.lock().lines() {
        match line {
            Ok(text) if text.trim() == "shutdown" => break,
            Ok(_) => continue,
            Err(_) => break,
        }
    }

    let lingering = server.shutdown();
    eprintln!("netshared: drained ({lingering} session(s) cancelled)");
    if let Some(path) = &args.metrics_out {
        std::fs::write(path, telemetry::metrics::snapshot_json())
            .map_err(|e| format!("write {path}: {e}"))?;
    }
    Ok(())
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("netshared: {e}\n{}", usage());
            std::process::exit(2);
        }
    };
    // Arm the fault plan's wire faults when the chaos harness asks for
    // them; a malformed spec is a usage error, same as a flag.
    if let Err(e) = orchestrator::fault::init_from_env() {
        eprintln!("netshared: {e}");
        std::process::exit(2);
    }
    if let Err(e) = run(args) {
        eprintln!("netshared: {e}");
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(v: &[&str]) -> Vec<String> {
        v.iter().map(|x| x.to_string()).collect()
    }

    #[test]
    fn parse_requires_something_to_serve() {
        assert!(parse_args(&[]).unwrap_err().contains("nothing to serve"));
    }

    #[test]
    fn parse_accepts_demos_and_flags() {
        let args = parse_args(&s(&[
            "--demo", "ugr16:7", "--demo", "caida:9",
            "--capacity-bytes", "4096",
            "--idle-timeout-secs", "1.5",
            "--drain-secs", "0.5",
            "--addr", "127.0.0.1:0",
            "--max-sessions", "3",
        ]))
        .unwrap();
        assert_eq!(args.demos, vec![("ugr16".to_string(), 7), ("caida".to_string(), 9)]);
        assert_eq!(args.capacity_bytes, 4096);
        assert_eq!(args.idle_timeout_secs, Some(1.5));
        assert_eq!(args.drain_secs, 0.5);
        assert_eq!(args.max_sessions, Some(3));
    }

    #[test]
    fn parse_rejects_bad_demo_specs_and_unknown_flags() {
        assert!(parse_args(&s(&["--demo", "noseed"])).is_err());
        assert!(parse_args(&s(&["--demo", "x:1", "--max-sessions", "0"])).is_err());
        assert!(parse_args(&s(&["--demo", "x:1", "--max-sessions", "lots"])).is_err());
        assert!(parse_args(&s(&["--demo", ":3"])).is_err());
        assert!(parse_args(&s(&["--demo", "x:notanum"])).is_err());
        assert!(parse_args(&s(&["--bogus"])).is_err());
        assert!(parse_args(&s(&["--artifact"])).is_err());
    }
}
