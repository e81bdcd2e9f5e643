//! Worker process for coordinated (multi-process) runs.
//!
//! Dials the coordinator's control socket, claims jobs, and writes
//! results through the shared content store. Usually spawned by
//! `netshare_cli coord`, but any number can be launched by hand against
//! a printed coordinator address (see OPERATIONS.md §"Scale-out").
//!
//! ```text
//! netshare_worker <addr>                [--worker-id ID]
//! netshare_worker --addr-file <path>    [--worker-id ID]
//! ```
//!
//! `--addr-file` polls `path` until it holds a non-empty address, so a
//! worker can be launched before the coordinator has bound its port.
//!
//! Exit codes: 0 = drained cleanly, 1 = runtime/protocol failure,
//! 2 = usage error.

use orchestrator::worker::{run_worker, ExecutorRegistry, WorkerOptions};
use orchestrator::CancelToken;
use std::time::Duration;

fn usage() -> String {
    "usage: netshare_worker (<addr> | --addr-file <path>) [--worker-id <id>]".to_string()
}

struct Args {
    addr: Option<String>,
    addr_file: Option<String>,
    worker_id: Option<String>,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args { addr: None, addr_file: None, worker_id: None };
    let mut it = argv.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--addr-file" => {
                args.addr_file =
                    Some(it.next().ok_or_else(|| format!("--addr-file needs a value\n{}", usage()))?.clone());
            }
            "--worker-id" => {
                args.worker_id =
                    Some(it.next().ok_or_else(|| format!("--worker-id needs a value\n{}", usage()))?.clone());
            }
            flag if flag.starts_with('-') => {
                return Err(format!("unknown flag `{flag}`\n{}", usage()));
            }
            addr => {
                if args.addr.is_some() {
                    return Err(format!("more than one address\n{}", usage()));
                }
                args.addr = Some(addr.to_string());
            }
        }
    }
    if args.addr.is_some() == args.addr_file.is_some() {
        return Err(format!("exactly one of <addr> or --addr-file is required\n{}", usage()));
    }
    Ok(args)
}

/// Polls an address file until it holds a non-empty line (the
/// coordinator writes it after binding) or ~10 s pass.
fn read_addr_file(path: &str) -> Result<String, String> {
    for _ in 0..100 {
        if let Ok(text) = std::fs::read_to_string(path) {
            let addr = text.trim();
            if !addr.is_empty() {
                return Ok(addr.to_string());
            }
        }
        std::thread::sleep(Duration::from_millis(100));
    }
    Err(format!("address file `{path}` never produced an address"))
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("netshare_worker: {e}");
            std::process::exit(2);
        }
    };
    // Arm the wire faults of the plan a `coord` parent passed down in the
    // environment (job faults arrive in `CoordHello`); malformed specs
    // are usage errors here too.
    if let Err(e) = orchestrator::fault::init_from_env() {
        eprintln!("netshare_worker: {e}");
        std::process::exit(2);
    }
    let addr = match args.addr {
        Some(a) => a,
        // lint: allow(panic-in-bin) parse_args guarantees one of the two is set
        None => match read_addr_file(args.addr_file.as_deref().expect("addr file")) {
            Ok(a) => a,
            Err(e) => {
                eprintln!("netshare_worker: {e}");
                std::process::exit(1);
            }
        },
    };
    let mut opts = WorkerOptions::default();
    if let Some(id) = args.worker_id {
        opts.worker_id = id;
    }
    let registry = ExecutorRegistry::builtin();
    let token = CancelToken::new();
    match run_worker(&addr, &opts, &registry, &token) {
        Ok(report) => {
            eprintln!(
                "netshare_worker[{}]: drained ({} completed, {} failed attempts)",
                opts.worker_id, report.completed, report.failed
            );
        }
        Err(e) => {
            eprintln!("netshare_worker[{}]: {e}", opts.worker_id);
            std::process::exit(1);
        }
    }
}
