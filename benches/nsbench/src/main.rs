//! `nsbench`: the end-to-end + per-layer benchmark for the serve, train
//! and coordinate paths. See `README.md` beside `Cargo.toml`.
//!
//! ```text
//! nsbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! nsbench suite --out <report.json> [--seed <n>] [--seconds <s>]
//! nsbench agree <a.json> <b.json>
//! nsbench smoke [--seed <n>]
//! nsbench list
//! ```

mod host;
mod json;
mod layers;
mod report;
mod spans;
mod stats;
mod workloads;

use json::Json;
use report::{END_TO_END, PER_LAYER};
use std::process::ExitCode;
use workloads::{Args, Workload};

const USAGE: &str = "usage:
  nsbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
      one run of one workload; the last line of standard output is the
      result (end-to-end metrics with --trace 0, per-layer with --trace 1)
  nsbench suite --out <report.json> [--seed <n>] [--seconds <s>]
      every workload, timed and traced, each in a process of its own
  nsbench agree <a.json> <b.json>
      compare two suite reports of the same code against the bounds
  nsbench smoke [--seed <n>]
      every workload at about a twentieth of its size, checks on
  nsbench list
      the workloads and the metrics, with units, directions and bounds";

/// Flags of the form `--name value`, in any order.
struct Flags(Vec<(String, String)>);

impl Flags {
    fn parse(args: &[String]) -> Result<Flags, String> {
        let mut out = Vec::new();
        let mut it = args.iter();
        while let Some(flag) = it.next() {
            let name = flag
                .strip_prefix("--")
                .ok_or_else(|| format!("unexpected argument {flag:?}"))?;
            let value = it.next().ok_or_else(|| format!("--{name} needs a value"))?;
            out.push((name.to_string(), value.clone()));
        }
        Ok(Flags(out))
    }

    fn get(&self, name: &str) -> Option<&str> {
        self.0
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v.as_str())
    }

    fn num<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, String> {
        match self.get(name) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| format!("--{name} {v:?} is not a number")),
        }
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let result = match argv.first().map(String::as_str) {
        Some("suite") => Flags::parse(&argv[1..]).and_then(|f| suite(&f)),
        Some("agree") => agree(&argv[1..]),
        Some("smoke") => Flags::parse(&argv[1..]).and_then(|f| smoke(&f)),
        Some("list") => {
            list();
            Ok(true)
        }
        Some(flag) if flag.starts_with("--") => Flags::parse(&argv).and_then(|f| one_run(&f)),
        _ => Err(USAGE.to_string()),
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(2),
        Err(e) => {
            eprintln!("nsbench: {e}");
            ExitCode::from(1)
        }
    }
}

fn run_args(flags: &Flags, smoke: bool) -> Result<Args, String> {
    let seconds: f64 = flags.num("seconds", if smoke { 0.5 } else { 10.0 })?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err(format!("--seconds {seconds} is outside (0, 600]"));
    }
    let trace = match flags.get("trace").unwrap_or("0") {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace {other:?} is neither 0 nor 1")),
    };
    Ok(Args {
        seed: flags.num("seed", 1)?,
        seconds,
        trace,
        smoke,
        work: workloads::out_dir().join(format!("work-{}", std::process::id())),
    })
}

/// Host fingerprint and run parameters stamped into every report.
fn stamp(args: &Args) -> Vec<(&'static str, Json)> {
    vec![
        ("seed", Json::Num(args.seed as f64)),
        ("seconds", Json::Num(args.seconds)),
        ("nproc", Json::Num(host::nproc() as f64)),
        ("rayon_threads", Json::Num(layers::rayon_threads() as f64)),
        ("calib_ns", Json::Num(host::calib_ns(3, 10))),
        ("features", Json::str("telemetry")),
    ]
}

/// One run of one workload: a table on standard error, the detailed
/// record in `out/`, and the result as the last line of standard output.
fn one_run(flags: &Flags) -> Result<bool, String> {
    let name = flags.get("workload").ok_or(USAGE)?;
    let workload = Workload::parse(name).ok_or_else(|| format!("no workload named {name:?}"))?;
    let args = run_args(flags, false)?;
    let out = workloads::run(workload, &args);
    eprintln!(
        "{name} seed {} seconds {} trace {}",
        args.seed, args.seconds, args.trace as u8
    );
    eprint!("{}", out.table(args.trace));
    let kind = if args.trace {
        "per_layer"
    } else {
        "end_to_end"
    };
    let mut detail = stamp(&args);
    detail.push(("workload", Json::str(name)));
    detail.push((kind, out.detail(args.trace)));
    let path = workloads::out_dir().join(format!("run-{name}-{kind}.json"));
    std::fs::write(&path, Json::obj(detail).render() + "\n").map_err(|e| e.to_string())?;
    println!("{}", out.result_line(args.trace));
    Ok(out.correct(args.trace))
}

/// Every workload, timed then traced, each in a process of its own (so
/// `peak_rss_mb` is the workload's), gathered into one report.
fn suite(flags: &Flags) -> Result<bool, String> {
    let out_path = flags.get("out").ok_or("suite needs --out <report.json>")?;
    let args = run_args(flags, false)?;
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut all_correct = true;
    let mut entries = Vec::new();
    for w in Workload::ALL {
        let mut entry = Vec::new();
        for (trace, kind) in [("0", "end_to_end"), ("1", "per_layer")] {
            eprintln!("suite: {} --trace {trace}", w.name());
            let status = std::process::Command::new(&exe)
                .args(["--workload", w.name(), "--trace", trace])
                .args([
                    "--seed",
                    &args.seed.to_string(),
                    "--seconds",
                    &args.seconds.to_string(),
                ])
                .stdout(std::process::Stdio::null())
                .status()
                .map_err(|e| e.to_string())?;
            all_correct &= status.success();
            let path = workloads::out_dir().join(format!("run-{}-{kind}.json", w.name()));
            let text =
                std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
            let run = Json::parse(&text)?;
            let detail = run
                .get(kind)
                .ok_or_else(|| format!("{} lacks {kind}", path.display()))?;
            if trace == "0" {
                for key in ["ops", "failed", "failures", "notes"] {
                    entry.push((key, detail.get(key).cloned().unwrap_or(Json::Null)));
                }
            }
            entry.push((kind, detail.get("metrics").cloned().unwrap_or(Json::Null)));
        }
        entries.push((w.name(), Json::obj(entry)));
    }
    let mut report = vec![("schema", Json::str("nsbench-report-v1"))];
    report.extend(stamp(&args));
    report.push(("workloads", Json::obj(entries)));
    let report = Json::obj(report);
    for e in report::schema_errors(&report) {
        eprintln!("suite: schema: {e}");
        all_correct = false;
    }
    std::fs::write(out_path, report.render() + "\n").map_err(|e| e.to_string())?;
    eprintln!("suite: wrote {out_path}");
    Ok(all_correct)
}

fn agree(paths: &[String]) -> Result<bool, String> {
    let [a, b] = paths else {
        return Err("agree takes two report files".to_string());
    };
    let load = |p: &String| {
        std::fs::read_to_string(p)
            .map_err(|e| format!("{p}: {e}"))
            .and_then(|t| Json::parse(&t).map_err(|e| format!("{p}: {e}")))
    };
    let (a, b) = (load(a)?, load(b)?);
    let errs: Vec<String> = [&a, &b]
        .into_iter()
        .flat_map(report::schema_errors)
        .collect();
    let outside = report::disagreements(&a, &b);
    for line in errs.iter().chain(&outside) {
        println!("{line}");
    }
    if errs.is_empty() && outside.is_empty() {
        println!("the two reports agree within every bound");
    }
    Ok(errs.is_empty() && outside.is_empty())
}

/// Every workload at about a twentieth of its size, timed and traced,
/// in this process; checks on, no bounds.
fn smoke(flags: &Flags) -> Result<bool, String> {
    let mut all_correct = true;
    for w in Workload::ALL {
        for trace in [false, true] {
            let args = Args {
                trace,
                ..run_args(flags, true)?
            };
            let t0 = std::time::Instant::now();
            let out = workloads::run(w, &args);
            let ok = out.correct(trace);
            all_correct &= ok;
            println!(
                "{:<18} trace {} {} ops {:>4} failed {} in {:.2} s",
                w.name(),
                trace as u8,
                if ok { "ok    " } else { "FAILED" },
                out.ops,
                out.failed,
                t0.elapsed().as_secs_f64()
            );
            for f in &out.failures {
                println!("    {f}");
            }
        }
    }
    Ok(all_correct)
}

fn list() {
    println!("workloads:");
    for w in Workload::ALL {
        println!("  {}", w.name());
    }
    println!("end-to-end metrics (measured with tracing off; every workload reports each):");
    for m in &END_TO_END {
        println!(
            "  {:<16} {:<6} better {:<6} bound {:.2} floor {}",
            m.name,
            m.unit,
            m.better.as_str(),
            m.bound,
            m.floor
        );
    }
    println!("per-layer metrics (measured in the traced run; 0 where a workload does not drive the layer):");
    for m in &PER_LAYER {
        println!(
            "  {:<42} {:<8} better {}",
            m.name,
            m.unit,
            m.better.as_str()
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use report::Outcome;

    #[test]
    fn flags_parse_in_any_order_and_reject_strays() {
        let argv: Vec<String> = ["--seed", "7", "--workload", "serve_bulk"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let f = Flags::parse(&argv).unwrap();
        assert_eq!(f.get("workload"), Some("serve_bulk"));
        assert_eq!(f.num("seed", 0u64), Ok(7));
        assert_eq!(f.num("seconds", 10.0), Ok(10.0));
        assert!(Flags::parse(&["x".to_string()]).is_err());
        assert!(Flags::parse(&["--seed".to_string()]).is_err());
        assert!(f.num::<u64>("workload", 0).is_err());
    }

    #[test]
    fn outcome_detail_passes_the_schema_rules() {
        let mut out = Outcome::default();
        out.op("pull", Ok(()));
        for m in &END_TO_END {
            out.sample(m.name, 1.5);
        }
        let e2e = out.detail(false);
        let w = Json::obj([
            ("ops", e2e.get("ops").cloned().unwrap()),
            ("failed", e2e.get("failed").cloned().unwrap()),
            ("end_to_end", e2e.get("metrics").cloned().unwrap()),
            (
                "per_layer",
                out.detail(true).get("metrics").cloned().unwrap(),
            ),
        ]);
        let report = Json::obj([("workloads", Json::obj([("serve_bulk", w)]))]);
        assert_eq!(report::schema_errors(&report), Vec::<String>::new());
    }
}
