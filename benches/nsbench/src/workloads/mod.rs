//! The five workloads and what they share: sizes, the time budget, the
//! scratch directory, and the warm-up rule.

pub mod coord;
pub mod micro;
pub mod serve;
pub mod train;

use crate::host;
use crate::report::Outcome;
use std::path::PathBuf;
use std::time::Instant;

/// A workload: one set of inputs the benchmark runs. The names are
/// fixed; later issues cite them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    ServeBulk,
    ServeLongseq,
    ServeInteractive,
    TrainSynth,
    CoordControl,
}

impl Workload {
    pub const ALL: [Workload; 5] = [
        Workload::ServeBulk,
        Workload::ServeLongseq,
        Workload::ServeInteractive,
        Workload::TrainSynth,
        Workload::CoordControl,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::ServeBulk => "serve_bulk",
            Workload::ServeLongseq => "serve_longseq",
            Workload::ServeInteractive => "serve_interactive",
            Workload::TrainSynth => "train_synth",
            Workload::CoordControl => "coord_control",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// What a run was asked to do.
pub struct Args {
    /// Drives `DgConfig.seed`, the `trace_synth` seed and the `sim_plan`
    /// seed; product code receives only the inputs generated from it.
    pub seed: u64,
    /// How long the timed part of the run measures.
    pub seconds: f64,
    /// Record spans and report per-layer metrics.
    pub trace: bool,
    /// Every size cut to about a twentieth (`nsbench smoke`).
    pub smoke: bool,
    /// Scratch directory of this run, inside the benchmark's `out/`.
    pub work: PathBuf,
}

impl Args {
    /// `full` at benchmark size, `small` under `nsbench smoke`.
    pub fn size(&self, full: usize, small: usize) -> usize {
        if self.smoke {
            small
        } else {
            full
        }
    }
}

/// The benchmark's output directory: `out/` beside its `Cargo.toml`.
pub fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// Writes a traced run's spans to `out/trace-<workload>.jsonl`.
pub fn write_trace(workload: Workload, rec: &crate::spans::Recorder) -> Result<(), String> {
    let dir = out_dir();
    std::fs::create_dir_all(&dir).map_err(|e| e.to_string())?;
    crate::spans::write_jsonl(
        rec.spans(),
        &dir.join(format!("trace-{}.jsonl", workload.name())),
    )
    .map_err(|e| e.to_string())
}

/// The share of a run's seconds a phase may use, counted from when the
/// phase began.
pub struct Budget {
    start: Instant,
    seconds: f64,
}

impl Budget {
    pub fn new(seconds: f64) -> Self {
        Budget {
            start: Instant::now(),
            seconds,
        }
    }

    /// Whether another repeat fits: true until the budget is spent, and
    /// in any case until `min` repeats are done.
    pub fn more(&self, done: usize, min: usize) -> bool {
        done < min || self.start.elapsed().as_secs_f64() < self.seconds
    }
}

/// Warm-up: repeats `f` until two consecutive repeats agree within 5 %
/// or `cap_s` seconds have passed, and discards them all. Returns how
/// many repeats ran.
pub fn warm_until_stable(
    cap_s: f64,
    mut f: impl FnMut() -> Result<f64, String>,
) -> Result<usize, String> {
    let start = Instant::now();
    let mut prev: Option<f64> = None;
    let mut n = 0;
    loop {
        let v = f()?;
        n += 1;
        let agree = prev.is_some_and(|p| (v - p).abs() <= 0.05 * p.abs().max(v.abs()));
        if agree || start.elapsed().as_secs_f64() >= cap_s {
            return Ok(n);
        }
        prev = Some(v);
    }
}

/// Runs one workload and returns what it measured. A set-up failure is
/// one failed operation, so the run still reports.
pub fn run(workload: Workload, args: &Args) -> Outcome {
    let mut out = Outcome::default();
    let result = std::fs::create_dir_all(&args.work)
        .map_err(|e| e.to_string())
        .and_then(|_| match workload {
            Workload::ServeBulk | Workload::ServeLongseq | Workload::ServeInteractive => {
                serve::run(workload, args, &mut out)
            }
            Workload::TrainSynth => train::run(args, &mut out),
            Workload::CoordControl => coord::run(args, &mut out),
        });
    if let Err(e) = result {
        out.op("workload", Err(e));
    }
    let _ = std::fs::remove_dir_all(&args.work);
    if !args.trace {
        out.set("peak_rss_mb", host::peak_rss_mb());
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn warm_up_stops_on_agreement_or_cap() {
        let mut vals = [10.0, 20.0, 20.5, 99.0].into_iter();
        assert_eq!(warm_until_stable(60.0, || Ok(vals.next().unwrap())), Ok(3));
        let mut n = 0.0;
        let ran = warm_until_stable(0.0, || {
            n += 100.0;
            Ok(n)
        });
        assert_eq!(ran, Ok(1), "cap reached after the first repeat");
        assert!(warm_until_stable(1.0, || Err("boom".to_string())).is_err());
    }

    #[test]
    fn budget_always_allows_the_minimum() {
        let b = Budget::new(0.0);
        assert!(b.more(0, 2) && b.more(1, 2) && !b.more(2, 2));
        assert!(Budget::new(60.0).more(100, 2));
    }

    #[test]
    fn workload_names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::parse(w.name()), Some(w));
        }
        assert_eq!(Workload::parse("nope"), None);
    }
}
