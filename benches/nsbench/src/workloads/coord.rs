//! `coord_control`: an in-process `Coordinator` and two in-thread
//! `run_worker` loops on a plan whose jobs compute nothing, so wire
//! round-trips, poll intervals, journal syncs, store puts and manifest
//! rewrites are the only costs.

use super::{micro, Args, Budget, Workload};
use crate::layers::{self, Artifact, CoordRun};
use crate::report::Outcome;
use crate::spans::Recorder;
use crate::{host, stats};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::Instant;

const WORKERS: usize = 2;
/// Resumed runs over the completed directory after each fresh run.
fn resumes_per_round(args: &Args) -> usize {
    args.size(20, 5)
}

pub fn run(args: &Args, out: &mut Outcome) -> Result<(), String> {
    if args.trace {
        traced(args, out)
    } else {
        untraced(args, out)
    }
}

fn fresh_dir(args: &Args, tag: &str, i: usize) -> Result<PathBuf, String> {
    let dir = args.work.join(format!("{tag}-{i}"));
    std::fs::create_dir_all(&dir).map_err(|e| e.to_string())?;
    Ok(dir)
}

/// A fresh run must execute every job and reproduce the first run's
/// digest map.
fn check_fresh(
    run: &CoordRun,
    jobs: u64,
    first: &mut Option<BTreeMap<String, u64>>,
) -> Result<(), String> {
    if run.completed != jobs || run.skipped != 0 {
        return Err(format!(
            "completed {} skipped {} of {jobs}",
            run.completed, run.skipped
        ));
    }
    if first.get_or_insert_with(|| run.digests.clone()) != &run.digests {
        return Err("digest map differs from the first run's".to_string());
    }
    Ok(())
}

/// A resumed run must skip the `skipped` jobs the directory already
/// holds, run the `completed` others, and report the first run's digest
/// for every job that run had.
fn check_resumed(
    run: &CoordRun,
    skipped: u64,
    completed: u64,
    first: &Option<BTreeMap<String, u64>>,
) -> Result<(), String> {
    if run.skipped != skipped || run.completed != completed {
        return Err(format!(
            "skipped {} completed {}, want {skipped} and {completed}",
            run.skipped, run.completed
        ));
    }
    let same = first
        .iter()
        .flatten()
        .all(|(job, digest)| run.digests.get(job) == Some(digest));
    if first.is_none() || !same {
        return Err("resumed digests differ from the first run's".to_string());
    }
    Ok(())
}

fn untraced(args: &Args, out: &mut Outcome) -> Result<(), String> {
    let chunks = args.size(64, 4);
    let jobs = chunks as u64 + 1;
    // Set-up: a run directory and one small run through a fresh
    // coordinator, which is also what warms the process up.
    for i in 0..args.size(3, 1) {
        let t0 = Instant::now();
        let dir = fresh_dir(args, "warm", i)?;
        let run = layers::coord_run(&dir, args.size(8, 2), args.seed, false, WORKERS)?;
        if run.completed == 0 {
            return Err("the set-up run completed nothing".to_string());
        }
        out.sample("setup_s", t0.elapsed().as_secs_f64());
    }

    let mut first = None;
    let budget = Budget::new(args.seconds);
    let mut rounds = 0;
    while budget.more(rounds, args.size(2, 1)) {
        let dir = fresh_dir(args, "run", rounds)?;
        let ran = layers::coord_run(&dir, chunks, args.seed, false, WORKERS);
        match ran.and_then(|r| check_fresh(&r, jobs, &mut first).map(|_| r)) {
            Ok(r) => {
                out.op("run", Ok(()));
                out.sample("rate_per_s", jobs as f64 / r.wall_s);
                out.sample("op_ms", r.wall_s * 1e3);
                if let Some(s) = r.first_job_s {
                    out.sample("first_ms", s * 1e3);
                }
            }
            Err(e) => {
                out.op("run", Err(e));
                rounds += 1;
                continue;
            }
        }
        // Over the completed directory, `resume` must skip everything.
        // That takes a millisecond or two of file reads and syncs, which
        // the host's disk moves by a third from one minute to the next,
        // so it is checked here and timed in the traced run
        // (`orchestrator.coord_resume_ms_per_job`), not gated.
        let ran = layers::coord_run(&dir, chunks, args.seed, true, WORKERS);
        out.op(
            "resumed run",
            ran.and_then(|r| check_resumed(&r, jobs, 0, &first)),
        );
        // The gated resume picks a longer plan up from this directory:
        // the 65 jobs it holds are verified and skipped, the new half as
        // many again are run.
        let more = chunks / 2;
        let ran = layers::coord_run(&dir, chunks + more, args.seed, true, WORKERS);
        match ran.and_then(|r| check_resumed(&r, jobs, more as u64, &first).map(|_| r)) {
            Ok(r) => {
                out.op("resumed longer run", Ok(()));
                out.sample("resume_ms", r.wall_s * 1e3);
            }
            Err(e) => out.op("resumed longer run", Err(e)),
        }
        rounds += 1;
    }
    Ok(())
}

fn traced(args: &Args, out: &mut Outcome) -> Result<(), String> {
    let chunks = args.size(64, 4);
    let jobs = chunks as u64 + 1;
    let warm = layers::coord_run(
        &fresh_dir(args, "warm", 0)?,
        args.size(8, 2),
        args.seed,
        false,
        WORKERS,
    )?;
    if warm.completed == 0 {
        return Err("the warm-up run completed nothing".to_string());
    }

    let mut rec = Recorder::enabled(Instant::now());
    let (u0, s0) = host::cpu_times();
    let mut first = None;
    let (mut plain_s, mut traced_s, mut busy, mut resume_ms) = (vec![], vec![], vec![], vec![]);
    let mut ran_jobs = 0u64;
    let budget = Budget::new(args.seconds * 0.5);
    let mut rounds = 0;
    while budget.more(rounds, 1) {
        rec.set_req(rounds as u64);
        let dir = fresh_dir(args, "plain", rounds)?;
        let r = layers::coord_run(&dir, chunks, args.seed, false, WORKERS)?;
        out.op("run", check_fresh(&r, jobs, &mut first));
        plain_s.push(r.wall_s);

        let dir = fresh_dir(args, "traced", rounds)?;
        rec.enter("orchestrator.serve");
        let ran = layers::coord_run(&dir, chunks, args.seed, false, WORKERS);
        rec.exit();
        let r = ran?;
        out.op("run", check_fresh(&r, jobs, &mut first));
        traced_s.push(r.wall_s);
        busy.push(stats::ratio(r.busy_s, WORKERS as f64 * r.wall_s));
        ran_jobs += 2 * jobs;

        for _ in 0..resumes_per_round(args) {
            rec.enter("orchestrator.serve_resumed");
            let ran = layers::coord_run(&dir, chunks, args.seed, true, WORKERS);
            rec.exit();
            let r = ran?;
            out.op("resumed run", check_resumed(&r, jobs, 0, &first));
            resume_ms.push(r.wall_s * 1e3);
        }
        rounds += 1;
    }
    let (u1, s1) = host::cpu_times();
    let cpu = (u1 - u0) + (s1 - s0);
    // Per thousand jobs here: this workload delivers no flows.
    out.set(
        "host.cpu_s_per_kflow",
        stats::ratio(cpu, ran_jobs as f64 / 1e3),
    );
    out.set("host.sys_share", stats::ratio(s1 - s0, cpu));
    out.set("orchestrator.worker_busy_share", stats::median(&busy));
    out.set(
        "orchestrator.coord_resume_ms_per_job",
        stats::median(&resume_ms) / jobs as f64,
    );
    out.set(
        "trace.overhead_ratio",
        stats::ratio(stats::median(&plain_s), stats::median(&traced_s)),
    );

    let bundle = layers::make_bundle(Artifact::Flow8, args.seed)?;
    micro::run(&bundle, args, out, &mut rec)?;
    // What the run-directory and wire calls a job needs cost when made
    // one at a time (a put, two journal records, a manifest rewrite,
    // claim and complete round-trips), against the run's wall.
    let per_job_ms = out.value("orchestrator.store_put_ms")
        + 2.0 * out.value("orchestrator.journal_append_ms")
        + out.value("orchestrator.manifest_store_ms")
        + 2.0 * out.value("orchestrator.wire_roundtrip_us") / 1e3;
    out.set(
        "trace.coverage",
        stats::ratio(
            per_job_ms * jobs as f64 / WORKERS as f64,
            stats::median(&traced_s) * 1e3,
        ),
    );
    super::write_trace(Workload::CoordControl, &rec)
}
