//! `train_synth`: the data holder's path. Fit a synthetic UGR16-like
//! trace with the default configuration on two workers, then generate.

use super::{micro, Args, Budget, Workload};
use crate::layers::{self, Artifact};
use crate::report::Outcome;
use crate::spans::Recorder;
use crate::{host, stats};
use std::time::Instant;

/// Workers the timed fits train on (`nproc` is 2 where this was sized).
const WORKERS: usize = 2;

/// Seed of the trace and of `NetShareConfig`, whatever `--seed` says.
/// This is the one workload whose inputs do not move with `--seed`: on a
/// 4000-flow trace the seed decides how long the sequences are that the
/// fitted models emit, and with that `generate_flows`' records per
/// second and the time to the first flows, each by about ±15 % (measured
/// over ten seeds: 594–880 flows/s, 55–92 ms), more than the bound that
/// gates them. The same inputs on every run keep those two metrics
/// about code, not about the draw.
const INPUT_SEED: u64 = 17;

struct Sizes {
    /// Flows in the trace that is fitted.
    trace: usize,
    /// Flows of a bulk `generate_flows`.
    generate: usize,
    /// Flows of the first, small `generate_flows` after a fit.
    first: usize,
}

fn sizes(args: &Args) -> Sizes {
    Sizes {
        trace: args.size(4000, 400),
        generate: args.size(1500, 150),
        first: 64,
    }
}

pub fn run(args: &Args, out: &mut Outcome) -> Result<(), String> {
    if args.trace {
        traced(args, out)
    } else {
        untraced(args, out)
    }
}

fn untraced(args: &Args, out: &mut Outcome) -> Result<(), String> {
    let sz = sizes(args);
    let cfg = layers::net_config(INPUT_SEED, args.smoke);
    // Set-up: synthesise the trace, then fit it once on one worker with
    // checkpoints on. Every later fit must generate what this reference
    // generates, and the resumed fits pick its checkpoints up. A fit
    // takes seconds, so set-up is measured once.
    let ckpt = args.work.join("ckpt");
    let t0 = Instant::now();
    let trace = layers::synth_trace(sz.trace, INPUT_SEED);
    let mut reference = layers::fit(&trace, &cfg, 1, Some(&ckpt), false)?;
    out.sample("setup_s", t0.elapsed().as_secs_f64());
    let want_first = layers::trace_digest(&layers::generate(&mut reference, sz.first));
    let want_bulk = layers::trace_digest(&layers::generate(&mut reference, sz.generate));
    drop(reference);

    let budget = Budget::new(args.seconds);
    let mut rounds = 0;
    while budget.more(rounds, args.size(2, 1)) {
        let t0 = Instant::now();
        match layers::fit(&trace, &cfg, WORKERS, None, false) {
            Ok(mut model) => {
                let fit_s = t0.elapsed().as_secs_f64();
                let t0 = Instant::now();
                let first = layers::generate(&mut model, sz.first);
                let first_s = t0.elapsed().as_secs_f64();
                if layers::trace_digest(&first) == want_first {
                    out.op("fit", Ok(()));
                    out.sample("op_ms", fit_s * 1e3);
                    out.sample("first_ms", first_s * 1e3);
                } else {
                    out.op(
                        "fit",
                        Err("workers = 2 generates other flows than workers = 1".into()),
                    );
                }
                let t0 = Instant::now();
                let bulk = layers::generate(&mut model, sz.generate);
                let gen_s = t0.elapsed().as_secs_f64();
                if bulk.len() == sz.generate && layers::trace_digest(&bulk) == want_bulk {
                    out.op("generate", Ok(()));
                    out.sample("rate_per_s", bulk.len() as f64 / gen_s);
                } else {
                    out.op(
                        "generate",
                        Err(format!("{} flows, or not the reference's", bulk.len())),
                    );
                }
            }
            Err(e) => out.op("fit", Err(e)),
        }

        let t0 = Instant::now();
        match layers::fit(&trace, &cfg, WORKERS, Some(&ckpt), true) {
            Ok(mut model) => {
                let resume_s = t0.elapsed().as_secs_f64();
                let same =
                    layers::trace_digest(&layers::generate(&mut model, sz.first)) == want_first;
                if same && layers::fit_skipped_all(&model) {
                    out.op("resumed fit", Ok(()));
                    out.sample("resume_ms", resume_s * 1e3);
                } else {
                    out.op(
                        "resumed fit",
                        Err("retrained a job or generated other flows".into()),
                    );
                }
            }
            Err(e) => out.op("resumed fit", Err(e)),
        }
        rounds += 1;
    }
    Ok(())
}

/// Traced run: an untraced and a traced fit per round (the traced one
/// bracketed by spans, with the codec calls replayed beside it), a
/// traced generation, then the micros.
fn traced(args: &Args, out: &mut Outcome) -> Result<(), String> {
    let sz = sizes(args);
    let cfg = layers::net_config(INPUT_SEED, args.smoke);
    let trace = layers::synth_trace(sz.trace, INPUT_SEED);
    let mut rec = Recorder::enabled(Instant::now());
    let cpu0 = host::cpu_times();

    let (mut plain_s, mut traced_s) = (Vec::new(), Vec::new());
    let (mut train_share, mut efficiency, mut coverage) = (Vec::new(), Vec::new(), Vec::new());
    let (mut flows, mut gen_cpu) = (0usize, 0.0);
    let mut digest = None;
    let budget = Budget::new(args.seconds * 0.5);
    let mut rounds = 0;
    while budget.more(rounds, 1) {
        rec.set_req(rounds as u64);
        let t0 = Instant::now();
        let mut plain = layers::fit(&trace, &cfg, WORKERS, None, false)?;
        plain_s.push(t0.elapsed().as_secs_f64());

        rec.enter("netshare.fit_flows");
        let t0 = Instant::now();
        let fitted = layers::fit(&trace, &cfg, WORKERS, None, false);
        let fit_s = t0.elapsed().as_secs_f64();
        rec.exit();
        let mut model = fitted?;
        traced_s.push(fit_s);
        let replay = layers::replay_codec(&trace, &cfg, &mut rec);
        let (pool_wall, pool_cpu) = layers::fit_pool_seconds(&model);
        train_share.push(stats::ratio(pool_wall, fit_s));
        efficiency.push(stats::ratio(pool_cpu, WORKERS as f64 * pool_wall));
        coverage.push(stats::ratio(
            replay.fit_s + replay.chunk_s + replay.encode_s + pool_wall,
            fit_s,
        ));

        let (u0, s0) = host::cpu_times();
        rec.enter("netshare.generate_flows");
        let generated = layers::generate(&mut model, sz.generate);
        rec.exit();
        let (u1, s1) = host::cpu_times();
        gen_cpu += (u1 - u0) + (s1 - s0);
        flows += generated.len();
        let got = layers::trace_digest(&generated);
        let same = got == layers::trace_digest(&layers::generate(&mut plain, sz.generate));
        let repeats = *digest.get_or_insert(got) == got;
        out.op(
            "fit + generate",
            if same && repeats {
                Ok(())
            } else {
                Err("two fits of one seed generate different flows".into())
            },
        );
        rounds += 1;
    }
    let (u0, s0) = cpu0;
    let (u1, s1) = host::cpu_times();
    out.set(
        "host.sys_share",
        stats::ratio(s1 - s0, (u1 - u0) + (s1 - s0)),
    );
    out.set(
        "host.cpu_s_per_kflow",
        stats::ratio(gen_cpu, flows as f64 / 1e3),
    );
    out.set("netshare.train_share", stats::median(&train_share));
    out.set(
        "netshare.pool_parallel_efficiency",
        stats::median(&efficiency),
    );
    out.set("trace.coverage", stats::median(&coverage));
    out.set(
        "trace.overhead_ratio",
        stats::ratio(stats::median(&plain_s), stats::median(&traced_s)),
    );

    let bundle = layers::make_bundle(Artifact::Flow8, args.seed)?;
    micro::run(&bundle, args, out, &mut rec)?;
    super::write_trace(Workload::TrainSynth, &rec)
}
