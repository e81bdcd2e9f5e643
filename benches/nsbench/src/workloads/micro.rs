//! Layer micro-timings: each times one public call of one crate from
//! outside, on inputs shaped like the workloads'. They run in every
//! traced run, whatever the workload, so each report carries the cost
//! of every layer on the host and at the moment it was taken.

use super::Args;
use crate::layers::{self, Artifact, ArtifactBundle};
use crate::report::Outcome;
use crate::spans::Recorder;
use crate::{host, stats};
use std::time::Instant;

/// Times `f` for about `slice_s` seconds and returns nanoseconds per
/// call: the median over up to nine batches of the batch's mean. A call
/// too long for that runs three times.
pub fn time_ns(slice_s: f64, mut f: impl FnMut()) -> f64 {
    let t0 = Instant::now();
    f();
    let one = t0.elapsed().as_secs_f64().max(1e-9);
    let reps = (slice_s / one).floor().max(3.0);
    let batches = reps.min(9.0) as usize;
    let per = (reps / batches as f64).floor().max(1.0) as usize;
    let means: Vec<f64> = (0..batches)
        .map(|_| {
            let t0 = Instant::now();
            for _ in 0..per {
                f();
            }
            t0.elapsed().as_nanos() as f64 / per as f64
        })
        .collect();
    stats::median(&means)
}

/// [`time_ns`] for a call that can fail; the first error ends the timing.
fn time_ns_try(slice_s: f64, mut f: impl FnMut() -> Result<(), String>) -> Result<f64, String> {
    let mut err = None;
    let ns = time_ns(slice_s, || {
        if err.is_none() {
            err = f().err();
        }
    });
    err.map_or(Ok(ns), Err)
}

/// Runs every micro-timing and stores the per-layer metrics they give.
/// `bundle` is the workload's artifact (`flow8` where it serves none).
pub fn run(
    bundle: &ArtifactBundle,
    args: &Args,
    out: &mut Outcome,
    rec: &mut Recorder,
) -> Result<(), String> {
    let slice = args.seconds * 0.4 / 30.0;
    rec.enter("micro");

    out.set("host.calib_ns", host::calib_ns(5, args.size(20, 2)));
    out.set("host.nproc", host::nproc() as f64);
    out.set("host.rayon_threads", layers::rayon_threads() as f64);

    rec.enter("micro.nnet");
    let (input, hidden) = layers::gru_dims(Artifact::Seq32);
    let gemm = layers::GemmBench::new(layers::BATCH, input, hidden, args.seed);
    let auto = time_ns(slice, || gemm.auto());
    let best_of = |timings: [f64; 3]| timings.into_iter().fold(f64::INFINITY, f64::min);
    let best = best_of([
        time_ns(slice / 2.0, || gemm.input_serial()),
        time_ns(slice / 2.0, || gemm.input_tiled()),
        time_ns(slice / 2.0, || gemm.input_parallel()),
    ]) + best_of([
        time_ns(slice / 2.0, || gemm.recurrent_serial()),
        time_ns(slice / 2.0, || gemm.recurrent_tiled()),
        time_ns(slice / 2.0, || gemm.recurrent_parallel()),
    ]);
    out.set("nnet.gemm_step_ns", auto);
    out.set("nnet.gemm_step_best_ns", best);
    out.set("nnet.dispatch_loss_ratio", stats::ratio(auto, best));
    out.set("nnet.gemm_tn_ns", time_ns(slice, || gemm.tn()));
    out.set("nnet.gemm_nt_ns", time_ns(slice, || gemm.nt()));
    let mut gru = layers::GruBench::new(layers::BATCH, input, hidden, args.seed);
    out.set("nnet.gru_step_ns", time_ns(slice, || gru.step()));
    rec.exit();

    rec.enter("micro.doppelganger");
    let path = args.work.join("micro-bundle.json");
    layers::save_bundle(bundle, &path)?;
    let load_ns = time_ns_try(slice, || layers::load_bundle(&path).map(drop))?;
    out.set("doppelganger.bundle_load_ms", load_ns / 1e6);
    let rebuild_ns = time_ns_try(slice, || layers::rebuild(bundle).map(drop))?;
    out.set("doppelganger.rebuild_ms", rebuild_ns / 1e6);
    let first_ns = time_ns_try(slice, || {
        let mut model = layers::rebuild(bundle)?;
        layers::stream_batches(&mut model, layers::BATCH, |_, _| false)
    })?;
    out.set("doppelganger.first_batch_ms", first_ns / 1e6);

    let mut model = layers::rebuild(bundle)?;
    // About the same number of GRU steps whatever the artifact.
    let flows = args.size((8192 / layers::bundle_max_len(bundle)).clamp(256, 1024), 32);
    let mut batch_s = Vec::new();
    layers::stream_batches(&mut model, flows, |_, secs| {
        batch_s.push(secs);
        true
    })?;
    out.set("doppelganger.next_batch_ms", stats::median(&batch_s) * 1e3);
    // Interleaved, so a slow second does not land on one path only.
    let (mut fast, mut train) = (Vec::new(), Vec::new());
    for _ in 0..3 {
        let t0 = Instant::now();
        std::hint::black_box(layers::sample_fast(&mut model, flows));
        fast.push(flows as f64 / t0.elapsed().as_secs_f64());
        let t0 = Instant::now();
        std::hint::black_box(layers::sample_train(&mut model, flows));
        train.push(flows as f64 / t0.elapsed().as_secs_f64());
    }
    let (fast, train) = (stats::median(&fast), stats::median(&train));
    out.set("doppelganger.sample_fast_flows_per_s", fast);
    out.set("doppelganger.sample_train_flows_per_s", train);
    out.set(
        "doppelganger.fast_over_train_ratio",
        stats::ratio(fast, train),
    );

    let gen_steps = args.size(20, 2);
    let data = layers::synthetic_dataset(Artifact::Flow8, args.size(512, 64), args.seed);
    let t0 = Instant::now();
    layers::train_steps(Artifact::Flow8, &data, gen_steps, args.seed);
    out.set(
        "doppelganger.train_step_ms",
        t0.elapsed().as_secs_f64() * 1e3 / gen_steps as f64,
    );
    rec.exit();

    rec.enter("micro.netshared");
    // A DATA frame as the server cuts them for this artifact: a batch
    // halved until its encoding fits the stream buffer.
    let mut samples = layers::sample_fast(&mut model, layers::BATCH);
    while samples.len() > 1
        && layers::encode_frame(&layers::data_frame(0, samples.clone()))?.len()
            > layers::default_capacity()
    {
        samples.truncate(samples.len() / 2);
    }
    let per_frame = samples.len() as f64;
    let frame = layers::data_frame(0, samples);
    let bytes = layers::encode_frame(&frame)?;
    let enc_ns = time_ns_try(slice, || layers::encode_frame(&frame).map(drop))?;
    let dec_ns = time_ns_try(slice, || layers::decode_frame(&bytes[4..]).map(drop))?;
    out.set("netshared.encode_flows_per_s", per_frame / (enc_ns / 1e9));
    out.set("netshared.decode_flows_per_s", per_frame / (dec_ns / 1e9));
    if layers::decode_frame(&bytes[4..])? != frame {
        return Err("a DATA frame did not survive encode → decode".to_string());
    }
    rec.exit();

    rec.enter("micro.orchestrator");
    wire_timings(slice, out)?;
    let mut dir = layers::RunDirBench::new(
        &args.work.join("micro-rundir"),
        layers::artifact_json(bundle)?.into_bytes(),
        args.size(65, 9),
    )?;
    out.set(
        "orchestrator.store_put_ms",
        time_ns_try(slice, || dir.put_new())? / 1e6,
    );
    out.set(
        "orchestrator.store_dedup_put_ms",
        time_ns_try(slice, || dir.put_dedup())? / 1e6,
    );
    out.set(
        "orchestrator.store_get_ms",
        time_ns_try(slice, || dir.get())? / 1e6,
    );
    out.set(
        "orchestrator.journal_append_ms",
        time_ns_try(slice, || dir.journal_append())? / 1e6,
    );
    out.set(
        "orchestrator.manifest_store_ms",
        time_ns_try(slice, || dir.manifest_store())? / 1e6,
    );
    let chunks = args.size(64, 4);
    let pool_s = layers::pool_run(&args.work.join("micro-pool"), chunks, 2)?;
    out.set(
        "orchestrator.pool_ms_per_job",
        pool_s * 1e3 / (chunks + 1) as f64,
    );
    rec.exit();

    rec.enter("micro.netshare");
    let cfg = layers::net_config(args.seed, args.smoke);
    let trace = layers::synth_trace(args.size(4000, 400), args.seed);
    let replay = layers::replay_codec(&trace, &cfg, &mut Recorder::disabled());
    out.set("netshare.codec_fit_ms", replay.fit_s * 1e3);
    out.set(
        "netshare.encode_group_us",
        stats::ratio(replay.encode_s * 1e6, replay.encoded.len() as f64),
    );
    // Decode what was encoded: valid codec input of the right width.
    let mut next = 0;
    let decode_ns = time_ns(slice, || {
        let (meta, records) = &replay.encoded[next % replay.encoded.len()];
        next += 1;
        layers::decode_sample(&replay, meta, records);
    });
    out.set("netshare.decode_sample_us", decode_ns / 1e3);
    let mut ip2vec = layers::Ip2VecBench::new(args.size(3000, 600), args.seed);
    out.set(
        "fieldcodec.ip2vec_nearest_us",
        time_ns(slice, || ip2vec.nearest_port()) / 1e3,
    );
    rec.exit();

    rec.enter("micro.telemetry");
    out.set("telemetry.span_ns", time_ns(slice, layers::telemetry_span));
    out.set(
        "telemetry.counter_inc_ns",
        time_ns(slice, layers::telemetry_counter_inc),
    );
    rec.exit();

    rec.exit();
    Ok(())
}

/// Round trip of a 64-byte frame and one-way rate of 64 KiB frames over
/// a loopback connection configured as the product configures its own.
fn wire_timings(slice_s: f64, out: &mut Outcome) -> Result<(), String> {
    let (mut near, mut far) = layers::loopback_pair()?;
    let echo = std::thread::spawn(move || {
        // Echoes until the near end closes.
        while let Ok(payload) = layers::wire_read(&mut far) {
            let Ok(bytes) = layers::wire_frame(&payload) else {
                break;
            };
            if layers::wire_write(&mut far, &bytes).is_err() {
                break;
            }
        }
    });
    let ping = layers::wire_frame(&[b'x'; 64])?;
    let rtt_ns = time_ns_try(slice_s, || {
        layers::wire_write(&mut near, &ping)?;
        layers::wire_read(&mut near).map(drop)
    });
    drop(near);
    echo.join()
        .map_err(|_| "echo thread panicked".to_string())?;
    out.set("orchestrator.wire_roundtrip_us", rtt_ns? / 1e3);

    let (mut near, mut far) = layers::loopback_pair()?;
    let frames = ((slice_s * 2e9 / 65_536.0) as usize).clamp(16, 4096);
    let big = layers::wire_frame(&vec![b'y'; 65_536])?;
    let writer = std::thread::spawn(move || {
        for _ in 0..frames {
            if layers::wire_write(&mut near, &big).is_err() {
                break;
            }
        }
    });
    let t0 = Instant::now();
    let mut got = 0usize;
    let mut result = Ok(());
    for _ in 0..frames {
        match layers::wire_read(&mut far) {
            Ok(payload) => got += payload.len(),
            Err(e) => {
                result = Err(e);
                break;
            }
        }
    }
    let secs = t0.elapsed().as_secs_f64();
    drop(far);
    writer
        .join()
        .map_err(|_| "writer thread panicked".to_string())?;
    result?;
    out.set("orchestrator.wire_stream_mb_per_s", got as f64 / 1e6 / secs);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn time_ns_measures_the_call_not_the_harness() {
        let mut calls = 0u64;
        let ns = time_ns(0.02, || {
            calls += 1;
            std::thread::sleep(std::time::Duration::from_millis(1));
        });
        assert!(calls >= 4, "one calibration call plus at least three timed");
        assert!((0.9e6..20e6).contains(&ns), "{ns} ns for a 1 ms sleep");
    }
}
