//! Orchestrated-training guarantees, end to end:
//!
//! * worker count changes scheduling only — generated traces are bitwise
//!   identical at any pool size;
//! * a run killed mid-training resumes from the checkpoint manifest,
//!   retrains only unfinished chunks, and produces the same trace an
//!   uninterrupted run would;
//! * an injected job fault is retried, logged to `events.jsonl`, and does
//!   not change the output;
//! * a changed configuration fingerprint invalidates old checkpoints.

use netshare::config::NetShareConfig;
use netshare::pipeline::NetShare;
use netshare::OrchestratorEvent as Event;
use std::path::PathBuf;
use nettrace::FlowTrace;
use trace_synth::{generate_flows as synth_flows, DatasetKind};

fn tiny_cfg(seed: u64) -> NetShareConfig {
    let mut cfg = NetShareConfig::fast();
    cfg.n_chunks = 2;
    cfg.seed_steps = 8;
    cfg.finetune_steps = 3;
    cfg.ip2vec_public_packets = 800;
    cfg.max_seq_len = 4;
    cfg.seed = seed;
    cfg
}

fn real_trace() -> FlowTrace {
    synth_flows(DatasetKind::Ugr16, 400, 17)
}

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("netshare-orch-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn fit_and_generate(real: &FlowTrace, cfg: &NetShareConfig) -> (FlowTrace, Vec<Event>) {
    let mut model = NetShare::fit_flows(real, cfg).unwrap();
    let trace = model.generate_flows(150);
    (trace, model.events().to_vec())
}

#[test]
fn worker_count_does_not_change_the_trace() {
    std::env::set_var("RAYON_NUM_THREADS", "4");
    let real = real_trace();
    let mut traces = Vec::new();
    for workers in [1usize, 4] {
        let mut cfg = tiny_cfg(42);
        cfg.orchestrator.workers = workers;
        traces.push(fit_and_generate(&real, &cfg).0);
    }
    assert_eq!(
        traces[0], traces[1],
        "1-worker and 4-worker runs must generate identical traces"
    );
}

#[test]
fn killed_run_resumes_from_manifest_and_matches_uninterrupted() {
    std::env::set_var("RAYON_NUM_THREADS", "4");
    let real = real_trace();

    // The reference: one uninterrupted fit, no checkpointing involved.
    let (reference, _) = fit_and_generate(&real, &tiny_cfg(23));

    // The "killed" run: chunk-1 faults on every attempt with no retries,
    // so the fit dies after the pretrain (and possibly chunk-0) jobs have
    // already persisted their checkpoints.
    let dir = tmp_dir("resume");
    let mut cfg = tiny_cfg(23);
    cfg.orchestrator.checkpoint_dir = Some(dir.clone());
    cfg.orchestrator.resume = true;
    cfg.orchestrator.max_retries = Some(0);
    cfg.orchestrator.faults = Some(orchestrator::FaultPlan::parse("chunk-1:99").unwrap());
    assert!(
        NetShare::fit_flows(&real, &cfg).is_err(),
        "the faulted run must fail"
    );
    assert!(
        dir.join("manifest.json").exists(),
        "the failed run must leave a manifest behind"
    );

    // Resume: same config, fault removed. Finished jobs are skipped.
    cfg.orchestrator.faults = None;
    cfg.orchestrator.max_retries = None;
    let (resumed, events) = fit_and_generate(&real, &cfg);
    assert_eq!(
        resumed, reference,
        "resumed run must produce the same trace as an uninterrupted one"
    );
    let skipped: Vec<String> = events
        .iter()
        .filter_map(|e| match e {
            Event::JobSkipped { job } => Some(job.clone()),
            _ => None,
        })
        .collect();
    assert!(
        skipped.iter().any(|j| j == "pretrain"),
        "pretrain must be resumed from the manifest, not retrained; skipped = {skipped:?}"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn injected_fault_is_retried_and_logged() {
    std::env::set_var("RAYON_NUM_THREADS", "4");
    let real = real_trace();

    let (reference, _) = fit_and_generate(&real, &tiny_cfg(31));

    let dir = tmp_dir("fault");
    let mut cfg = tiny_cfg(31);
    cfg.orchestrator.checkpoint_dir = Some(dir.clone());
    cfg.orchestrator.faults = Some(orchestrator::FaultPlan::parse("chunk-1:1").unwrap());
    let (trace, events) = fit_and_generate(&real, &cfg);
    assert_eq!(
        trace, reference,
        "a retried fault must not change the generated trace"
    );
    let retried = events.iter().any(|e| {
        matches!(e, Event::JobRetried { job, error, .. }
                 if job == "chunk-1" && error.contains("injected transient fault"))
    });
    assert!(retried, "the injected fault must surface as a JobRetried event");

    // The same event must be on disk in the JSONL stream.
    let text = std::fs::read_to_string(dir.join("events.jsonl")).unwrap();
    let on_disk = text
        .lines()
        .filter_map(|l| orchestrator::events::parse_event(l).ok())
        .any(|e| matches!(e, Event::JobRetried { ref job, .. } if job == "chunk-1"));
    assert!(on_disk, "JobRetried must be recorded in events.jsonl");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn injected_divergence_is_rolled_back_and_the_fit_completes() {
    std::env::set_var("RAYON_NUM_THREADS", "4");
    let real = real_trace();
    let mut cfg = tiny_cfg(53);
    // Poison chunk-1's model at generator step 2: the sentinel must see
    // the non-finite losses, roll back, and still deliver the fit.
    cfg.orchestrator.divergence_spec = Some("chunk-1:2".into());
    let (trace, events) = fit_and_generate(&real, &cfg);
    assert!(!trace.is_empty(), "the recovered fit still generates");
    let rollback = events.iter().find_map(|e| match e {
        Event::SentinelRollback { job, reason, rollback, .. } if job == "chunk-1" => {
            Some((reason.clone(), *rollback))
        }
        _ => None,
    });
    let (reason, number) = rollback.expect("the forced divergence must be announced");
    assert!(reason.contains("non-finite"), "{reason}");
    assert_eq!(number, 1, "rollback numbers are 1-based");
    let failed = events.iter().any(|e| matches!(e, Event::JobFailed { .. }));
    assert!(!failed, "recovery happened inside the job, not via retries");
}

#[test]
fn hung_job_is_cancelled_by_the_watchdog_and_retried() {
    std::env::set_var("RAYON_NUM_THREADS", "4");
    let real = real_trace();

    let (reference, _) = fit_and_generate(&real, &tiny_cfg(37));

    let mut cfg = tiny_cfg(37);
    cfg.orchestrator.faults = Some(orchestrator::FaultPlan::parse("chunk-1:hang:1").unwrap());
    cfg.orchestrator.max_job_secs = Some(3.0);
    let (trace, events) = fit_and_generate(&real, &cfg);
    assert_eq!(
        trace, reference,
        "the retried attempt after the cancelled hang trains identically"
    );
    let cancelled = events.iter().any(|e| {
        matches!(e, Event::WatchdogCancelled { job, reason, .. }
                 if job == "chunk-1" && reason.contains("deadline exceeded"))
    });
    assert!(cancelled, "the watchdog must announce the cancellation: {events:?}");
    let retried = events.iter().any(|e| {
        matches!(e, Event::JobRetried { job, error, .. }
                 if job == "chunk-1" && error.contains("injected hang"))
    });
    assert!(retried, "the cancelled hang re-entered the retry path");
}

#[test]
fn changed_config_invalidates_old_checkpoints() {
    std::env::set_var("RAYON_NUM_THREADS", "4");
    let real = real_trace();
    let dir = tmp_dir("runkey");

    let mut cfg = tiny_cfg(7);
    cfg.orchestrator.checkpoint_dir = Some(dir.clone());
    cfg.orchestrator.resume = true;
    let _ = fit_and_generate(&real, &cfg);

    // Same directory, different seed: nothing may be reused.
    let mut cfg2 = tiny_cfg(8);
    cfg2.orchestrator.checkpoint_dir = Some(dir.clone());
    cfg2.orchestrator.resume = true;
    let (_, events) = fit_and_generate(&real, &cfg2);
    let resumed = events.iter().find_map(|e| match e {
        Event::RunStarted { resumed, .. } => Some(*resumed),
        _ => None,
    });
    assert_eq!(
        resumed,
        Some(0),
        "a different config fingerprint must start fresh"
    );

    // A different public-corpus size trains a different dictionary under
    // the same metadata width: chunk models trained against the old
    // embeddings must not be decoded with the new ones.
    let mut cfg3 = tiny_cfg(8);
    cfg3.ip2vec_public_packets += 100;
    cfg3.orchestrator.checkpoint_dir = Some(dir.clone());
    cfg3.orchestrator.resume = true;
    let (resumed_trace, events) = fit_and_generate(&real, &cfg3);
    let resumed = events.iter().find_map(|e| match e {
        Event::RunStarted { resumed, .. } => Some(*resumed),
        _ => None,
    });
    assert_eq!(resumed, Some(0), "a different dictionary must start fresh");
    cfg3.orchestrator.checkpoint_dir = None;
    assert_eq!(resumed_trace, fit_and_generate(&real, &cfg3).0);
    std::fs::remove_dir_all(&dir).ok();
}
