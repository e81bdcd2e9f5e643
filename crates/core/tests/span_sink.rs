//! `fit_flows` taps the process-global span sink for the length of the
//! fit and no longer: a span closed after it returns, by either exit,
//! must not reach the finished run's `events.jsonl`.
//!
//! One test, in a binary of its own: the sink is process-global, so a fit
//! running beside this one would install its own.
#![cfg(feature = "telemetry")]

use netshare::config::NetShareConfig;
use netshare::pipeline::NetShare;
use trace_synth::{generate_flows as synth_flows, DatasetKind};

#[test]
fn spans_after_a_fit_returns_reach_no_run() {
    let real = synth_flows(DatasetKind::Ugr16, 400, 17);
    let dir = std::env::temp_dir().join(format!("netshare-span-sink-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let events = dir.join("events.jsonl");

    let mut cfg = NetShareConfig::fast();
    cfg.n_chunks = 2;
    cfg.seed_steps = 8;
    cfg.finetune_steps = 3;
    cfg.ip2vec_public_packets = 800;
    cfg.max_seq_len = 4;
    cfg.orchestrator.checkpoint_dir = Some(dir.clone());

    let mut model = NetShare::fit_flows(&real, &cfg).unwrap();
    let after_fit = std::fs::read_to_string(&events).unwrap();
    assert!(after_fit.contains("\"Span\""), "the fit itself must have bridged its spans");
    drop(telemetry::span!("after_fit"));
    model.generate_flows(50); // opens `generate_flows[50]`
    assert_eq!(std::fs::read_to_string(&events).unwrap(), after_fit);

    // The error exit: chunk-1 faults on its only attempt.
    cfg.orchestrator.max_retries = Some(0);
    cfg.orchestrator.faults = Some(orchestrator::FaultPlan::parse("chunk-1:99").unwrap());
    assert!(NetShare::fit_flows(&real, &cfg).is_err());
    let after_failed_fit = std::fs::read_to_string(&events).unwrap();
    assert!(after_failed_fit.len() > after_fit.len(), "the failed fit appends to the same file");
    drop(telemetry::span!("after_failed_fit"));
    assert_eq!(std::fs::read_to_string(&events).unwrap(), after_failed_fit);

    let _ = std::fs::remove_dir_all(&dir);
}
