//! End-to-end orchestrator behavior: DAG execution, retry, failure
//! cancellation, checkpoint + resume, and corruption recovery.

use orchestrator::{
    run, Event, EventLog, FaultPlan, JobSpec, Manifest, OrchestratorError, Plan, RunOptions,
};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("orch-it-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// a → (b, c) → d, payloads are strings accumulating the path taken.
fn diamond() -> Plan<'static, String> {
    Plan::new(vec![
        JobSpec::new("a", Vec::<String>::new(), |_inp: &orchestrator::JobInputs<String>| {
            Ok("a".to_string())
        }),
        JobSpec::new("b", ["a"], |inp: &orchestrator::JobInputs<String>| {
            Ok(format!("{}+b", inp.dep("a")?))
        }),
        JobSpec::new("c", ["a"], |inp: &orchestrator::JobInputs<String>| {
            Ok(format!("{}+c", inp.dep("a")?))
        }),
        JobSpec::new("d", ["b", "c"], |inp: &orchestrator::JobInputs<String>| {
            Ok(format!("{}|{}|d", inp.dep("b")?, inp.dep("c")?))
        }),
    ])
    .unwrap()
}

#[test]
fn diamond_runs_in_dependency_order_at_any_worker_count() {
    for workers in [1usize, 2, 4, 8] {
        let plan = diamond();
        let events = EventLog::new();
        let opts = RunOptions { workers, ..Default::default() };
        let report = run(&plan, &opts, &events).unwrap();
        assert_eq!(report.outputs["d"].as_str(), "a+b|a+c|d");
        assert_eq!(report.completed, 4);
        assert_eq!(report.skipped, 0);
        // Every job finished exactly once.
        let finished: Vec<_> = events
            .events()
            .into_iter()
            .filter_map(|e| match e {
                Event::JobFinished { job, .. } => Some(job),
                _ => None,
            })
            .collect();
        assert_eq!(finished.len(), 4, "workers={workers}");
    }
}

#[test]
fn flaky_job_is_retried_until_it_succeeds() {
    let attempts = AtomicU32::new(0);
    let plan = Plan::new(vec![JobSpec::new(
        "flaky",
        Vec::<String>::new(),
        |_inp: &orchestrator::JobInputs<u64>| {
            let n = attempts.fetch_add(1, Ordering::SeqCst);
            if n < 2 {
                Err(format!("transient failure {n}"))
            } else {
                Ok(42)
            }
        },
    )])
    .unwrap();
    let events = EventLog::new();
    let opts = RunOptions {
        workers: 2,
        max_retries: 3,
        backoff: std::time::Duration::from_millis(1),
        ..Default::default()
    };
    let report = run(&plan, &opts, &events).unwrap();
    assert_eq!(*report.outputs["flaky"], 42);
    assert_eq!(report.stats["flaky"].attempts, 3);
    let retries = events
        .events()
        .iter()
        .filter(|e| matches!(e, Event::JobRetried { .. }))
        .count();
    assert_eq!(retries, 2);
}

#[test]
fn job_stats_time_only_the_attempt_that_produced_the_result() {
    // The first attempt burns 300 ms and fails, the retry waits out a
    // 300 ms backoff and then succeeds at once: neither the failed attempt
    // nor the backoff is in the job's wall time.
    let attempts = AtomicU32::new(0);
    let plan = Plan::new(vec![JobSpec::new(
        "slow-then-fast",
        Vec::<String>::new(),
        |_inp: &orchestrator::JobInputs<u64>| {
            if attempts.fetch_add(1, Ordering::SeqCst) == 0 {
                std::thread::sleep(std::time::Duration::from_millis(300));
                return Err("slow failure".into());
            }
            Ok(1)
        },
    )])
    .unwrap();
    let events = EventLog::new();
    let opts = RunOptions {
        workers: 1,
        backoff: std::time::Duration::from_millis(300),
        ..Default::default()
    };
    let report = run(&plan, &opts, &events).unwrap();
    let stats = &report.stats["slow-then-fast"];
    assert_eq!(stats.attempts, 2);
    assert!(report.wall_seconds >= 0.6, "{}", report.wall_seconds);
    assert!(stats.wall_seconds < 0.3, "{stats:?}");
    assert_eq!(report.cpu_seconds, stats.cpu_seconds);
    let finished = events.events().into_iter().find_map(|e| match e {
        Event::JobFinished { wall_seconds, .. } => Some(wall_seconds),
        _ => None,
    });
    assert_eq!(finished, Some(stats.wall_seconds));
}

#[test]
fn panicking_job_is_caught_and_retried() {
    let attempts = AtomicU32::new(0);
    let plan = Plan::new(vec![JobSpec::new(
        "panicky",
        Vec::<String>::new(),
        |_inp: &orchestrator::JobInputs<u64>| {
            if attempts.fetch_add(1, Ordering::SeqCst) == 0 {
                panic!("kaboom");
            }
            Ok(7)
        },
    )])
    .unwrap();
    let events = EventLog::new();
    let opts = RunOptions {
        max_retries: 2,
        backoff: std::time::Duration::from_millis(1),
        ..Default::default()
    };
    let report = run(&plan, &opts, &events).unwrap();
    assert_eq!(*report.outputs["panicky"], 7);
    let has_panic_retry = events.events().iter().any(|e| {
        matches!(e, Event::JobRetried { error, .. } if error.contains("kaboom"))
    });
    assert!(has_panic_retry, "panic message must surface in the retry event");
}

#[test]
fn hard_failure_cancels_dependents_and_reports_the_job() {
    let downstream_ran = AtomicU32::new(0);
    let plan = Plan::new(vec![
        JobSpec::new("doomed", Vec::<String>::new(), |_inp: &orchestrator::JobInputs<u64>| {
            Err("permanently broken".to_string())
        }),
        JobSpec::new("downstream", ["doomed"], |_inp: &orchestrator::JobInputs<u64>| {
            downstream_ran.fetch_add(1, Ordering::SeqCst);
            Ok(1)
        }),
    ])
    .unwrap();
    let events = EventLog::new();
    let opts = RunOptions {
        max_retries: 1,
        backoff: std::time::Duration::from_millis(1),
        ..Default::default()
    };
    match run(&plan, &opts, &events) {
        Err(OrchestratorError::JobFailed { job, attempts, .. }) => {
            assert_eq!(job, "doomed");
            assert_eq!(attempts, 2);
        }
        other => panic!("expected JobFailed, got {:?}", other.map(|r| r.completed)),
    }
    assert_eq!(downstream_ran.load(Ordering::SeqCst), 0, "dependent must not run");
}

#[test]
fn fault_hook_injects_failures_that_are_retried_and_logged() {
    let plan = Plan::new(vec![
        JobSpec::new("pretrain", Vec::<String>::new(), |_inp: &orchestrator::JobInputs<u64>| Ok(1)),
        JobSpec::new("chunk-0", ["pretrain"], |inp: &orchestrator::JobInputs<u64>| {
            Ok(inp.dep("pretrain")? + 10)
        }),
    ])
    .unwrap();
    let events = EventLog::new();
    let opts = RunOptions {
        max_retries: 2,
        backoff: std::time::Duration::from_millis(1),
        faults: Some(FaultPlan::parse("chunk-0:1").unwrap()),
        ..Default::default()
    };
    let report = run(&plan, &opts, &events).unwrap();
    assert_eq!(*report.outputs["chunk-0"], 11);
    assert_eq!(report.stats["chunk-0"].attempts, 2);
    let injected = events.events().iter().any(|e| {
        matches!(e, Event::JobRetried { job, error, .. }
                 if job == "chunk-0" && error.contains("injected transient fault"))
    });
    assert!(injected, "injected fault must appear as a JobRetried event");
}

#[test]
fn resume_skips_manifest_verified_jobs_with_identical_outputs() {
    let dir = tmp_dir("resume");
    let executions = AtomicU32::new(0);
    let make_plan = || {
        Plan::new(vec![
            JobSpec::new("a", Vec::<String>::new(), |_inp: &orchestrator::JobInputs<u64>| {
                executions.fetch_add(1, Ordering::SeqCst);
                Ok(5)
            }),
            JobSpec::new("b", ["a"], |inp: &orchestrator::JobInputs<u64>| {
                executions.fetch_add(1, Ordering::SeqCst);
                Ok(inp.dep("a")? * 3)
            }),
        ])
        .unwrap()
    };
    let opts = RunOptions {
        checkpoint_dir: Some(dir.clone()),
        resume: true,
        run_key: "cfg-v1".into(),
        ..Default::default()
    };
    let first = run(&make_plan(), &opts, &EventLog::new()).unwrap();
    assert_eq!(executions.load(Ordering::SeqCst), 2);
    assert_eq!(first.skipped, 0);

    let events = EventLog::new();
    let second = run(&make_plan(), &opts, &events).unwrap();
    assert_eq!(executions.load(Ordering::SeqCst), 2, "nothing re-ran");
    assert_eq!(second.skipped, 2);
    assert_eq!(second.completed, 0);
    assert_eq!(second.outputs["b"], first.outputs["b"]);
    let skips = events
        .events()
        .iter()
        .filter(|e| matches!(e, Event::JobSkipped { .. }))
        .count();
    assert_eq!(skips, 2);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn corrupted_payload_reruns_only_that_job() {
    let dir = tmp_dir("corrupt");
    let runs_a = AtomicU32::new(0);
    let runs_b = AtomicU32::new(0);
    let make_plan = || {
        Plan::new(vec![
            JobSpec::new("a", Vec::<String>::new(), |_inp: &orchestrator::JobInputs<u64>| {
                runs_a.fetch_add(1, Ordering::SeqCst);
                Ok(5)
            }),
            JobSpec::new("b", Vec::<String>::new(), |_inp: &orchestrator::JobInputs<u64>| {
                runs_b.fetch_add(1, Ordering::SeqCst);
                Ok(6)
            }),
        ])
        .unwrap()
    };
    let opts = RunOptions {
        checkpoint_dir: Some(dir.clone()),
        resume: true,
        run_key: "cfg-v1".into(),
        ..Default::default()
    };
    run(&make_plan(), &opts, &EventLog::new()).unwrap();
    // Tamper with a's payload object; its digest check must force a
    // re-run. The path comes from the manifest: payloads are addressed by
    // content digest, not by job id.
    let m = Manifest::load(&dir).unwrap();
    let payload = dir.join(&m.entry("a").unwrap().file);
    std::fs::write(&payload, b"999").unwrap();
    let events = EventLog::new();
    let report = run(&make_plan(), &opts, &events).unwrap();
    assert_eq!(runs_a.load(Ordering::SeqCst), 2, "tampered job re-ran");
    assert_eq!(runs_b.load(Ordering::SeqCst), 1, "intact job skipped");
    assert_eq!(*report.outputs["a"], 5);
    // The corrupt bytes were quarantined (and the re-run rewrote the
    // generation slot with a clean payload).
    assert!(
        payload.with_extension("json.quarantine").exists(),
        "corrupt generation preserved as *.quarantine"
    );
    assert_ne!(
        std::fs::read(&payload).unwrap(),
        b"999",
        "generation slot rewritten with the clean payload"
    );
    let quarantined = events.events().iter().any(|e| {
        matches!(e, Event::CheckpointQuarantined { job, .. } if job == "a")
    });
    assert!(quarantined, "quarantine must be announced in the event stream");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn run_key_mismatch_starts_fresh() {
    let dir = tmp_dir("runkey");
    let runs = AtomicU32::new(0);
    let make_plan = || {
        Plan::new(vec![JobSpec::new(
            "a",
            Vec::<String>::new(),
            |_inp: &orchestrator::JobInputs<u64>| {
                runs.fetch_add(1, Ordering::SeqCst);
                Ok(1)
            },
        )])
        .unwrap()
    };
    let mut opts = RunOptions {
        checkpoint_dir: Some(dir.clone()),
        resume: true,
        run_key: "cfg-v1".into(),
        ..Default::default()
    };
    run(&make_plan(), &opts, &EventLog::new()).unwrap();
    opts.run_key = "cfg-v2".into(); // changed configuration fingerprint
    let report = run(&make_plan(), &opts, &EventLog::new()).unwrap();
    assert_eq!(runs.load(Ordering::SeqCst), 2, "different key ⇒ re-run");
    assert_eq!(report.skipped, 0);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn failed_run_persists_finished_jobs_for_resume() {
    let dir = tmp_dir("partial");
    let runs_good = AtomicU32::new(0);
    let fail_bad = std::sync::atomic::AtomicBool::new(true);
    let make_plan = || {
        Plan::new(vec![
            JobSpec::new("good", Vec::<String>::new(), |_inp: &orchestrator::JobInputs<u64>| {
                runs_good.fetch_add(1, Ordering::SeqCst);
                Ok(1)
            }),
            JobSpec::new("bad", Vec::<String>::new(), |_inp: &orchestrator::JobInputs<u64>| {
                if fail_bad.load(Ordering::SeqCst) {
                    Err("dies this run".into())
                } else {
                    Ok(2)
                }
            }),
        ])
        .unwrap()
    };
    let opts = RunOptions {
        workers: 1, // deterministic: `good` completes before `bad` fails
        max_retries: 0,
        checkpoint_dir: Some(dir.clone()),
        resume: true,
        run_key: "k".into(),
        ..Default::default()
    };
    assert!(run(&make_plan(), &opts, &EventLog::new()).is_err());
    fail_bad.store(false, Ordering::SeqCst);
    let report = run(&make_plan(), &opts, &EventLog::new()).unwrap();
    assert_eq!(report.skipped, 1, "the finished job survived the failed run");
    assert_eq!(runs_good.load(Ordering::SeqCst), 1);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn events_jsonl_written_via_file_sink() {
    let dir = tmp_dir("sink");
    let path = dir.join("events.jsonl");
    let events = Arc::new(EventLog::new().with_file(&path).unwrap());
    let plan = Plan::new(vec![JobSpec::new(
        "only",
        Vec::<String>::new(),
        |_inp: &orchestrator::JobInputs<u64>| Ok(9),
    )])
    .unwrap();
    run(&plan, &RunOptions::default(), &events).unwrap();
    let text = std::fs::read_to_string(&path).unwrap();
    let parsed: Vec<Event> = text
        .lines()
        .map(|l| orchestrator::events::parse_event(l).unwrap())
        .collect();
    assert!(matches!(parsed.first(), Some(Event::RunStarted { .. })));
    assert!(matches!(parsed.last(), Some(Event::RunFinished { .. })));
    std::fs::remove_dir_all(&dir).ok();
}
