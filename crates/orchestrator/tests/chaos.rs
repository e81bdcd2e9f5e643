//! The chaos fault matrix against the live scheduler: every injectable
//! fault class must resolve through the ordinary retry machinery —
//! panics are caught, hangs are cancelled (by the watchdog or by run
//! failure), slow I/O merely delays, and backoffs wake early when the
//! run dies.

use orchestrator::coord::{CoordOptions, Coordinator};
use orchestrator::{
    run, sim_plan, Event, EventLog, FaultPlan, FsStore, JobSpec, Manifest, ObjectStore, Plan,
    RunOptions, WatchdogOptions,
};
use proptest::prelude::*;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::Duration;

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("orch-chaos-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn fast_retry(spec: &str) -> RunOptions {
    RunOptions {
        max_retries: 2,
        backoff: Duration::from_millis(1),
        faults: Some(FaultPlan::parse(spec).unwrap()),
        ..Default::default()
    }
}

#[test]
fn injected_panic_is_caught_and_retried() {
    let plan = Plan::new(vec![JobSpec::new(
        "j",
        Vec::<String>::new(),
        |_inp: &orchestrator::JobInputs<u64>| Ok(7),
    )])
    .unwrap();
    let events = EventLog::new();
    let report = run(&plan, &fast_retry("j:panic:1"), &events).unwrap();
    assert_eq!(*report.outputs["j"], 7);
    assert_eq!(report.stats["j"].attempts, 2);
    let retried = events.events().iter().any(|e| {
        matches!(e, Event::JobRetried { error, .. } if error.contains("injected panic"))
    });
    assert!(retried, "panic class surfaces through the retry path");
}

#[test]
fn injected_hang_is_cancelled_by_the_watchdog_and_retried() {
    let plan = Plan::new(vec![JobSpec::new(
        "j",
        Vec::<String>::new(),
        |_inp: &orchestrator::JobInputs<u64>| Ok(1),
    )])
    .unwrap();
    let events = EventLog::new();
    let mut opts = fast_retry("j:hang:1");
    opts.watchdog = WatchdogOptions {
        max_job_secs: Some(0.2),
        heartbeat_timeout_secs: None,
        poll: Duration::from_millis(10),
    };
    let report = run(&plan, &opts, &events).unwrap();
    assert_eq!(*report.outputs["j"], 1, "second attempt completed");
    assert_eq!(report.stats["j"].attempts, 2);
    let all = events.events();
    assert!(
        all.iter().any(|e| matches!(e, Event::WatchdogCancelled { job, .. } if job == "j")),
        "watchdog announced the cancellation: {all:?}"
    );
    assert!(
        all.iter().any(|e| matches!(
            e,
            Event::JobRetried { error, .. } if error.contains("injected hang")
        )),
        "the cancelled hang re-entered the retry path: {all:?}"
    );
}

#[test]
fn heartbeat_staleness_cancels_a_job_that_stopped_beating() {
    // Attempt 0 beats once, then blocks without ever beating again — the
    // staleness detector (armed only after a first beat) must trip and
    // the cooperative body converts cancellation into a retryable Err.
    let plan = Plan::new(vec![JobSpec::new(
        "stale",
        Vec::<String>::new(),
        |inp: &orchestrator::JobInputs<u64>| {
            if inp.attempt == 0 {
                inp.heartbeat.beat(1);
                while !inp.cancel.wait_timeout(Duration::from_millis(10)) {}
                return Err(format!(
                    "cancelled: {}",
                    inp.cancel.reason().unwrap_or_default()
                ));
            }
            Ok(5)
        },
    )])
    .unwrap();
    let events = EventLog::new();
    let opts = RunOptions {
        max_retries: 1,
        backoff: Duration::from_millis(1),
        watchdog: WatchdogOptions {
            max_job_secs: None,
            heartbeat_timeout_secs: Some(0.05),
            poll: Duration::from_millis(10),
        },
        ..Default::default()
    };
    let report = run(&plan, &opts, &events).unwrap();
    assert_eq!(*report.outputs["stale"], 5);
    let stale_cancel = events.events().iter().any(|e| {
        matches!(e, Event::WatchdogCancelled { reason, .. } if reason.contains("heartbeat stale"))
    });
    assert!(stale_cancel, "staleness, not deadline, tripped the watchdog");
}

#[test]
fn slow_io_fault_delays_but_persists_a_verified_checkpoint() {
    let dir = tmp_dir("slowio");
    let plan = Plan::new(vec![JobSpec::new(
        "j",
        Vec::<String>::new(),
        |_inp: &orchestrator::JobInputs<u64>| Ok(9),
    )])
    .unwrap();
    let opts = RunOptions {
        checkpoint_dir: Some(dir.clone()),
        run_key: "cfg".into(),
        faults: Some(FaultPlan::parse("j:slow-io:1").unwrap()),
        ..Default::default()
    };
    let report = run(&plan, &opts, &EventLog::new()).unwrap();
    assert_eq!(*report.outputs["j"], 9);
    let m = Manifest::load(&dir).unwrap();
    assert!(
        m.verified_payload(&dir, "j").is_some(),
        "slow I/O delays the write but never corrupts it"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn corrupt_flip_and_truncate_are_detected_on_the_next_resume() {
    for class in ["corrupt-flip", "corrupt-truncate"] {
        rotten_checkpoint_is_quarantined_on_resume(class);
    }
}

fn rotten_checkpoint_is_quarantined_on_resume(class: &str) {
    let dir = tmp_dir(class);
    let make_plan = || {
        Plan::new(vec![JobSpec::new(
            "j",
            Vec::<String>::new(),
            |_inp: &orchestrator::JobInputs<String>| Ok("payload".to_string()),
        )])
        .unwrap()
    };
    let mut opts = RunOptions {
        checkpoint_dir: Some(dir.clone()),
        run_key: "cfg".into(),
        faults: Some(FaultPlan::parse(&format!("j:{class}:1")).unwrap()),
        ..Default::default()
    };
    // The faulted run itself succeeds — corruption strikes the bytes at
    // rest, exactly like real bit rot.
    let first = run(&make_plan(), &opts, &EventLog::new()).unwrap();
    assert_eq!(first.outputs["j"].as_str(), "payload");

    opts.faults = None;
    opts.resume = true;
    let events = EventLog::new();
    let second = run(&make_plan(), &opts, &events).unwrap();
    assert_eq!(second.outputs["j"].as_str(), "payload", "{class}: job re-ran cleanly");
    assert_eq!(second.skipped, 0, "{class}: rotted sole generation cannot be resumed");
    assert!(
        events
            .events()
            .iter()
            .any(|e| matches!(e, Event::CheckpointQuarantined { job, .. } if job == "j")),
        "{class}: the rotted file was quarantined"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn corrupt_torn_leaves_only_a_temp_fragment_that_resume_quarantines() {
    let dir = tmp_dir("torn");
    let make_plan = || {
        Plan::new(vec![JobSpec::new(
            "j",
            Vec::<String>::new(),
            |_inp: &orchestrator::JobInputs<String>| Ok("torn-payload".to_string()),
        )])
        .unwrap()
    };
    let mut opts = RunOptions {
        checkpoint_dir: Some(dir.clone()),
        run_key: "cfg".into(),
        faults: Some(FaultPlan::parse("j:corrupt-torn:1").unwrap()),
        ..Default::default()
    };
    let first = run(&make_plan(), &opts, &EventLog::new()).unwrap();
    assert_eq!(first.outputs["j"].as_str(), "torn-payload", "run completes from memory");
    assert!(
        Manifest::load(&dir).unwrap().entry("j").is_none(),
        "torn write never produced a referenced payload object"
    );

    opts.faults = None;
    opts.resume = true;
    let events = EventLog::new();
    let second = run(&make_plan(), &opts, &events).unwrap();
    assert_eq!(second.outputs["j"].as_str(), "torn-payload");
    let stray_quarantined = events.events().iter().any(|e| {
        matches!(e, Event::CheckpointQuarantined { job, reason, .. }
                 if job.is_empty() && reason.contains("torn temp file"))
    });
    assert!(stray_quarantined, "the fragment was quarantined on resume");
    // Nothing non-quarantined with `.tmp.` may survive recovery.
    let leftovers: Vec<String> = std::fs::read_dir(dir.join("objects"))
        .unwrap()
        .filter_map(|e| e.ok())
        .map(|e| e.file_name().to_string_lossy().into_owned())
        .filter(|n| n.contains(".tmp.") && !n.ends_with(".quarantine"))
        .collect();
    assert!(leftovers.is_empty(), "unquarantined fragments remain: {leftovers:?}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn run_failure_wakes_a_backoff_instead_of_sleeping_it_out() {
    // `fatal` exhausts its retries at ~0.5 s; `lagging` fails at ~1.2 s
    // and enters what would be a 2 s backoff — which must abort at once
    // because the run is already dead. An uninterruptible sleep would
    // hold the run hostage for the full backoff.
    let plan = Plan::new(vec![
        JobSpec::new("fatal", Vec::<String>::new(), |_inp: &orchestrator::JobInputs<u64>| {
            Err("permanently broken".to_string())
        }),
        JobSpec::new("lagging", Vec::<String>::new(), |inp: &orchestrator::JobInputs<u64>| {
            let _ = inp.cancel.wait_timeout(Duration::from_millis(1200));
            Err("late failure".to_string())
        }),
    ])
    .unwrap();
    let events = EventLog::new();
    let opts = RunOptions {
        workers: 2,
        max_retries: 1,
        backoff: Duration::from_millis(500),
        ..Default::default()
    };
    let (result, elapsed_secs, _cpu) = orchestrator::measure(|| run(&plan, &opts, &events));
    assert!(result.is_err());
    assert!(elapsed_secs < 10.0, "run wound down promptly, took {elapsed_secs:.2}s");
    let abandoned = events.events().iter().any(|e| {
        matches!(e, Event::JobFailed { job, error, .. }
                 if job == "lagging" && error.contains("retry abandoned"))
    });
    assert!(abandoned, "the lagging job's backoff was interrupted: {:?}", events.events());
}

/// Runs a coordinated sim plan with `workers` real `netshare_worker`
/// subprocesses (the binary Cargo built for this test run), returning
/// the report, the job→digest map, and the worker exit statuses.
fn coordinated_subprocess_run(
    dir: &Path,
    faults: Option<&str>,
    workers: usize,
    events: &EventLog,
) -> (orchestrator::CoordReport, Vec<Option<i32>>) {
    let plan = sim_plan(3, 256, 42);
    let opts = CoordOptions {
        run_key: "kw".into(),
        faults: faults.map(|spec| FaultPlan::parse(spec).unwrap()),
        // Heartbeat staleness is the SIGKILL detector for a worker that
        // dies *mid-execution*; connection loss covers death before it.
        watchdog: WatchdogOptions {
            max_job_secs: None,
            heartbeat_timeout_secs: Some(2.0),
            poll: Duration::from_millis(20),
        },
        ..Default::default()
    };
    let coord = Coordinator::bind("127.0.0.1:0").unwrap();
    let addr = coord.local_addr().to_string();
    let mut children: Vec<std::process::Child> = (0..workers)
        .map(|w| {
            std::process::Command::new(env!("CARGO_BIN_EXE_netshare_worker"))
                .arg(&addr)
                .arg("--worker-id")
                .arg(format!("proc-w{w}"))
                .stderr(std::process::Stdio::null())
                .spawn()
                .unwrap()
        })
        .collect();
    let report = coord.serve(dir, &plan, &opts, events).unwrap();
    let statuses = children.iter_mut().map(|c| c.wait().unwrap().code()).collect();
    (report, statuses)
}

#[test]
fn kill_worker_fault_requeues_and_artifacts_match_an_uninterrupted_run() {
    // Baseline: two worker processes, no faults.
    let base_dir = tmp_dir("kw-base");
    let (base, base_statuses) =
        coordinated_subprocess_run(&base_dir, None, 2, &EventLog::new());
    assert!(
        base_statuses.iter().all(|s| *s == Some(0)),
        "unfaulted workers drain cleanly: {base_statuses:?}"
    );

    // Faulted: the worker assigned chunk-2's first attempt aborts the
    // whole process (simulated SIGKILL) before executing it.
    let kill_dir = tmp_dir("kw-kill");
    let events = EventLog::new();
    let (killed, kill_statuses) =
        coordinated_subprocess_run(&kill_dir, Some("chunk-2:kill-worker:1"), 2, &events);
    assert!(
        kill_statuses.iter().any(|s| *s != Some(0)),
        "one worker died by abort: {kill_statuses:?}"
    );

    // The dead worker's job was requeued and announced.
    assert!(killed.requeues >= 1);
    let all = events.events();
    assert!(
        all.iter().any(|e| matches!(
            e,
            Event::WorkerLost { requeued, .. } if requeued.contains(&"chunk-2".to_string())
        )),
        "WorkerLost names the requeued job: {all:?}"
    );

    // Recovery equivalence: digests AND object bytes match the
    // uninterrupted run, bitwise.
    assert_eq!(base.digests, killed.digests);
    let base_store = FsStore::open(&base_dir).unwrap();
    let kill_store = FsStore::open(&kill_dir).unwrap();
    for digest in base.digests.values() {
        assert_eq!(
            base_store.get(*digest).unwrap(),
            kill_store.get(*digest).unwrap(),
            "object {digest:#018x} differs"
        );
    }
    let base_objects: BTreeMap<u64, ()> =
        base_store.list().unwrap().into_iter().map(|d| (d, ())).collect();
    let kill_objects: BTreeMap<u64, ()> =
        kill_store.list().unwrap().into_iter().map(|d| (d, ())).collect();
    assert_eq!(base_objects, kill_objects, "same object population");

    std::fs::remove_dir_all(&base_dir).ok();
    std::fs::remove_dir_all(&kill_dir).ok();
}

#[test]
fn malformed_specs_name_the_grammar() {
    // `chunk-1:reset` puts a wire class after a job: the phases mismatch.
    let specs = ["chunk-1:bogus", "chunk-1:reset", "j:", ":1", "j:0", "seed=x", "j:panic:1:2"];
    for bad in specs {
        let err = FaultPlan::parse(bad).unwrap_err();
        assert!(
            err.contains("expected") && err.contains(bad),
            "error must cite the item and the grammar: {err}"
        );
    }
}

/// Every spec `scripts/ci.sh` and the test suites arm parses, and its
/// canonical form names the same faults.
#[test]
fn specs_in_use_parse_to_their_canonical_form() {
    for (spec, canonical) in [
        ("chunk-1:1", "chunk-1:transient:1;seed=1852142707"),
        ("chunk-1:99", "chunk-1:transient:99;seed=1852142707"),
        ("chunk-1:panic:1", "chunk-1:panic:1;seed=1852142707"),
        ("chunk-1:hang:1", "chunk-1:hang:1;seed=1852142707"),
        ("chunk-2:kill-worker:1", "chunk-2:kill-worker:1;seed=1852142707"),
        ("chunk-1:kill-coord:1", "chunk-1:kill-coord:1;seed=1852142707"),
        ("j:corrupt-torn:1", "j:corrupt-torn:1;seed=1852142707"),
        ("reset:1;seed=11", "reset:1;seed=11"),
        ("stall:4;garbage-bytes:1;seed=11", "stall:4;garbage-bytes:1;seed=11"),
        ("reset:20;seed=3", "reset:20;seed=3"),
    ] {
        assert_eq!(FaultPlan::parse(spec).unwrap().to_string(), canonical, "{spec}");
    }
}

/// One item of a well-formed spec: a seed, a wire entry, a legacy job
/// entry, or a job entry with a class and an optional count.
fn item() -> impl Strategy<Value = String> {
    const WIRE: [&str; 4] = ["torn-frame", "reset", "stall", "garbage-bytes"];
    const JOB: [&str; 9] = [
        "panic", "transient", "hang", "slow-io", "corrupt-flip", "corrupt-truncate",
        "corrupt-torn", "kill-worker", "kill-coord",
    ];
    const JOBS: [&str; 5] = ["pretrain", "chunk-1", "chunk-12", "j", "a b"];
    (0u8..5, any::<u64>(), 1u32..1000, 0usize..9, 0usize..5).prop_map(
        |(form, seed, count, class, job)| match form {
            0 => format!("seed={seed}"),
            1 => format!("{}:{count}", WIRE[class % 4]),
            2 => format!("{}:{count}", JOBS[job]),
            3 => format!("{}:{}", JOBS[job], JOB[class]),
            _ => format!(" {}:{}:{count} ", JOBS[job], JOB[class]),
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The canonical `Display` that `CoordHello` carries to workers
    /// parses back to the same plan.
    #[test]
    fn a_plan_round_trips_through_its_canonical_form(
        items in prop::collection::vec(item(), 1..8)
    ) {
        let plan = FaultPlan::parse(&items.join(";")).unwrap();
        prop_assert_eq!(FaultPlan::parse(&plan.to_string()).unwrap(), plan);
    }
}
