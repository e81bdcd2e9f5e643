//! Coordinator/worker integration: multi-worker runs over the local
//! control socket must produce the same verified artifacts as the
//! in-process pool — including dedup across reruns, resume skips, and
//! hard failure when a job's retries are spent.

use orchestrator::coord::{CoordOptions, Coordinator, DistJob, DistPlan};
use orchestrator::worker::{run_worker, ExecutorRegistry, WorkerOptions};
use orchestrator::{
    sim_plan, CancelToken, Event, EventLog, FaultPlan, FsStore, Journal, JournalRecord, Manifest,
    ObjectStore,
};
use std::path::{Path, PathBuf};
use std::time::Duration;

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("orch-coord-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Serves `plan` from `dir` with `workers` in-thread claim loops, the way
/// `netshare_cli coord` does with processes.
fn run_coordinated(
    dir: &Path,
    plan: &DistPlan,
    opts: &CoordOptions,
    workers: usize,
    events: &EventLog,
) -> Result<orchestrator::CoordReport, orchestrator::OrchestratorError> {
    let coord = Coordinator::bind("127.0.0.1:0").unwrap();
    let addr = coord.local_addr().to_string();
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..workers)
            .map(|w| {
                let addr = addr.clone();
                s.spawn(move || {
                    let wopts = WorkerOptions {
                        worker_id: format!("w{w}"),
                        connect_timeout: Duration::from_secs(5),
                        ..WorkerOptions::default()
                    };
                    run_worker(&addr, &wopts, &ExecutorRegistry::builtin(), &CancelToken::new())
                })
            })
            .collect();
        let report = coord.serve(dir, plan, opts, events);
        for h in handles {
            let _ = h.join().unwrap();
        }
        report
    })
}

#[test]
fn two_workers_complete_a_sim_plan_with_verified_store_objects() {
    let dir = tmp_dir("basic");
    let plan = sim_plan(4, 128, 7);
    let events = EventLog::new();
    let report = run_coordinated(&dir, &plan, &CoordOptions::default(), 2, &events).unwrap();

    assert_eq!(report.digests.len(), 5, "pretrain + 4 chunks");
    assert_eq!(report.completed, 5);
    assert_eq!(report.skipped, 0);
    assert!(report.workers_seen >= 1, "at least one worker served the run");

    // Every reported digest resolves through the store to the payload the
    // report carries, and the manifest references it.
    let store = FsStore::open(&dir).unwrap();
    let manifest = Manifest::load(&dir).unwrap();
    for (job, digest) in &report.digests {
        let bytes = store.get(*digest).unwrap();
        assert_eq!(String::from_utf8(bytes).unwrap(), report.payloads[job]);
        assert_eq!(manifest.entry(job).unwrap().digest, *digest);
        assert!(report.payloads[job].contains(&format!("\"job\":\"{job}\"")));
    }

    let all = events.events();
    assert!(all.iter().any(|e| matches!(e, Event::WorkerJoined { .. })));
    assert!(
        all.iter().any(|e| matches!(e, Event::RunFinished { completed: 5, .. })),
        "{all:?}"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn rerunning_the_same_plan_stores_identical_artifacts_once() {
    let dir = tmp_dir("dedup");
    let plan = sim_plan(3, 64, 11);
    let opts = CoordOptions::default();
    let first = run_coordinated(&dir, &plan, &opts, 2, &EventLog::new()).unwrap();
    let store = FsStore::open(&dir).unwrap();
    let objects_after_first = store.list().unwrap().len();

    // Second run, no resume: every job re-executes, produces bitwise
    // identical payloads, and the content store deduplicates them.
    let second = run_coordinated(&dir, &plan, &opts, 2, &EventLog::new()).unwrap();
    assert_eq!(first.digests, second.digests, "deterministic outputs");
    assert_eq!(second.skipped, 0, "no resume: everything re-ran");
    assert_eq!(
        store.list().unwrap().len(),
        objects_after_first,
        "identical checkpoints across two runs are stored once"
    );

    // Both runs' manifest generations reference the same objects.
    let manifest = Manifest::load(&dir).unwrap();
    for job in first.digests.keys() {
        let gens = manifest.generations(job);
        assert_eq!(gens.len(), 2, "one generation per run");
        assert_eq!(gens[0].digest, gens[1].digest);
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn resume_skips_verified_jobs_without_touching_workers() {
    let dir = tmp_dir("resume");
    let plan = sim_plan(2, 64, 3);
    let opts = CoordOptions { run_key: "sim".into(), ..Default::default() };
    let first = run_coordinated(&dir, &plan, &opts, 2, &EventLog::new()).unwrap();

    let opts = CoordOptions { run_key: "sim".into(), resume: true, ..Default::default() };
    let events = EventLog::new();
    let second = run_coordinated(&dir, &plan, &opts, 1, &events).unwrap();
    assert_eq!(second.skipped, 3, "all jobs satisfied from the manifest");
    assert_eq!(second.completed, 0);
    assert_eq!(second.digests, first.digests);
    assert_eq!(
        events.events().iter().filter(|e| matches!(e, Event::JobSkipped { .. })).count(),
        3
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn exhausted_retries_fail_the_run_and_disconnect_workers() {
    let dir = tmp_dir("fail");
    let plan = sim_plan(2, 32, 5);
    let opts = CoordOptions {
        faults: Some(FaultPlan::parse("chunk-1:transient:9").unwrap()),
        max_retries: 1,
        ..Default::default()
    };
    let events = EventLog::new();
    let err = run_coordinated(&dir, &plan, &opts, 2, &events).unwrap_err();
    assert!(err.to_string().contains("chunk-1"), "{err}");
    assert!(
        events.events().iter().any(|e| matches!(
            e,
            Event::JobFailed { job, .. } if job == "chunk-1"
        )),
        "{:?}",
        events.events()
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn worker_side_faults_requeue_through_the_coordinator() {
    let dir = tmp_dir("retry");
    let plan = sim_plan(2, 32, 9);
    // chunk-1's first attempt fails worker-side; the coordinator requeues
    // and the second attempt (any worker) completes.
    let opts = CoordOptions {
        faults: Some(FaultPlan::parse("chunk-1:transient:1").unwrap()),
        ..Default::default()
    };
    let events = EventLog::new();
    let report = run_coordinated(&dir, &plan, &opts, 2, &events).unwrap();
    assert_eq!(report.completed, 3);
    assert!(report.requeues >= 1, "the injected failure was requeued");
    assert!(
        events.events().iter().any(|e| matches!(
            e,
            Event::JobRetried { job, error, .. }
                if job == "chunk-1" && error.contains("injected transient")
        )),
        "{:?}",
        events.events()
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn corrupt_result_objects_are_caught_by_coordinator_verification() {
    for class in ["corrupt-flip", "corrupt-truncate"] {
        let dir = tmp_dir(class);
        let plan = sim_plan(1, 32, 13);
        // The worker completes chunk-1 but rots the stored object; the
        // coordinator's digest re-read must reject it and requeue, and the
        // healthy second attempt's put() heals the rotten object in place.
        let opts = CoordOptions {
            faults: Some(FaultPlan::parse(&format!("chunk-1:{class}:1")).unwrap()),
            ..Default::default()
        };
        let events = EventLog::new();
        let report = run_coordinated(&dir, &plan, &opts, 1, &events).unwrap();
        assert_eq!(report.completed, 2, "{class}");
        let store = FsStore::open(&dir).unwrap();
        for digest in report.digests.values() {
            store.get(*digest).expect("every recorded object verifies");
        }
        assert!(
            events.events().iter().any(|e| matches!(
                e,
                Event::JobRetried { job, error, .. }
                    if job == "chunk-1" && error.contains("failed verification")
            )),
            "{class}: {:?}",
            events.events()
        );
        std::fs::remove_dir_all(&dir).ok();
    }
}

#[test]
fn version_mismatch_is_rejected_at_the_handshake() {
    use orchestrator::coord::{read_ctrl, send_ctrl, CtrlFrame};
    use orchestrator::wire;

    let dir = tmp_dir("version");
    let plan = sim_plan(1, 16, 1);
    let coord = Coordinator::bind("127.0.0.1:0").unwrap();
    let addr = coord.local_addr();
    let handle = std::thread::spawn(move || {
        let token = CancelToken::new();
        let mut sock = std::net::TcpStream::connect(addr).unwrap();
        wire::configure(&sock).unwrap();
        send_ctrl(
            &mut sock,
            &CtrlFrame::WorkerHello { version: 999, worker: "time-traveler".into() },
            &token,
        )
        .unwrap();
        let reply = read_ctrl(&mut sock, &token).unwrap();
        assert!(
            matches!(reply, CtrlFrame::Error { ref code, .. } if code == "unsupported-version"),
            "{reply:?}"
        );
        // A conforming worker then drains the run so serve() returns.
        let wopts = WorkerOptions {
            worker_id: "ok".into(),
            connect_timeout: Duration::from_secs(5),
            ..WorkerOptions::default()
        };
        run_worker(&addr.to_string(), &wopts, &ExecutorRegistry::builtin(), &token).unwrap()
    });
    let report = coord
        .serve(&dir, &plan, &CoordOptions::default(), &EventLog::new())
        .unwrap();
    assert_eq!(report.completed, 2);
    handle.join().unwrap();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn a_stale_corrupt_complete_does_not_requeue_a_job_its_sender_lost() {
    use orchestrator::coord::{read_ctrl, send_ctrl, CtrlFrame};
    use orchestrator::{wire, WatchdogOptions};

    let dir = tmp_dir("stale-complete");
    let plan = sim_plan(0, 16, 1); // one job: `pretrain`
    // Heartbeat staleness rather than a wall deadline: it trips A (which
    // beats once, then goes quiet) and can never trip B (which never
    // beats), however slowly this test is scheduled.
    let opts = CoordOptions {
        watchdog: WatchdogOptions {
            heartbeat_timeout_secs: Some(0.15),
            poll: Duration::from_millis(10),
            ..WatchdogOptions::default()
        },
        // Ends as soon as both sockets below are dropped.
        drain: Duration::from_secs(10),
        ..Default::default()
    };
    let events = EventLog::new();
    let coord = Coordinator::bind("127.0.0.1:0").unwrap();
    let addr = coord.local_addr();
    let token = CancelToken::new();
    let join = |name: &str| {
        let mut sock = std::net::TcpStream::connect(addr).unwrap();
        wire::configure(&sock).unwrap();
        let hello = CtrlFrame::WorkerHello { version: 1, worker: name.into() };
        send_ctrl(&mut sock, &hello, &token).unwrap();
        let reply = read_ctrl(&mut sock, &token).unwrap();
        assert!(matches!(reply, CtrlFrame::CoordHello { .. }), "{reply:?}");
        sock
    };
    let claim = |sock: &mut std::net::TcpStream| {
        send_ctrl(sock, &CtrlFrame::Claim, &token).unwrap();
        read_ctrl(sock, &token).unwrap()
    };
    let complete = |sock: &mut std::net::TcpStream, digest: u64| {
        let frame = CtrlFrame::Complete {
            job: "pretrain".into(),
            digest,
            wall_seconds: 0.0,
            cpu_seconds: 0.0,
        };
        send_ctrl(sock, &frame, &token).unwrap();
    };

    let report = std::thread::scope(|s| {
        let serve = s.spawn(|| coord.serve(&dir, &plan, &opts, &events));

        // A takes the job, beats once, and goes quiet until the watchdog
        // trips its attempt and the sweep requeues the job.
        let mut a = join("a");
        let first = claim(&mut a);
        assert!(matches!(first, CtrlFrame::Assign { attempt: 0, .. }), "{first:?}");
        send_ctrl(&mut a, &CtrlFrame::Heartbeat { job: "pretrain".into(), steps: 1 }, &token)
            .unwrap();

        // B polls until the requeued job is handed to it.
        let mut b = join("b");
        let second = loop {
            match claim(&mut b) {
                CtrlFrame::Wait { .. } => std::thread::sleep(Duration::from_millis(10)),
                other => break other,
            }
        };
        assert!(matches!(second, CtrlFrame::Assign { attempt: 1, .. }), "{second:?}");

        // A's late Complete names an object the store does not hold. Its
        // next Claim is answered after that Complete was handled: the job
        // is B's, so there is nothing to hand out — not a third Assign.
        complete(&mut a, 0xdead_beef);
        let after = claim(&mut a);
        assert!(matches!(after, CtrlFrame::Wait { .. }), "{after:?}");

        // B's result finishes the run.
        let digest = FsStore::open(&dir).unwrap().put(b"b's payload").unwrap().digest;
        complete(&mut b, digest);
        assert_eq!(claim(&mut b), CtrlFrame::Drained);
        drop((a, b));
        serve.join().unwrap().unwrap()
    });

    assert_eq!(report.payloads["pretrain"], "b's payload");
    assert_eq!(report.requeues, 1, "the trip, and nothing else");
    let retried: Vec<_> = events
        .events()
        .into_iter()
        .filter(|e| matches!(e, Event::JobRetried { .. }))
        .collect();
    assert!(
        matches!(&retried[..], [Event::JobRetried { error, .. }] if error.contains("heartbeat stale")),
        "{retried:?}"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn dist_plan_spec_validation_matches_the_closure_path() {
    let job = |id: &str, deps: &[&str]| DistJob {
        id: id.into(),
        deps: deps.iter().map(|s| s.to_string()).collect(),
        spec: r#"{"kind":"sim-chunk","seed":0,"steps":1}"#.into(),
    };
    assert!(DistPlan::new(vec![job("", &[])]).is_err(), "empty id");
    assert!(DistPlan::new(vec![job("a", &["a"])]).is_err(), "self-dep");
    assert!(DistPlan::new(vec![
        job("pretrain", &[]),
        job("chunk-1", &["pretrain"]),
        job("chunk-2", &["pretrain"]),
    ])
    .is_ok());
}

#[test]
fn journal_replay_heals_a_completion_the_manifest_missed() {
    let dir = tmp_dir("journal-heal");
    let plan = sim_plan(2, 64, 11);
    let opts = CoordOptions { run_key: "sim".into(), ..Default::default() };
    let first = run_coordinated(&dir, &plan, &opts, 2, &EventLog::new()).unwrap();

    // Simulate a coordinator killed inside the journal→manifest window:
    // the store object and the journal's `Completed` line survived, but
    // the manifest entry for one job was never written.
    let mut manifest = Manifest::load(&dir).unwrap();
    manifest.jobs.retain(|e| e.id != "chunk-1");
    manifest.store(&dir).unwrap();

    let opts = CoordOptions { run_key: "sim".into(), resume: true, ..Default::default() };
    let events = EventLog::new();
    let second = run_coordinated(&dir, &plan, &opts, 1, &events).unwrap();
    assert_eq!(second.digests, first.digests, "healed run is bitwise identical");
    assert_eq!(second.skipped, 3, "manifest recovery plus journal healing skip everything");
    assert!(
        events.events().iter().any(|e| matches!(
            e,
            Event::JournalRecovered { job, digest }
                if job == "chunk-1" && *digest == first.digests["chunk-1"]
        )),
        "healing is announced"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn a_fresh_run_resets_the_journal_and_records_the_schedule() {
    let dir = tmp_dir("journal-fresh");
    let plan = sim_plan(1, 32, 5);
    let opts = CoordOptions { run_key: "a".into(), ..Default::default() };
    run_coordinated(&dir, &plan, &opts, 1, &EventLog::new()).unwrap();
    let records = Journal::replay(&dir, "a");
    for job in ["pretrain", "chunk-1"] {
        assert!(
            records.iter().any(
                |r| matches!(r, JournalRecord::Assigned { job: j, .. } if j == job)
            ),
            "{job} assigned"
        );
        assert!(
            records.iter().any(
                |r| matches!(r, JournalRecord::Completed { job: j, .. } if j == job)
            ),
            "{job} completed"
        );
    }

    // A later non-resume run (any key) truncates the history.
    let opts = CoordOptions { run_key: "b".into(), ..Default::default() };
    run_coordinated(&dir, &plan, &opts, 1, &EventLog::new()).unwrap();
    assert!(Journal::replay(&dir, "a").is_empty(), "fresh runs reset the journal");
    assert!(!Journal::replay(&dir, "b").is_empty());
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn a_children_first_diamond_gets_every_dependency_digest() {
    // `sim_plan` is a single-root fan-out declared root-first. Here the
    // join is declared before the jobs it consumes and has two of them,
    // so every `Assign.deps` entry must come from the plan's resolved
    // graph, not from declaration luck. The executor reports the digest
    // of each dependency payload the worker fetched for it by address.
    let dir = tmp_dir("diamond");
    let job = |id: &str, deps: &[&str]| DistJob {
        id: id.into(),
        deps: deps.iter().map(|s| s.to_string()).collect(),
        spec: r#"{"kind":"dep-probe"}"#.into(),
    };
    let plan = DistPlan::new(vec![
        job("join", &["right", "left"]),
        job("left", &["root"]),
        job("right", &["root"]),
        job("root", &[]),
    ])
    .unwrap();
    let mut registry = ExecutorRegistry::new();
    registry.register(
        "dep-probe",
        Box::new(|ctx| {
            let seen: Vec<String> = ctx
                .deps
                .iter()
                .map(|(id, text)| format!("{id}={:016x}", orchestrator::fnv1a64(text.as_bytes())))
                .collect();
            Ok(format!("{}<-[{}]", ctx.job, seen.join(",")))
        }),
    );

    let coord = Coordinator::bind("127.0.0.1:0").unwrap();
    let addr = coord.local_addr().to_string();
    let report = std::thread::scope(|s| {
        let worker = s.spawn(|| {
            let wopts = WorkerOptions {
                worker_id: "w0".into(),
                connect_timeout: Duration::from_secs(5),
                ..WorkerOptions::default()
            };
            run_worker(&addr, &wopts, &registry, &CancelToken::new())
        });
        let report = coord.serve(&dir, &plan, &CoordOptions::default(), &EventLog::new());
        worker.join().unwrap().unwrap();
        report.unwrap()
    });

    let d = |job: &str| format!("{job}={:016x}", report.digests[job]);
    assert_eq!(report.payloads["root"], "root<-[]");
    assert_eq!(report.payloads["left"], format!("left<-[{}]", d("root")));
    assert_eq!(report.payloads["right"], format!("right<-[{}]", d("root")));
    assert_eq!(report.payloads["join"], format!("join<-[{},{}]", d("left"), d("right")));
    std::fs::remove_dir_all(&dir).ok();
}
