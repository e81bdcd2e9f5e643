//! Checkpoint-corruption recovery: every way a generation can rot on
//! disk must resolve to (a) the bad file quarantined, (b) a
//! `CheckpointQuarantined` event, and (c) the job recovered from the
//! next-newest verified generation — never a crash, never silent trust.
//! The second half runs one damage table through both engines and
//! requires the same aftermath from each.

use orchestrator::coord::{CoordOptions, Coordinator, DistJob, DistPlan};
use orchestrator::worker::{run_worker, ExecutorRegistry, WorkerOptions};
use orchestrator::{
    fnv1a64, run, CancelToken, Event, EventLog, FsStore, JobSpec, Manifest, ObjectStore, Plan,
    RunOptions,
};
use std::collections::{BTreeMap, BTreeSet};
use std::path::{Path, PathBuf};
use std::time::Duration;

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("orch-corrupt-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn one_job_plan(payload: &'static str) -> Plan<'static, String> {
    Plan::new(vec![JobSpec::new(
        "a",
        Vec::<String>::new(),
        move |_inp: &orchestrator::JobInputs<String>| Ok(payload.to_string()),
    )])
    .unwrap()
}

fn opts(dir: &Path, resume: bool) -> RunOptions {
    RunOptions {
        checkpoint_dir: Some(dir.to_path_buf()),
        resume,
        run_key: "cfg".into(),
        ..Default::default()
    }
}

/// Runs job `a` twice (same run_key, no resume) so the manifest holds two
/// verified generations: gen1 = "v1", gen2 = "v2".
fn two_generations(tag: &str) -> PathBuf {
    let dir = tmp_dir(tag);
    run(&one_job_plan("v1"), &opts(&dir, false), &EventLog::new()).unwrap();
    run(&one_job_plan("v2"), &opts(&dir, false), &EventLog::new()).unwrap();
    let m = Manifest::load(&dir).unwrap();
    assert_eq!(m.generations("a").len(), 2, "setup: two generations recorded");
    dir
}

/// Resumes in `dir`; the job body yields "v3" so an (unexpected) re-run
/// is distinguishable from recovery. Returns (payload, quarantine events).
fn resume_and_recover(dir: &Path) -> (String, Vec<Event>) {
    let events = EventLog::new();
    let report = run(&one_job_plan("v3"), &opts(dir, true), &events).unwrap();
    let quarantines = events
        .events()
        .into_iter()
        .filter(|e| matches!(e, Event::CheckpointQuarantined { .. }))
        .collect();
    (report.outputs["a"].as_ref().clone(), quarantines)
}

/// Resolves the payload object of job `a`'s generation `generation` via
/// the manifest — with content addressing, the path is derived from the
/// recorded digest, so it must be captured *before* recovery drops the
/// entry.
fn gen_file(dir: &Path, generation: u64) -> PathBuf {
    let m = Manifest::load(dir).unwrap();
    let entry = m
        .generations("a")
        .into_iter()
        .find(|e| e.generation == generation)
        .unwrap_or_else(|| panic!("generation {generation} not in manifest"));
    dir.join(&entry.file)
}

#[test]
fn truncated_payload_falls_back_to_previous_generation() {
    let dir = two_generations("truncate");
    let g2 = gen_file(&dir, 2);
    let bytes = std::fs::read(&g2).unwrap();
    std::fs::write(&g2, &bytes[..bytes.len() / 2]).unwrap();

    let (payload, quarantines) = resume_and_recover(&dir);
    assert_eq!(payload, "v1", "recovered from gen1, no re-run");
    assert!(!g2.exists());
    assert!(g2.with_extension("json.quarantine").exists());
    assert!(matches!(
        &quarantines[..],
        [Event::CheckpointQuarantined { job, reason, .. }]
            if job == "a" && reason.contains("digest mismatch")
    ));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn flipped_byte_falls_back_to_previous_generation() {
    let dir = two_generations("bitflip");
    let g2 = gen_file(&dir, 2);
    let mut bytes = std::fs::read(&g2).unwrap();
    bytes[0] ^= 0x01;
    std::fs::write(&g2, &bytes).unwrap();

    let (payload, quarantines) = resume_and_recover(&dir);
    assert_eq!(payload, "v1");
    assert_eq!(quarantines.len(), 1);
    assert!(g2.with_extension("json.quarantine").exists());
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn invalid_utf8_payload_is_quarantined_not_forgotten() {
    // A flip can land on a byte that breaks UTF-8 decoding entirely; that
    // is still corruption (quarantine + event), never a missing file.
    let dir = two_generations("utf8");
    let g2 = gen_file(&dir, 2);
    let mut bytes = std::fs::read(&g2).unwrap();
    bytes[0] = 0xFF;
    std::fs::write(&g2, &bytes).unwrap();

    let (payload, quarantines) = resume_and_recover(&dir);
    assert_eq!(payload, "v1");
    assert!(g2.with_extension("json.quarantine").exists());
    assert!(matches!(
        &quarantines[..],
        [Event::CheckpointQuarantined { reason, .. }] if reason.contains("digest mismatch")
    ));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn unparseable_json_with_matching_digest_is_quarantined_too() {
    let dir = two_generations("badjson");
    // Digest verification alone would catch a rewrite, so forge the
    // manifest digest to match the garbage: the JSON parse is the last
    // line of defense and must quarantine just the same.
    let garbage = b"{ not json";
    let g2 = gen_file(&dir, 2);
    std::fs::write(&g2, garbage).unwrap();
    let mut m = Manifest::load(&dir).unwrap();
    for e in m.jobs.iter_mut() {
        if e.id == "a" && e.generation == 2 {
            e.digest = fnv1a64(garbage);
        }
    }
    m.store(&dir).unwrap();

    let (payload, quarantines) = resume_and_recover(&dir);
    assert_eq!(payload, "v1");
    assert!(matches!(
        &quarantines[..],
        [Event::CheckpointQuarantined { reason, .. }] if reason.contains("unparseable")
    ));
    assert!(g2.with_extension("json.quarantine").exists());
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn torn_temp_file_is_quarantined_without_disturbing_recovery() {
    let dir = two_generations("torn");
    // A kill between temp-write and rename leaves exactly this behind.
    let stray = dir.join("objects").join(".deadbeefdeadbeef.json.tmp.4242");
    std::fs::write(&stray, b"\"v3").unwrap();

    let (payload, quarantines) = resume_and_recover(&dir);
    assert_eq!(payload, "v2", "intact newest generation still wins");
    assert!(!stray.exists());
    assert!(stray.with_file_name(".deadbeefdeadbeef.json.tmp.4242.quarantine").exists());
    assert!(matches!(
        &quarantines[..],
        [Event::CheckpointQuarantined { job, reason, .. }]
            if job.is_empty() && reason.contains("torn temp file")
    ));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn missing_generation_file_is_skipped_silently() {
    let dir = two_generations("missing");
    std::fs::remove_file(gen_file(&dir, 2)).unwrap();

    let (payload, quarantines) = resume_and_recover(&dir);
    assert_eq!(payload, "v1", "fell back past the missing file");
    assert!(quarantines.is_empty(), "nothing on disk, nothing to quarantine");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn resume_after_quarantine_matches_an_uninterrupted_run() {
    let dir = two_generations("equiv");
    let g2 = gen_file(&dir, 2);
    let bytes = std::fs::read(&g2).unwrap();
    std::fs::write(&g2, &bytes[..3]).unwrap();

    // First resume quarantines gen2 and recovers gen1; a second resume
    // must then be indistinguishable from a run that never saw
    // corruption: same payload, no further quarantine churn.
    let (first, _) = resume_and_recover(&dir);
    let (second, quarantines) = resume_and_recover(&dir);
    assert_eq!(first, second);
    assert_eq!(second, "v1");
    assert!(quarantines.is_empty(), "quarantine happens exactly once");
    std::fs::remove_dir_all(&dir).ok();
}

// ---- both engines recover the same damaged directory the same way ------
//
// One two-job plan (`b` consumes `a`) with `String` payloads, executed by
// the thread pool through closures and by the coordinator through an
// executor that emits the same JSON text — so both engines address the
// same objects and a run directory written by one is a valid resume
// target for the other.

/// What a job computes from its own `text` and its dependencies' values
/// (by dependency id), in either engine.
fn body(text: &str, inputs: &BTreeMap<String, String>) -> String {
    let inputs: Vec<String> = inputs.iter().map(|(id, v)| format!("{id}={v}")).collect();
    format!("{text}({})", inputs.join(","))
}

/// `(id, dependency ids)` of the parity plans; `Texts` gives each job's
/// own contribution so reruns can change a payload.
type Shape = [(&'static str, &'static [&'static str])];
type Texts = BTreeMap<String, String>;

fn texts(pairs: &[(&str, &str)]) -> Texts {
    pairs.iter().map(|(id, t)| (id.to_string(), t.to_string())).collect()
}

/// `(final digests, jobs executed, events)` of one run.
type RunOutcome = (BTreeMap<String, u64>, BTreeSet<String>, Vec<Event>);

fn pool_run(dir: &Path, shape: &Shape, texts: &Texts, opts: &RunOptions) -> RunOutcome {
    let jobs = shape
        .iter()
        .map(|&(id, deps)| {
            JobSpec::new(id, deps.iter().copied(), move |inp: &orchestrator::JobInputs<String>| {
                let inputs: Result<BTreeMap<String, String>, String> =
                    deps.iter().map(|d| Ok((d.to_string(), inp.dep(d)?.clone()))).collect();
                Ok(body(&texts[id], &inputs?))
            })
        })
        .collect();
    let events = EventLog::new();
    let opts = RunOptions { checkpoint_dir: Some(dir.to_path_buf()), ..opts.clone() };
    let report = run(&Plan::new(jobs).unwrap(), &opts, &events).unwrap();
    let digests = report
        .outputs
        .iter()
        .map(|(id, p)| (id.clone(), fnv1a64(serde_json::to_string(p.as_ref()).unwrap().as_bytes())))
        .collect();
    let executed =
        report.stats.iter().filter(|(_, s)| !s.skipped).map(|(id, _)| id.clone()).collect();
    (digests, executed, events.events())
}

fn coord_run(dir: &Path, shape: &Shape, texts: &Texts, opts: &CoordOptions) -> RunOutcome {
    let jobs = shape
        .iter()
        .map(|&(id, deps)| DistJob {
            id: id.into(),
            deps: deps.iter().map(|d| d.to_string()).collect(),
            spec: r#"{"kind":"parity"}"#.into(),
        })
        .collect();
    let plan = DistPlan::new(jobs).unwrap();
    let mut registry = ExecutorRegistry::new();
    let texts = texts.clone();
    registry.register(
        "parity",
        Box::new(move |ctx| {
            // Dependency payloads are the JSON text the pool would have
            // deserialized into `String`s; the result is the JSON text
            // the pool would have serialized.
            let inputs: Result<BTreeMap<String, String>, String> = ctx
                .deps
                .iter()
                .map(|(d, json)| Ok((d.clone(), serde_json::from_str(json).map_err(|e| e.to_string())?)))
                .collect();
            serde_json::to_string(&body(&texts[ctx.job], &inputs?)).map_err(|e| e.to_string())
        }),
    );
    let events = EventLog::new();
    let coord = Coordinator::bind("127.0.0.1:0").unwrap();
    let addr = coord.local_addr().to_string();
    // A resume that skips every job returns before the worker ever
    // connects; the token stops it dialing a coordinator that is gone.
    let run_over = CancelToken::new();
    let report = std::thread::scope(|s| {
        let worker = s.spawn(|| {
            let wopts = WorkerOptions {
                worker_id: "w0".into(),
                connect_timeout: Duration::from_secs(5),
                ..WorkerOptions::default()
            };
            run_worker(&addr, &wopts, &registry, &run_over)
        });
        let report = coord.serve(dir, &plan, opts, &events).unwrap();
        run_over.cancel("run over");
        let _ = worker.join().unwrap();
        report
    });
    let executed =
        report.stats.iter().filter(|(_, s)| !s.skipped).map(|(id, _)| id.clone()).collect();
    (report.digests, executed, events.events())
}

/// Everything recovery leaves behind that the two engines must agree on.
#[derive(Debug, PartialEq)]
struct Aftermath {
    digests: BTreeMap<String, u64>,
    executed: BTreeSet<String>,
    /// `*.quarantine` files, relative to the run directory.
    quarantined: BTreeSet<String>,
    /// `(file, reason)` of every `CheckpointQuarantined`, sorted.
    announced: Vec<(String, String)>,
    /// Surviving `job@generation → digest` refs, sorted.
    refs: Vec<(String, u64, u64)>,
}

fn aftermath(dir: &Path, (digests, executed, events): RunOutcome) -> Aftermath {
    let mut quarantined = BTreeSet::new();
    for sub in ["", "objects", "jobs"] {
        let Ok(rd) = std::fs::read_dir(dir.join(sub)) else { continue };
        for e in rd.flatten() {
            let name = e.file_name().to_string_lossy().into_owned();
            if name.ends_with(".quarantine") {
                quarantined.insert(format!("{sub}/{name}"));
            }
        }
    }
    let mut announced: Vec<(String, String)> = events
        .into_iter()
        .filter_map(|e| match e {
            Event::CheckpointQuarantined { file, reason, .. } => Some((file, reason)),
            _ => None,
        })
        .collect();
    announced.sort();
    let mut refs: Vec<(String, u64, u64)> = Manifest::load(dir)
        .unwrap()
        .jobs
        .into_iter()
        .map(|e| (e.id, e.generation, e.digest))
        .collect();
    refs.sort();
    Aftermath { digests, executed, quarantined, announced, refs }
}

fn copy_dir(from: &Path, to: &Path) {
    std::fs::create_dir_all(to).unwrap();
    for e in std::fs::read_dir(from).unwrap().flatten() {
        if e.path().is_dir() {
            copy_dir(&e.path(), &to.join(e.file_name()));
        } else {
            std::fs::copy(e.path(), to.join(e.file_name())).unwrap();
        }
    }
}

const CHAIN: &Shape = &[("b", &["a"]), ("a", &[])];

/// One way a run directory can be damaged between a run and its resume.
struct Damage {
    name: &'static str,
    /// Mutates the directory; gets the object file of job `a`.
    apply: fn(&Path, &Path),
    /// Run key of the resume (the directory was written under "cfg").
    resume_key: &'static str,
    /// Jobs the resume must re-execute.
    reruns: &'static [&'static str],
    /// `reason` fragments of the quarantines it must announce.
    reasons: &'static [&'static str],
}

const DAMAGE: &[Damage] = &[
    Damage {
        name: "flipped-byte",
        apply: |_, obj| {
            let mut bytes = std::fs::read(obj).unwrap();
            bytes[1] ^= 0x01;
            std::fs::write(obj, bytes).unwrap();
        },
        resume_key: "cfg",
        reruns: &["a"],
        reasons: &["digest mismatch"],
    },
    Damage {
        name: "truncation",
        apply: |_, obj| {
            let bytes = std::fs::read(obj).unwrap();
            std::fs::write(obj, &bytes[..bytes.len() / 2]).unwrap();
        },
        resume_key: "cfg",
        reruns: &["a"],
        reasons: &["digest mismatch"],
    },
    Damage {
        // Same length, and the manifest digest forged to match: only the
        // UTF-8 check stands between these bytes and a resumed payload.
        name: "invalid-utf8",
        apply: |dir, obj| {
            let mut bytes = std::fs::read(obj).unwrap();
            bytes[1] = 0xFF;
            std::fs::write(obj, &bytes).unwrap();
            let mut m = Manifest::load(dir).unwrap();
            for e in m.jobs.iter_mut().filter(|e| e.id == "a") {
                e.digest = fnv1a64(&bytes);
            }
            m.store(dir).unwrap();
        },
        resume_key: "cfg",
        reruns: &["a"],
        reasons: &["unparseable payload: invalid UTF-8"],
    },
    Damage {
        name: "missing-object",
        apply: |_, obj| std::fs::remove_file(obj).unwrap(),
        resume_key: "cfg",
        reruns: &["a"],
        reasons: &[],
    },
    Damage {
        name: "stray-temp-files",
        apply: |dir, _| {
            std::fs::create_dir_all(dir.join("jobs")).unwrap();
            for at in [".manifest.json.tmp.77", "objects/.00000000000000aa.json.tmp.77", "jobs/.a.json.tmp.77"] {
                std::fs::write(dir.join(at), b"\"hal").unwrap();
            }
        },
        resume_key: "cfg",
        reruns: &[],
        reasons: &["torn temp file", "torn temp file", "torn temp file"],
    },
    Damage {
        name: "wrong-run-key",
        apply: |_, _| {},
        resume_key: "other-cfg",
        reruns: &["a", "b"],
        reasons: &[],
    },
];

#[test]
fn both_engines_recover_the_same_damaged_directory_the_same_way() {
    let texts = texts(&[("a", "A"), ("b", "B")]);
    let clean = tmp_dir("parity-clean");
    let fresh = RunOptions { run_key: "cfg".into(), ..Default::default() };
    let (baseline, ran, _) = pool_run(&clean, CHAIN, &texts, &fresh);
    assert_eq!(ran.len(), 2);
    let obj_a = Manifest::load(&clean).unwrap().entry("a").unwrap().file.clone();

    for damage in DAMAGE {
        let via_pool = tmp_dir(&format!("parity-{}-pool", damage.name));
        let via_coord = tmp_dir(&format!("parity-{}-coord", damage.name));
        for dir in [&via_pool, &via_coord] {
            copy_dir(&clean, dir);
            (damage.apply)(dir, &dir.join(&obj_a));
        }
        let key = damage.resume_key.to_string();
        let pool = aftermath(
            &via_pool,
            pool_run(
                &via_pool,
                CHAIN,
                &texts,
                &RunOptions { run_key: key.clone(), resume: true, ..Default::default() },
            ),
        );
        let coord = aftermath(
            &via_coord,
            coord_run(
                &via_coord,
                CHAIN,
                &texts,
                &CoordOptions { run_key: key, resume: true, ..Default::default() },
            ),
        );
        assert_eq!(pool, coord, "{}: the engines disagree", damage.name);

        let reruns: BTreeSet<String> = damage.reruns.iter().map(|s| s.to_string()).collect();
        assert_eq!(pool.executed, reruns, "{}", damage.name);
        assert_eq!(pool.digests, baseline, "{}: the run ends on the baseline digests", damage.name);
        assert_eq!(pool.announced.len(), damage.reasons.len(), "{}: {:?}", damage.name, pool.announced);
        for ((_, reason), want) in pool.announced.iter().zip(damage.reasons) {
            assert!(reason.contains(want), "{}: {reason}", damage.name);
        }
        assert_eq!(pool.quarantined.len(), damage.reasons.len(), "{}", damage.name);
        for dir in [&via_pool, &via_coord] {
            std::fs::remove_dir_all(dir).ok();
        }
    }
    std::fs::remove_dir_all(&clean).ok();
}

#[test]
fn neither_engine_deletes_a_pruned_object_another_ref_still_needs() {
    // `x` and `y` produce the same bytes, so one object backs both refs.
    // With one kept generation, every completion prunes its predecessor;
    // the shared object may only disappear with its *last* reference.
    const PAIR: &Shape = &[("x", &[]), ("y", &[])];
    type Engine = fn(&Path, &Texts) -> BTreeMap<String, u64>;
    let engines: [(&str, Engine); 2] = [
        ("pool", |dir, texts| {
            let opts = RunOptions { run_key: "cfg".into(), keep_generations: 1, ..Default::default() };
            pool_run(dir, PAIR, texts, &opts).0
        }),
        ("coord", |dir, texts| {
            let opts = CoordOptions { run_key: "cfg".into(), keep_generations: 1, ..Default::default() };
            coord_run(dir, PAIR, texts, &opts).0
        }),
    ];
    for (name, engine) in engines {
        let dir = tmp_dir(&format!("shared-{name}"));
        let store = FsStore::open(&dir).unwrap();
        let first = engine(&dir, &texts(&[("x", "same"), ("y", "same")]));
        let shared = first["x"];
        assert_eq!(first["y"], shared, "{name}: identical payloads share an address");

        let second = engine(&dir, &texts(&[("x", "changed"), ("y", "same")]));
        assert_ne!(second["x"], shared);
        assert!(store.get(shared).is_ok(), "{name}: `y` still references the pruned object");

        engine(&dir, &texts(&[("x", "changed"), ("y", "moved-on")]));
        assert!(!store.contains(shared), "{name}: the last reference is gone, so is the object");
        let live: BTreeSet<u64> =
            Manifest::load(&dir).unwrap().jobs.iter().map(|e| e.digest).collect();
        assert_eq!(store.list().unwrap(), live.into_iter().collect::<Vec<_>>(), "{name}");
        std::fs::remove_dir_all(&dir).ok();
    }
}

#[test]
fn pool_announces_two_corrupt_jobs_in_plan_order_at_any_worker_count() {
    // Payloads are probed on the run's workers, side by side; what they
    // find is applied serially, so which thread finishes first must never
    // show in the event stream. Six independent jobs, the second and the
    // fifth damaged.
    const WIDE: &Shape = &[("j0", &[]), ("j1", &[]), ("j2", &[]), ("j3", &[]), ("j4", &[]), ("j5", &[])];
    let texts = texts(&[("j0", "a"), ("j1", "b"), ("j2", "c"), ("j3", "d"), ("j4", "e"), ("j5", "f")]);
    let clean = tmp_dir("order-clean");
    let fresh = RunOptions { run_key: "cfg".into(), ..Default::default() };
    let (baseline, _, _) = pool_run(&clean, WIDE, &texts, &fresh);
    let manifest = Manifest::load(&clean).unwrap();

    let mut streams = Vec::new();
    for workers in [1usize, 4] {
        let dir = tmp_dir(&format!("order-w{workers}"));
        copy_dir(&clean, &dir);
        for id in ["j4", "j1"] {
            let obj = dir.join(&manifest.entry(id).unwrap().file);
            let mut bytes = std::fs::read(&obj).unwrap();
            bytes[1] ^= 0x01;
            std::fs::write(&obj, bytes).unwrap();
        }
        let opts = RunOptions { run_key: "cfg".into(), resume: true, workers, ..Default::default() };
        let (digests, executed, events) = pool_run(&dir, WIDE, &texts, &opts);
        assert_eq!(digests, baseline, "workers = {workers}");
        assert_eq!(executed, ["j1", "j4"].iter().map(|s| s.to_string()).collect(), "workers = {workers}");
        // Everything up to the first job start: quarantines, RunStarted,
        // then the skips — all of it in plan order.
        let prefix: Vec<String> = events
            .iter()
            .take_while(|e| !matches!(e, Event::JobStarted { .. }))
            .map(|e| match e {
                Event::CheckpointQuarantined { job, .. } => format!("quarantined {job}"),
                Event::RunStarted { resumed, .. } => format!("started, {resumed} resumed"),
                Event::JobSkipped { job } => format!("skipped {job}"),
                other => format!("{other:?}"),
            })
            .collect();
        assert_eq!(
            prefix,
            [
                "quarantined j1", "quarantined j4", "started, 4 resumed",
                "skipped j0", "skipped j2", "skipped j3", "skipped j5",
            ],
            "workers = {workers}"
        );
        streams.push(prefix);
        std::fs::remove_dir_all(&dir).ok();
    }
    assert_eq!(streams[0], streams[1]);
    std::fs::remove_dir_all(&clean).ok();
}
