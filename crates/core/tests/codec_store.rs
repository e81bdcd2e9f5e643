//! The fitted public codec as a stored object of the run directory: a
//! resumed fit loads it instead of training, every way the load can miss
//! costs a training run and never a byte of output, and `gc` keeps it.
//!
//! The `netshare.codec.*` counters are process-global, so the tests of
//! this binary take turns.
#![cfg(feature = "telemetry")]

use netshare::config::NetShareConfig;
use netshare::pipeline::NetShare;
use netshare::{codec_ref_digest, OrchestratorEvent as Event};
use nettrace::{FlowTrace, PacketTrace};
use orchestrator::{FsStore, ObjectStore};
use std::path::{Path, PathBuf};
use std::sync::Mutex;
use trace_synth::{generate_flows as synth_flows, generate_packets as synth_packets, DatasetKind};

static TURN: Mutex<()> = Mutex::new(());

fn tiny_cfg(dir: Option<&Path>, resume: bool) -> NetShareConfig {
    let mut cfg = NetShareConfig::fast();
    cfg.n_chunks = 2;
    cfg.seed_steps = 8;
    cfg.finetune_steps = 3;
    cfg.ip2vec_public_packets = 800;
    cfg.max_seq_len = 4;
    cfg.seed = 42;
    cfg.orchestrator.checkpoint_dir = dir.map(Path::to_path_buf);
    cfg.orchestrator.resume = resume;
    cfg
}

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("netshare-codec-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn real() -> FlowTrace {
    synth_flows(DatasetKind::Ugr16, 400, 17)
}

/// `(trained, loaded, load_misses)` so far in this process.
fn counters() -> [u64; 3] {
    ["trained", "loaded", "load_misses"]
        .map(|n| telemetry::metrics::counter(&format!("netshare.codec.{n}")).get())
}

/// One fit + generation, with what it did to the codec counters.
fn fit(real: &FlowTrace, cfg: &NetShareConfig) -> (FlowTrace, Vec<Event>, [u64; 3]) {
    let before = counters();
    let mut model = NetShare::fit_flows(real, cfg).unwrap();
    let after = counters();
    let trace = model.generate_flows(150);
    (trace, model.events().to_vec(), [0, 1, 2].map(|i| after[i] - before[i]))
}

const TRAINED: [u64; 3] = [1, 0, 0];
const LOADED: [u64; 3] = [0, 1, 0];
const REFIT: [u64; 3] = [1, 0, 1];

fn quarantined(dir: &Path) -> usize {
    std::fs::read_dir(dir.join("objects"))
        .unwrap()
        .flatten()
        .filter(|e| e.file_name().to_string_lossy().ends_with(".quarantine"))
        .count()
}

fn codec_object(dir: &Path) -> PathBuf {
    let digest = codec_ref_digest(dir).expect("the fit left a codec ref");
    FsStore::open(dir).unwrap().object_path(digest)
}

#[test]
fn a_resumed_fit_loads_the_codec_and_generates_the_same_trace() {
    let _turn = TURN.lock().unwrap_or_else(|e| e.into_inner());
    let real = real();
    let (reference, _, did) = fit(&real, &tiny_cfg(None, false));
    assert_eq!(did, TRAINED, "no directory: trained, nothing to load");

    let dir = tmp_dir("resume");
    for workers in [1usize, 2] {
        let mut cfg = tiny_cfg(Some(&dir), false);
        cfg.orchestrator.workers = workers;
        let (trace, _, did) = fit(&real, &cfg);
        assert_eq!(did, TRAINED, "a fit that does not resume trains, then stores");
        assert_eq!(trace, reference, "workers = {workers}");
        assert!(codec_object(&dir).exists());

        cfg.orchestrator.resume = true;
        let (trace, events, did) = fit(&real, &cfg);
        assert_eq!(did, LOADED, "a resume over a complete directory trains no dictionary");
        assert_eq!(trace, reference, "workers = {workers}");
        assert!(events.iter().any(|e| matches!(e, Event::JobSkipped { .. })));
        assert!(!events.iter().any(|e| matches!(e, Event::JobStarted { .. })), "no job ran");
        let spans: Vec<&str> = events
            .iter()
            .filter_map(|e| match e {
                Event::Span { path, .. } if path.contains("codec/") => Some(path.as_str()),
                _ => None,
            })
            .collect();
        assert_eq!(spans, ["fit_flows/codec/load"], "the fit says where its dictionary came from");
    }

    // Only the step budget changes: the models are void, the dictionary is not.
    let mut cfg = tiny_cfg(Some(&dir), true);
    cfg.finetune_steps += 1;
    let (_, events, did) = fit(&real, &cfg);
    assert_eq!(did, LOADED, "the codec is not keyed by run_key");
    assert!(events.iter().any(|e| matches!(e, Event::RunStarted { resumed: 0, .. })));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn every_miss_refits_and_generates_the_same_trace() {
    let _turn = TURN.lock().unwrap_or_else(|e| e.into_inner());
    let real = real();
    let (reference, _, _) = fit(&real, &tiny_cfg(None, false));

    // Ref absent: a cold directory.
    let dir = tmp_dir("miss");
    let (trace, _, did) = fit(&real, &tiny_cfg(Some(&dir), true));
    assert_eq!((trace, did), (reference.clone(), REFIT), "cold directory");
    assert_eq!(fit(&real, &tiny_cfg(Some(&dir), true)).2, LOADED, "and the refit was stored");

    // The key differs in each of its three inputs: the old object is
    // another configuration's, whatever it holds.
    for (what, change) in [
        ("public corpus size", (|c| c.ip2vec_public_packets += 100) as fn(&mut NetShareConfig)),
        ("embedding width", |c| c.embed_dim += 1),
        ("seed", |c| c.seed += 1),
    ] {
        let mut cfg = tiny_cfg(Some(&dir), true);
        change(&mut cfg);
        let (trace, _, did) = fit(&real, &cfg);
        assert_eq!(did, REFIT, "{what}");
        cfg.orchestrator.checkpoint_dir = None;
        assert_eq!(trace, fit(&real, &cfg).0, "{what}");
        assert_eq!(quarantined(&dir), 0, "{what}: a foreign key is not damage");
    }

    // From here on the directory holds this configuration's codec again.
    assert_eq!(fit(&real, &tiny_cfg(Some(&dir), true)).2, REFIT);

    // Object deleted.
    std::fs::remove_file(codec_object(&dir)).unwrap();
    let (trace, _, did) = fit(&real, &tiny_cfg(Some(&dir), true));
    assert_eq!((trace, did), (reference.clone(), REFIT), "object deleted");
    assert_eq!(quarantined(&dir), 0, "nothing on disk, nothing to quarantine");

    // One byte flipped: quarantined and announced like any payload.
    let object = codec_object(&dir);
    let mut bytes = std::fs::read(&object).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x01;
    std::fs::write(&object, bytes).unwrap();
    let (trace, events, did) = fit(&real, &tiny_cfg(Some(&dir), true));
    assert_eq!((trace, did), (reference.clone(), REFIT), "byte flipped");
    assert_eq!(quarantined(&dir), 1, "the damaged object is kept as evidence");
    assert!(events.iter().any(|e| matches!(e, Event::CheckpointQuarantined { job, reason, .. }
        if job.is_empty() && reason.contains("corrupt"))));
    assert!(object.exists(), "and the refit put a clean one back");

    // Truncated JSON whose digest the ref vouches for: only the decode
    // stands between these bytes and the fit.
    let text = std::fs::read_to_string(&object).unwrap();
    let store = FsStore::open(&dir).unwrap();
    let forged = store.put(&text.as_bytes()[..text.len() / 2]).unwrap().digest;
    let codec_ref = std::fs::read_to_string(dir.join("codec.json")).unwrap();
    let genuine = codec_ref_digest(&dir).unwrap();
    let forged_ref = codec_ref.replace(&genuine.to_string(), &forged.to_string());
    std::fs::write(dir.join("codec.json"), forged_ref).unwrap();
    assert_eq!(codec_ref_digest(&dir), Some(forged));
    let (trace, _, did) = fit(&real, &tiny_cfg(Some(&dir), true));
    assert_eq!((trace, did), (reference.clone(), REFIT), "truncated JSON");
    assert_eq!(quarantined(&dir), 2);
    assert_eq!(codec_ref_digest(&dir), Some(genuine), "the ref names the refitted codec again");

    // A ref that is not JSON at all.
    std::fs::write(dir.join("codec.json"), b"{ not json").unwrap();
    assert_eq!(fit(&real, &tiny_cfg(Some(&dir), true)).2, REFIT, "garbled ref");
    assert_eq!(fit(&real, &tiny_cfg(Some(&dir), true)).2, LOADED);
    std::fs::remove_dir_all(&dir).ok();
}

/// Hostile refs: every strict prefix of a genuine `codec.json`, and
/// seeded splices of junk into it. Reading a ref never panics, a prefix
/// is never a ref, and a resumed fit over a sample of them either loads
/// the genuine codec or refits, generating the reference trace either way.
#[test]
fn hostile_codec_refs_load_or_refit_and_generate_the_same_trace() {
    let _turn = TURN.lock().unwrap_or_else(|e| e.into_inner());
    let real = real();
    let (reference, _, _) = fit(&real, &tiny_cfg(None, false));
    let dir = tmp_dir("hostile");
    assert_eq!(fit(&real, &tiny_cfg(Some(&dir), false)).2, TRAINED);
    let genuine_ref = std::fs::read(dir.join("codec.json")).unwrap();
    let genuine = codec_ref_digest(&dir).unwrap();

    let mut cases: Vec<Vec<u8>> = (0..genuine_ref.len()).map(|n| genuine_ref[..n].to_vec()).collect();
    // Two splices by hand: whitespace between tokens (still the genuine
    // ref) and the digest's last digit changed (a ref to no object).
    let text = String::from_utf8(genuine_ref.clone()).unwrap();
    let digits = genuine.to_string();
    let (head, last) = digits.split_at(digits.len() - 1);
    let other = format!("{head}{}", (last.parse::<u8>().unwrap() + 1) % 10);
    cases.push(text.replacen('{', "{ \n", 1).into_bytes());
    cases.push(text.replace(&digits, &other).into_bytes());
    // A run of junk replaces a run of the ref: structure bytes, digits,
    // whitespace, letters and a byte that is not UTF-8.
    let junk = b"{}[]\":,-0123456789 \t\\ekx\xff";
    let mut state = 0x2545_f491_4f6c_dd1d_u64;
    let mut next = |bound: usize| {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        (state % bound as u64) as usize
    };
    for _ in 0..96 {
        let at = next(genuine_ref.len());
        let cut = next(4).min(genuine_ref.len() - at);
        let mut case = genuine_ref[..at].to_vec();
        case.extend((0..1 + next(3)).map(|_| junk[next(junk.len())]));
        case.extend_from_slice(&genuine_ref[at + cut..]);
        cases.push(case);
    }

    let (mut loads, mut refits) = (0, 0);
    for (i, case) in cases.iter().enumerate() {
        std::fs::write(dir.join("codec.json"), case).unwrap();
        let read = codec_ref_digest(&dir);
        if i < genuine_ref.len() {
            assert_eq!(read, None, "a strict prefix ({i} bytes) is not a ref");
        }
        // Fit over a sample: four prefixes, and the first splices that
        // still name a digest (the likeliest to pass for the genuine ref).
        let sampled = if i < genuine_ref.len() { i % 20 == 7 } else { read.is_some() };
        if !sampled || loads + refits >= 8 {
            continue;
        }
        let (trace, _, did) = fit(&real, &tiny_cfg(Some(&dir), true));
        let case = String::from_utf8_lossy(case);
        if did == LOADED {
            assert_eq!(read, Some(genuine), "only the genuine digest loads: {case}");
            loads += 1;
        } else {
            assert_eq!(did, REFIT, "{case}");
            refits += 1;
        }
        assert_eq!(trace, reference, "{case}");
    }
    assert_eq!((loads, refits), (1, 7), "the whitespace splice loads, the rest refit");
    std::fs::remove_dir_all(&dir).ok();
}

/// The codec text as format 1 wrote it: every `f32` vector an array of
/// bit-pattern integers.
fn format_1(text: &str) -> String {
    let mut out = text.replacen("\"format\":2", "\"format\":1", 1);
    for field in
        ["embeddings", "port_lo", "port_hi", "proto_lo", "proto_hi", "fallback_port", "fallback_proto"]
    {
        let key = format!("\"{field}\":\"");
        let start = out.find(&key).unwrap() + key.len();
        let end = start + out[start..].find('"').unwrap();
        let values = nnet::serialize::F32Bits::decode(&out[start..end]).unwrap();
        let ints: Vec<String> = values.iter().map(|x| x.to_bits().to_string()).collect();
        out = format!("{}[{}]{}", &out[..start - 1], ints.join(","), &out[end + 1..]);
    }
    out
}

#[test]
fn a_ref_to_a_format_1_codec_refits_and_quarantines_nothing() {
    let _turn = TURN.lock().unwrap_or_else(|e| e.into_inner());
    let real = real();
    let (reference, _, _) = fit(&real, &tiny_cfg(None, false));
    let dir = tmp_dir("format1");
    assert_eq!(fit(&real, &tiny_cfg(Some(&dir), false)).2, TRAINED);

    // What the previous build left: its codec object, and a ref naming
    // it under that build's key.
    let store = FsStore::open(&dir).unwrap();
    let genuine = codec_ref_digest(&dir).unwrap();
    let old = format_1(&std::fs::read_to_string(codec_object(&dir)).unwrap());
    assert!(old.contains("\"format\":1") && old.contains("\"port_lo\":["));
    let old_digest = store.put(old.as_bytes()).unwrap().digest;
    let codec_ref = std::fs::read_to_string(dir.join("codec.json")).unwrap();
    let old_ref = codec_ref
        .replacen("codec-v2|", "codec-v1|", 1)
        .replace(&genuine.to_string(), &old_digest.to_string());
    assert!(old_ref.contains("codec-v1|"), "{codec_ref}");
    std::fs::write(dir.join("codec.json"), old_ref).unwrap();

    let (trace, events, did) = fit(&real, &tiny_cfg(Some(&dir), true));
    assert_eq!((trace, did), (reference, REFIT));
    assert_eq!(quarantined(&dir), 0, "another format's codec is not damage");
    assert!(!events.iter().any(|e| matches!(e, Event::CheckpointQuarantined { .. })));
    assert!(store.contains(old_digest), "the old object waits for gc");
    assert_eq!(codec_ref_digest(&dir), Some(genuine), "the ref names the refitted codec");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn gc_keeps_the_codec_object_and_packets_load_it_too() {
    let _turn = TURN.lock().unwrap_or_else(|e| e.into_inner());
    // Packets this time: the codec object is the same kind of thing.
    let real: PacketTrace = synth_packets(DatasetKind::Caida, 400, 17);
    let dir = tmp_dir("gc");
    let generate = |cfg: &NetShareConfig| {
        let before = counters();
        let trace = NetShare::fit_packets(&real, cfg).unwrap().generate_packets(150);
        let after = counters();
        (trace, [0, 1, 2].map(|i| after[i] - before[i]))
    };
    let (reference, did) = generate(&tiny_cfg(Some(&dir), false));
    assert_eq!(did, TRAINED);

    // The codec object is in no manifest entry; `gc` must count the ref.
    let manifest = netshare::RunManifest::load(&dir).unwrap();
    let codec = codec_ref_digest(&dir).unwrap();
    assert!(manifest.jobs.iter().all(|e| e.digest != codec));
    let store = FsStore::open(&dir).unwrap();
    let planted = store.put(b"{\"planted\":\"junk\"}").unwrap().digest;
    let gc = std::process::Command::new(env!("CARGO_BIN_EXE_netshare_cli"))
        .arg("gc")
        .arg(&dir)
        .output()
        .unwrap();
    assert!(gc.status.success(), "{}", String::from_utf8_lossy(&gc.stderr));
    assert_eq!(String::from_utf8_lossy(&gc.stdout).trim(), format!("removed {planted:#018x}"));
    assert!(store.contains(codec));

    let (trace, did) = generate(&tiny_cfg(Some(&dir), true));
    assert_eq!((trace, did), (reference, LOADED), "a resume after gc still loads");
    std::fs::remove_dir_all(&dir).ok();
}
