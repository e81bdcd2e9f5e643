//! Hostile inputs for the loaders that seed a resumed run: a manifest or
//! a journal cut short at any byte, or with junk spliced in anywhere, must
//! never panic. An unreadable manifest means a fresh start; a journal
//! replays every record before the damage.

use orchestrator::{EventLog, Journal, JournalRecord, Manifest, ManifestEntry};
use proptest::prelude::*;
use std::path::{Path, PathBuf};

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("orch-loaders-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn manifest() -> Manifest {
    let mut m = Manifest::new("cfg-\u{e9}\u{1F600}");
    for (i, id) in ["pretrain", "chunk-1", "chunk-\"2\""].iter().enumerate() {
        let digest = 0xfeed_0000_0000_0000 | i as u64;
        m.record(ManifestEntry {
            id: id.to_string(),
            generation: 1 + i as u64,
            file: Manifest::object_file(digest),
            digest,
            attempts: 2,
            wall_seconds: 0.25,
            cpu_seconds: 1e-3,
        });
    }
    m
}

fn records() -> Vec<JournalRecord> {
    // Multi-byte characters after the first record: a cut inside one must
    // not cost the records before it.
    vec![
        JournalRecord::Assigned { job: "pretrain".into(), attempt: 0, worker: "w0".into() },
        JournalRecord::Completed { job: "pretrain".into(), digest: u64::MAX },
        JournalRecord::Requeued { job: "chunk-1".into(), error: "lost \"w\u{1F600}\"\n".into() },
        JournalRecord::Assigned { job: "chunk-\u{e9}".into(), attempt: 1, worker: "w1".into() },
        JournalRecord::Completed { job: "chunk-1".into(), digest: 7 },
    ]
}

/// Writes `records` after a `Started { run_key: "k" }` marker; returns the
/// file's bytes and the offset at which each record's line ends.
fn write_journal(dir: &Path, records: &[JournalRecord]) -> (Vec<u8>, Vec<usize>) {
    Journal::reset(dir).unwrap();
    let journal = Journal::open(dir).unwrap();
    journal.append(&JournalRecord::Started { run_key: "k".into() }).unwrap();
    let mut ends = Vec::new();
    for r in records {
        journal.append(r).unwrap();
        ends.push(std::fs::metadata(journal.path()).unwrap().len() as usize);
    }
    (std::fs::read(journal.path()).unwrap(), ends)
}

/// What a resume under `key` must make of the manifest now in `dir`.
fn check_open(dir: &Path, key: &str) {
    let loaded = Manifest::load(dir);
    let opened = Manifest::open(dir, key, &EventLog::new());
    match loaded.filter(|m| m.run_key == key) {
        Some(m) => assert_eq!(opened, m),
        None => assert_eq!(opened, Manifest::new(key), "an unreadable manifest starts fresh"),
    }
}

/// Fragments that steer a splice into the parsers' corners: escapes
/// (the surrogate pair ones included), structure, numbers, bad UTF-8.
const JUNK: &[&[u8]] = &[
    b"\\ud800", b"\\u0000", b"\\udc00", b"\\udbff\\ue000", b"\\", b"\"", b"{", b"}", b"[", b"]",
    b",", b":", b"1e999", b"-", b"18446744073709551616", b"null", b"\n", b" ", b"\xff", b"\xc3",
];

fn splice(bytes: &[u8], at: u16, cut: usize, junk: &[usize], raw: &[u8]) -> (usize, Vec<u8>) {
    let at = at as usize % (bytes.len() + 1);
    let end = (at + cut).min(bytes.len());
    let mut out = bytes[..at].to_vec();
    junk.iter().for_each(|&j| out.extend_from_slice(JUNK[j % JUNK.len()]));
    out.extend_from_slice(raw);
    out.extend_from_slice(&bytes[end..]);
    (at, out)
}

#[test]
fn a_manifest_cut_at_any_byte_means_a_fresh_start() {
    let dir = tmp_dir("manifest-cut");
    let m = manifest();
    m.store(&dir).unwrap();
    let full = std::fs::read(Manifest::path(&dir)).unwrap();
    for cut in 0..full.len() {
        std::fs::write(Manifest::path(&dir), &full[..cut]).unwrap();
        assert_eq!(Manifest::load(&dir), None, "cut at {cut}");
        check_open(&dir, &m.run_key);
    }
    std::fs::write(Manifest::path(&dir), &full).unwrap();
    assert_eq!(Manifest::load(&dir), Some(m.clone()));
    check_open(&dir, &m.run_key);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn an_old_schema_or_a_bad_surrogate_manifest_is_not_loaded() {
    let dir = tmp_dir("manifest-old");
    let mut old = manifest();
    old.version = 1;
    old.store(&dir).unwrap();
    assert!(Manifest::load(&dir).is_none());
    let text = r#"{"version":3,"run_key":"\ud800\u0000","jobs":[]}"#;
    std::fs::write(Manifest::path(&dir), text).unwrap();
    assert!(Manifest::load(&dir).is_none());
    check_open(&dir, "k");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn a_journal_cut_at_any_byte_replays_every_whole_record_before_the_cut() {
    let dir = tmp_dir("journal-cut");
    let records = records();
    let (full, ends) = write_journal(&dir, &records);
    for cut in 0..=full.len() {
        std::fs::write(dir.join("journal.jsonl"), &full[..cut]).unwrap();
        // A record whose JSON is whole replays even without its newline.
        let whole = ends.iter().filter(|&&end| end - 1 <= cut).count();
        assert_eq!(Journal::replay(&dir, "k"), records[..whole], "cut at {cut}");
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn reset_truncates_the_journal_and_keeps_it_appendable() {
    let dir = tmp_dir("journal-reset");
    assert!(Journal::replay(&dir, "k").is_empty(), "no journal file, nothing to replay");
    write_journal(&dir, &records());
    Journal::reset(&dir).unwrap();
    assert!(Journal::replay(&dir, "k").is_empty());
    Journal::open(&dir).unwrap().append(&JournalRecord::Started { run_key: "k".into() }).unwrap();
    assert_eq!(std::fs::read_to_string(dir.join("journal.jsonl")).unwrap().lines().count(), 1);
    std::fs::remove_dir_all(&dir).ok();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn junk_spliced_into_a_manifest_never_panics(
        at in any::<u16>(),
        cut in 0usize..8,
        junk in prop::collection::vec(any::<usize>(), 0..4),
        raw in prop::collection::vec(any::<u8>(), 0..4),
    ) {
        let dir = tmp_dir("manifest-junk");
        let m = manifest();
        m.store(&dir).unwrap();
        let full = std::fs::read(Manifest::path(&dir)).unwrap();
        let (_, spliced) = splice(&full, at, cut, &junk, &raw);
        std::fs::write(Manifest::path(&dir), &spliced).unwrap();
        check_open(&dir, &m.run_key);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn junk_spliced_into_a_journal_keeps_every_record_before_it(
        at in any::<u16>(),
        cut in 0usize..8,
        junk in prop::collection::vec(any::<usize>(), 0..4),
        raw in prop::collection::vec(any::<u8>(), 0..4),
    ) {
        let dir = tmp_dir("journal-junk");
        let records = records();
        let (full, ends) = write_journal(&dir, &records);
        let (at, spliced) = splice(&full, at, cut, &junk, &raw);
        std::fs::write(dir.join("journal.jsonl"), &spliced).unwrap();
        let replayed = Journal::replay(&dir, "k");
        // Lines wholly before the splice are untouched (the newline ending
        // a line sits at `end - 1`).
        let intact = ends.iter().filter(|&&end| end <= at).count();
        if full[..at].contains(&b'\n') {
            prop_assert!(replayed.len() >= intact, "{replayed:?}");
            prop_assert_eq!(&replayed[..intact], &records[..intact]);
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}
