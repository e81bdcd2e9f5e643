//! Write-ahead journal for coordinated runs.
//!
//! The manifest is the coordinator's durable index, but it is written
//! *after* a result is accepted — a coordinator killed between storing a
//! payload and recording the manifest entry would strand verified work.
//! The journal closes that window: every scheduling decision (assign,
//! complete, requeue) is appended as one JSONL line to `journal.jsonl`
//! next to the manifest, and a `Completed` line is flushed **before**
//! the manifest records the generation. On `--resume`, replaying the
//! journal heals any completion the manifest missed — after re-reading
//! the object from the store and re-verifying its digest, the same
//! trust boundary every other recovery path crosses.
//!
//! The journal carries only ids and digests, never payload bytes; the
//! content store remains the sole payload channel. Records are scoped
//! by `Started { run_key }` markers so a directory reused for a
//! different configuration cannot leak completions across runs
//! (replay also re-verifies each digest, so stale records are inert
//! even without the marker).
//!
//! lint: io-boundary — appends to and replays the journal file.

use crate::manifest::atomic_write;
use serde::{Deserialize, Serialize};
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::Mutex;

/// The journal's file name inside a run directory.
pub const JOURNAL_FILE: &str = "journal.jsonl";

/// One journal line. Variant and field names are part of the frozen
/// on-disk schema (DESIGN.md §13), append-only like the event schema.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum JournalRecord {
    /// A `serve` call began under `run_key`; later records belong to it.
    Started {
        /// Configuration fingerprint of the run.
        run_key: String,
    },
    /// A job attempt was handed to a worker.
    Assigned {
        /// Job id.
        job: String,
        /// Zero-based attempt number.
        attempt: u32,
        /// Worker the attempt went to.
        worker: String,
    },
    /// A verified result was accepted; the payload sits in the store at
    /// `digest`. Durable *before* the manifest generation is recorded.
    Completed {
        /// Job id.
        job: String,
        /// Content address of the verified payload.
        digest: u64,
    },
    /// An attempt was abandoned (worker loss, watchdog trip, `Fail`).
    Requeued {
        /// Job id.
        job: String,
        /// Why the attempt was abandoned.
        error: String,
    },
}

/// An append-only JSONL journal rooted in a run directory.
pub struct Journal {
    path: PathBuf,
    file: Mutex<std::fs::File>,
}

impl Journal {
    /// Opens (creating if absent) the journal of a run directory.
    pub fn open(dir: &Path) -> std::io::Result<Journal> {
        let path = dir.join(JOURNAL_FILE);
        let file = std::fs::OpenOptions::new().create(true).append(true).open(&path)?;
        Ok(Journal { path, file: Mutex::new(file) })
    }

    /// The journal file's path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Appends one record and flushes it to disk (write-ahead semantics:
    /// when this returns, the record survives a crash of this process).
    pub fn append(&self, record: &JournalRecord) -> std::io::Result<()> {
        let line = serde_json::to_string(record)
            .map_err(|e| std::io::Error::other(format!("encode journal record: {e}")))?;
        let mut file = crate::lock(&self.file); // lint: lock-order(orchestrator.journal)
        file.write_all(line.as_bytes())?;
        file.write_all(b"\n")?;
        file.flush()?;
        file.sync_data()
    }

    /// Replays every record of the newest `run_key` segment, oldest
    /// first. A torn trailing line (the crash interrupted an append) is
    /// ignored; a torn line *mid-file* ends the replay at that point,
    /// since later records may depend on the lost one. Lines are decoded
    /// one at a time, so a torn multi-byte character costs only its line.
    pub fn replay(dir: &Path, run_key: &str) -> Vec<JournalRecord> {
        let Ok(bytes) = std::fs::read(dir.join(JOURNAL_FILE)) else {
            return Vec::new();
        };
        let mut segment = Vec::new();
        let mut matching = false;
        for line in bytes.split(|&b| b == b'\n') {
            let Ok(line) = std::str::from_utf8(line).map(str::trim) else { break };
            if line.is_empty() {
                continue;
            }
            let Ok(record) = serde_json::from_str::<JournalRecord>(line) else {
                break;
            };
            if let JournalRecord::Started { run_key: key } = &record {
                matching = key == run_key;
                segment.clear();
                continue;
            }
            if matching {
                segment.push(record);
            }
        }
        segment
    }

    /// Truncates the journal (fresh, non-resume runs discard history so
    /// replay never walks records of runs the manifest also forgot).
    pub fn reset(dir: &Path) -> std::io::Result<()> {
        atomic_write(&dir.join(JOURNAL_FILE), b"")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("journal-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn records_round_trip_through_json() {
        let records = vec![
            JournalRecord::Started { run_key: "coord-sim-c4-s256-r17".into() },
            JournalRecord::Assigned { job: "chunk-1".into(), attempt: 0, worker: "w0".into() },
            JournalRecord::Completed { job: "chunk-1".into(), digest: u64::MAX - 7 },
            JournalRecord::Requeued { job: "chunk-2".into(), error: "worker lost".into() },
        ];
        for r in records {
            let line = serde_json::to_string(&r).unwrap();
            let back: JournalRecord = serde_json::from_str(&line).unwrap();
            assert_eq!(back, r, "{line}");
        }
    }

    #[test]
    fn append_then_replay_returns_the_matching_segment_in_order() {
        let dir = tmp_dir("replay");
        let j = Journal::open(&dir).unwrap();
        j.append(&JournalRecord::Started { run_key: "old".into() }).unwrap();
        j.append(&JournalRecord::Completed { job: "stale".into(), digest: 1 }).unwrap();
        j.append(&JournalRecord::Started { run_key: "new".into() }).unwrap();
        j.append(&JournalRecord::Assigned { job: "a".into(), attempt: 0, worker: "w".into() })
            .unwrap();
        j.append(&JournalRecord::Completed { job: "a".into(), digest: 9 }).unwrap();
        let got = Journal::replay(&dir, "new");
        assert_eq!(
            got,
            vec![
                JournalRecord::Assigned { job: "a".into(), attempt: 0, worker: "w".into() },
                JournalRecord::Completed { job: "a".into(), digest: 9 },
            ],
            "old segment and markers excluded"
        );
        assert!(Journal::replay(&dir, "other").is_empty(), "unknown key yields nothing");
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
