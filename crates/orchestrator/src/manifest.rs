//! The ref index of the content-addressed store, with generations.
//!
//! Layout of a run directory:
//!
//! ```text
//! <dir>/manifest.json                  completed-job ref index (atomic: tmp + rename)
//! <dir>/objects/<digest>.json          content-addressed payload blobs (see `store`)
//! <dir>/objects/<file>.quarantine      a payload that failed verification
//! <dir>/events.jsonl                   the event stream (append-only)
//! ```
//!
//! Since the store became content-addressed (schema v3), the manifest is
//! a *ref index*: each entry maps `job_id@generation` to the FNV-1a
//! digest of its payload, and the payload lives at
//! `objects/<digest as %016x>.json` — the digest is both the integrity
//! check and the address. An object is live exactly while some entry
//! references its digest; everything else is garbage for
//! `netshare_cli gc` to sweep.
//!
//! The manifest is rewritten after *every* job completion, so a killed run
//! preserves exactly the set of jobs whose payload objects finished their
//! rename — a payload is only ever referenced by the manifest after it is
//! fully on disk. Resume trusts an entry only when (a) the manifest's
//! `run_key` matches the current configuration fingerprint and (b) the
//! payload object's FNV-1a digest matches the recorded one.
//!
//! Each completion appends a new *generation* rather than replacing the
//! previous one; the scheduler keeps the last K verified generations per
//! job (see `RunOptions::keep_generations`). When a load finds a corrupt
//! generation — wrong digest, unparseable JSON, or a torn temp file — the
//! bad file is [`quarantine`]d (atomic rename to `<file>.quarantine`) and
//! recovery falls back to the next-newest verified generation instead of
//! aborting the run.
//!
//! Both engines ([`crate::pool`] and [`crate::coord`]) go through the same
//! three steps here, so the crash-safety rules of a run directory are
//! decided once: [`Manifest::open`] (what is swept, when history is
//! adopted), [`Manifest::recover`] (what is quarantined; its read-only
//! half [`Manifest::probe`] may run for many jobs at once, its writing
//! half [`Manifest::adopt`] is serial), and
//! [`Manifest::commit`] (when a generation becomes visible, when an
//! object may be deleted).

use crate::events::{Event, EventLog};
use crate::store::ObjectStore;
use serde::{Deserialize, Serialize};
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

/// Manifest schema version. Bumped to 2 when entries gained generations
/// and to 3 when payloads moved into the content-addressed `objects/`
/// store; older versions fail the load gate and mean a fresh start.
pub const MANIFEST_VERSION: u64 = 3;

/// One completed job generation.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ManifestEntry {
    /// Job id.
    pub id: String,
    /// 1-based generation number (monotonic per job id).
    pub generation: u64,
    /// Payload object file, relative to the run directory — derived from
    /// `digest` (`objects/<digest>.json`); recorded redundantly so
    /// quarantine paths and diagnostics need no recomputation.
    pub file: String,
    /// FNV-1a 64 digest of the payload bytes: both the integrity check
    /// and the object's address in the store.
    pub digest: u64,
    /// Attempts the job took when it originally ran.
    pub attempts: u32,
    /// Wall seconds of the original execution.
    pub wall_seconds: f64,
    /// CPU seconds of the original execution.
    pub cpu_seconds: f64,
}

impl ManifestEntry {
    /// The accounting a resumed run reports for a job this entry satisfied.
    pub fn stats(&self) -> JobStats {
        JobStats {
            attempts: self.attempts,
            wall_seconds: self.wall_seconds,
            cpu_seconds: self.cpu_seconds,
            skipped: true,
        }
    }
}

/// Per-job execution accounting.
#[derive(Debug, Clone, PartialEq)]
pub struct JobStats {
    /// Attempts executed (1 = first try succeeded). For skipped jobs, the
    /// attempts recorded when the job originally ran.
    pub attempts: u32,
    /// Wall seconds of the attempt that produced the result; failed
    /// attempts and retry delays are not counted (manifest value for
    /// skipped jobs).
    pub wall_seconds: f64,
    /// CPU seconds of that attempt (manifest value for skipped jobs).
    pub cpu_seconds: f64,
    /// Whether the manifest satisfied this job without execution.
    pub skipped: bool,
}

/// What [`Manifest::probe`] found of one recorded generation.
#[derive(Debug)]
pub enum Probed<T> {
    /// No payload file on disk.
    Missing,
    /// The payload failed verification, for this reason.
    Bad(String),
    /// The payload verified and decoded.
    Good(T),
}

/// The completed-job registry of a run directory.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Manifest {
    /// Schema version.
    pub version: u64,
    /// Configuration fingerprint the run executed under.
    pub run_key: String,
    /// Completed job generations, in completion order (a job id may
    /// appear multiple times; the highest generation is current).
    pub jobs: Vec<ManifestEntry>,
}

impl Manifest {
    /// An empty manifest for a fresh run.
    pub fn new(run_key: impl Into<String>) -> Self {
        Manifest {
            version: MANIFEST_VERSION,
            run_key: run_key.into(),
            jobs: Vec::new(),
        }
    }

    /// The manifest file path inside a run directory.
    pub fn path(dir: &Path) -> PathBuf {
        dir.join("manifest.json")
    }

    /// The payload object file (relative to the run directory) for a
    /// digest — the content address every entry's `file` field records.
    pub fn object_file(digest: u64) -> String {
        crate::store::object_rel(digest)
    }

    /// Loads the manifest of `dir`, or `None` when absent, unparseable, or
    /// an older schema version (a damaged manifest means "nothing to
    /// resume", never an error).
    pub fn load(dir: &Path) -> Option<Manifest> {
        let text = std::fs::read_to_string(Manifest::path(dir)).ok()?;
        let m: Manifest = serde_json::from_str(&text).ok()?;
        (m.version == MANIFEST_VERSION).then_some(m)
    }

    /// Opens a run directory for a run under `run_key`. Torn temp files
    /// from an interrupted atomic write are quarantined up front, on fresh
    /// and resumed runs alike: nothing may ever mistake half a payload for
    /// a checkpoint. A manifest written under the same key is adopted with
    /// its generation history (training is deterministic under one
    /// `run_key`, so old generations remain valid fallbacks even when this
    /// run re-executes every job). Under a different key the old run's
    /// *references* are void and the result is empty, but its objects
    /// stay: they are content-addressed, so the new run can only ever
    /// trust one after a digest match (cross-run dedup), and anything left
    /// unreferenced is exactly what `netshare_cli gc` sweeps.
    pub fn open(dir: &Path, run_key: &str, events: &EventLog) -> Manifest {
        quarantine_stray_temp_files(dir, events);
        match Manifest::load(dir) {
            Some(old) if old.run_key == run_key => old,
            _ => Manifest::new(run_key),
        }
    }

    /// Resume recovery for one job: walks its recorded generations newest
    /// first, quarantining every generation that fails verification
    /// (digest mismatch, invalid UTF-8, or a payload `decode` rejects),
    /// and returns the first good one. Bad entries are dropped from the
    /// manifest so they are never consulted again.
    ///
    /// This is [`Manifest::probe`] followed by [`Manifest::adopt`]; a
    /// caller with many independent jobs may run the probes side by side
    /// and adopt their findings one after another.
    pub fn recover<T>(
        &mut self,
        dir: &Path,
        id: &str,
        events: &EventLog,
        decode: impl Fn(String) -> Result<T, String>,
    ) -> Option<(T, ManifestEntry)> {
        let probed = self.probe(dir, id, decode);
        self.adopt(dir, id, events, probed)
    }

    /// The reading half of [`Manifest::recover`]: reads, digests and
    /// decodes `id`'s generations newest first, up to and including the
    /// first good one, and reports what each turned out to be. Touches
    /// neither the manifest nor the directory.
    pub fn probe<T>(
        &self,
        dir: &Path,
        id: &str,
        decode: impl Fn(String) -> Result<T, String>,
    ) -> Vec<(ManifestEntry, Probed<T>)> {
        let mut probed = Vec::new();
        for entry in self.generations(id) {
            // Read raw bytes: a flipped byte can leave the file invalid
            // UTF-8, which must still count as corruption (quarantine),
            // not absence.
            let found = match std::fs::read(dir.join(&entry.file)) {
                Err(e) if e.kind() == io::ErrorKind::NotFound => Probed::Missing,
                Err(e) => Probed::Bad(format!("unreadable payload: {e}")),
                Ok(bytes) if fnv1a64(&bytes) != entry.digest => {
                    Probed::Bad(format!("digest mismatch (expected {:#018x})", entry.digest))
                }
                Ok(bytes) => match String::from_utf8(bytes) {
                    Err(e) => Probed::Bad(format!("unparseable payload: invalid UTF-8: {e}")),
                    Ok(text) => match decode(text) {
                        Ok(payload) => Probed::Good(payload),
                        Err(e) => Probed::Bad(format!("unparseable payload: {e}")),
                    },
                },
            };
            let good = matches!(found, Probed::Good(_));
            probed.push((entry.clone(), found));
            if good {
                break;
            }
        }
        probed
    }

    /// The writing half of [`Manifest::recover`]: applies what
    /// [`Manifest::probe`] found for `id`, in order. A missing
    /// generation is forgotten (nothing on disk to quarantine), a bad
    /// one is forgotten, quarantined and announced, and the good one, if
    /// any, is returned.
    pub fn adopt<T>(
        &mut self,
        dir: &Path,
        id: &str,
        events: &EventLog,
        probed: Vec<(ManifestEntry, Probed<T>)>,
    ) -> Option<(T, ManifestEntry)> {
        for (entry, found) in probed {
            let reason = match found {
                Probed::Good(payload) => return Some((payload, entry)),
                Probed::Missing => {
                    self.remove(id, entry.generation);
                    continue;
                }
                Probed::Bad(reason) => reason,
            };
            self.remove(id, entry.generation);
            quarantine_announced(dir, id, &entry.file, reason, events);
        }
        None
    }

    /// Appends the next generation of `id`, referencing the object at
    /// `digest` (which must already be fully in the store).
    pub fn append(&mut self, id: &str, digest: u64, stats: &JobStats) {
        self.record(ManifestEntry {
            id: id.to_string(),
            generation: self.next_generation(id),
            file: Manifest::object_file(digest),
            digest,
            attempts: stats.attempts,
            wall_seconds: stats.wall_seconds,
            cpu_seconds: stats.cpu_seconds,
        });
    }

    /// Commits one completion: appends the next generation of `id`, prunes
    /// its history to the newest `keep`, and persists the manifest into
    /// `dir`. A pruned generation's object is deleted from `store` (the
    /// one `dir` was opened with) only once no surviving entry of any job
    /// references its digest — identical payloads dedup to one object.
    /// Pruned generations were verified when written, so this is plain
    /// deletion, not quarantine.
    pub fn commit(
        &mut self,
        dir: &Path,
        store: &impl ObjectStore,
        id: &str,
        digest: u64,
        stats: &JobStats,
        keep: usize,
    ) -> io::Result<()> {
        self.append(id, digest, stats);
        for stale in self.prune(id, keep) {
            if !self.jobs.iter().any(|e| e.digest == stale.digest) {
                let _ = store.remove(stale.digest);
            }
        }
        self.store(dir)
    }

    /// Atomically persists the manifest into `dir`.
    pub fn store(&self, dir: &Path) -> io::Result<()> {
        let text = serde_json::to_string_pretty(self)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
        atomic_write(&Manifest::path(dir), text.as_bytes())
    }

    /// The *current* (highest-generation) entry of a job.
    pub fn entry(&self, id: &str) -> Option<&ManifestEntry> {
        self.generations(id).into_iter().next()
    }

    /// All recorded generations of a job, newest first.
    pub fn generations(&self, id: &str) -> Vec<&ManifestEntry> {
        let mut gens: Vec<&ManifestEntry> = self.jobs.iter().filter(|e| e.id == id).collect();
        gens.sort_by_key(|e| std::cmp::Reverse(e.generation));
        gens
    }

    /// The generation number the next completion of `id` should use.
    pub fn next_generation(&self, id: &str) -> u64 {
        self.entry(id).map(|e| e.generation + 1).unwrap_or(1)
    }

    /// Appends a completed generation (earlier generations are kept; use
    /// [`Manifest::prune`] to bound the history).
    pub fn record(&mut self, entry: ManifestEntry) {
        self.jobs
            .retain(|e| !(e.id == entry.id && e.generation == entry.generation));
        self.jobs.push(entry);
    }

    /// Drops one recorded generation (e.g. after quarantining its file).
    pub fn remove(&mut self, id: &str, generation: u64) {
        self.jobs
            .retain(|e| !(e.id == id && e.generation == generation));
    }

    /// Keeps only the newest `keep` generations of `id`, returning the
    /// dropped entries (newest first). `keep` is clamped to at least 1.
    /// With content addressing an object may back *several* entries
    /// (dedup), so the caller must check no surviving entry still
    /// references a returned digest before deleting it (as
    /// [`Manifest::commit`] does) — or leave deletion to the GC sweep.
    pub fn prune(&mut self, id: &str, keep: usize) -> Vec<ManifestEntry> {
        let stale: Vec<ManifestEntry> =
            self.generations(id).into_iter().skip(keep.max(1)).cloned().collect();
        for e in &stale {
            self.remove(id, e.generation);
        }
        stale
    }

    /// Reads and verifies the payload of a completed job, walking its
    /// generations newest-first and returning the first one whose file
    /// hashes to its recorded digest (read-only; the scheduler's resume
    /// path additionally quarantines the failures).
    pub fn verified_payload(&self, dir: &Path, id: &str) -> Option<String> {
        self.generations(id).into_iter().find_map(|e| {
            let text = std::fs::read_to_string(dir.join(&e.file)).ok()?;
            (fnv1a64(text.as_bytes()) == e.digest).then_some(text)
        })
    }
}

/// Quarantines a corrupt or torn file: atomic rename to
/// `<file>.quarantine`, preserving the bytes for post-mortem inspection
/// while guaranteeing no later load can trust them. Returns the
/// quarantine path.
pub fn quarantine(path: &Path) -> io::Result<PathBuf> {
    let file_name = path
        .file_name()
        .and_then(|n| n.to_str())
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidInput, "path has no file name"))?;
    let dest = path.with_file_name(format!("{file_name}.quarantine"));
    std::fs::rename(path, &dest)?;
    Ok(dest)
}

/// [`quarantine`]s `file` (relative to the run directory) and, when there
/// was a file to rename, counts it and announces it as
/// `CheckpointQuarantined` — `job` empty for a file no job owns.
pub fn quarantine_announced(dir: &Path, job: &str, file: &str, reason: String, events: &EventLog) {
    if quarantine(&dir.join(file)).is_ok() {
        telemetry::metrics::counter("orchestrator.quarantines").inc();
        events.emit(Event::CheckpointQuarantined {
            job: job.to_string(),
            file: file.to_string(),
            reason,
        });
    }
}

/// Quarantines leftover `.tmp.` files from interrupted atomic writes in
/// the run directory, its object store, and the pre-v3 `jobs/` payload
/// directory (best-effort) — the last still patrolled so a run directory
/// carried forward from the path-named layout cannot hide a torn
/// fragment there.
fn quarantine_stray_temp_files(dir: &Path, events: &EventLog) {
    for sub in ["", crate::store::OBJECTS_DIR, "jobs"] {
        let scan = if sub.is_empty() { dir.to_path_buf() } else { dir.join(sub) };
        let Ok(rd) = std::fs::read_dir(&scan) else { continue };
        for e in rd.flatten() {
            let name = e.file_name().to_string_lossy().into_owned();
            if !name.contains(".tmp.") || name.ends_with(".quarantine") {
                continue;
            }
            let rel = if sub.is_empty() { name.clone() } else { format!("{sub}/{name}") };
            let reason = "torn temp file from an interrupted write".into();
            quarantine_announced(dir, "", &rel, reason, events);
        }
    }
}

/// Writes `bytes` to `path` atomically: a unique temp file in the same
/// directory, then `rename` (atomic on POSIX within one filesystem). A
/// kill between the two steps leaves the old file untouched.
pub fn atomic_write(path: &Path, bytes: &[u8]) -> io::Result<()> {
    // Unique per write, not only per process: two jobs whose payloads
    // dedup to one object write it from two threads at once, and with a
    // shared temp name the second rename finds the file already moved.
    static WRITES: AtomicU64 = AtomicU64::new(0);
    let file_name = path
        .file_name()
        .and_then(|n| n.to_str())
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidInput, "path has no file name"))?;
    let write = WRITES.fetch_add(1, Ordering::Relaxed);
    let tmp = path.with_file_name(format!(".{file_name}.tmp.{}.{write}", std::process::id()));
    std::fs::write(&tmp, bytes)?;
    match std::fs::rename(&tmp, path) {
        Ok(()) => Ok(()),
        Err(e) => {
            let _ = std::fs::remove_file(&tmp);
            Err(e)
        }
    }
}

/// FNV-1a 64-bit digest — dependency-free integrity check for payload
/// files (corruption detection, not an adversarial guarantee).
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("orch-manifest-{tag}-{}", std::process::id()));
        std::fs::create_dir_all(dir.join("objects")).unwrap();
        dir
    }

    fn entry(id: &str, generation: u64, digest: u64) -> ManifestEntry {
        ManifestEntry {
            id: id.into(),
            generation,
            file: Manifest::object_file(digest),
            digest,
            attempts: 1,
            wall_seconds: 0.5,
            cpu_seconds: 0.25,
        }
    }

    #[test]
    fn manifest_round_trips_through_disk() {
        let dir = tmp_dir("roundtrip");
        let mut m = Manifest::new("key-1");
        m.record(entry("pretrain", 1, fnv1a64(b"payload")));
        m.store(&dir).unwrap();
        let back = Manifest::load(&dir).unwrap();
        assert_eq!(back, m);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn verified_payload_rejects_tampering() {
        let dir = tmp_dir("tamper");
        let payload = "{\"x\":1}";
        let file = Manifest::object_file(fnv1a64(payload.as_bytes()));
        atomic_write(&dir.join(&file), payload.as_bytes()).unwrap();
        let mut m = Manifest::new("k");
        m.record(entry("job-a", 1, fnv1a64(payload.as_bytes())));
        assert_eq!(m.verified_payload(&dir, "job-a").as_deref(), Some(payload));
        // Corrupt the file: digest check must fail.
        std::fs::write(dir.join(&file), b"{\"x\":2}").unwrap();
        assert_eq!(m.verified_payload(&dir, "job-a"), None);
        // Unknown job.
        assert_eq!(m.verified_payload(&dir, "nope"), None);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn generations_fall_back_newest_to_oldest() {
        let dir = tmp_dir("generations");
        let good = "{\"x\":1}";
        let gen2_digest = fnv1a64(b"what gen 2 should have been");
        atomic_write(&dir.join(Manifest::object_file(fnv1a64(good.as_bytes()))), good.as_bytes())
            .unwrap();
        // Gen 2's object holds bytes that do not hash to its address.
        atomic_write(&dir.join(Manifest::object_file(gen2_digest)), b"corrupted").unwrap();
        let mut m = Manifest::new("k");
        m.record(entry("a", 1, fnv1a64(good.as_bytes())));
        m.record(entry("a", 2, gen2_digest));
        assert_eq!(m.next_generation("a"), 3);
        assert_eq!(m.entry("a").unwrap().generation, 2, "newest is current");
        // Gen 2's digest fails, so the read-only walk lands on gen 1.
        assert_eq!(m.verified_payload(&dir, "a").as_deref(), Some(good));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn prune_keeps_the_newest_generations_and_returns_stale_files() {
        let mut m = Manifest::new("k");
        for g in 1..=5 {
            m.record(entry("a", g, g));
        }
        m.record(entry("b", 1, 7));
        let stale: Vec<String> = m.prune("a", 2).into_iter().map(|e| e.file).collect();
        assert_eq!(
            stale,
            vec![
                Manifest::object_file(3),
                Manifest::object_file(2),
                Manifest::object_file(1),
            ]
        );
        let left: Vec<u64> = m.generations("a").iter().map(|e| e.generation).collect();
        assert_eq!(left, vec![5, 4]);
        assert_eq!(m.generations("b").len(), 1, "other jobs untouched");
        // keep is clamped to 1: a job never loses its only generation.
        assert!(m.prune("b", 0).is_empty());
        assert_eq!(m.generations("b").len(), 1);
    }

    #[test]
    fn quarantine_renames_preserving_bytes() {
        let dir = tmp_dir("quarantine");
        let p = dir.join("objects").join("00000000000000ab.json");
        std::fs::write(&p, b"bad bytes").unwrap();
        let dest = quarantine(&p).unwrap();
        assert!(!p.exists());
        assert!(dest.to_string_lossy().ends_with("00000000000000ab.json.quarantine"));
        assert_eq!(std::fs::read(&dest).unwrap(), b"bad bytes");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn atomic_write_leaves_no_temp_files_and_replaces_content(){
        let dir = tmp_dir("atomic");
        let path = dir.join("manifest.json");
        atomic_write(&path, b"one").unwrap();
        atomic_write(&path, b"two").unwrap();
        assert_eq!(std::fs::read_to_string(&path).unwrap(), "two");
        let leftovers: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .filter(|e| e.file_name().to_string_lossy().contains(".tmp."))
            .collect();
        assert!(leftovers.is_empty(), "temp files must not survive");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn object_files_are_addressed_by_digest_alone() {
        assert_eq!(Manifest::object_file(0xab), "objects/00000000000000ab.json");
        // Identical content ⇒ identical address, whatever the job id.
        assert_eq!(Manifest::object_file(7), Manifest::object_file(7));
    }

    #[test]
    fn fnv_distinguishes_inputs() {
        assert_ne!(fnv1a64(b"a"), fnv1a64(b"b"));
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
    }
}
