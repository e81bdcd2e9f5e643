//! Content-addressed artifact store.
//!
//! Checkpoint payloads are addressed by their FNV-1a 64 digest — the same
//! digest the manifest has always recorded for verification — instead of
//! by a path derived from job id + generation. The blob for digest `d`
//! lives at `objects/<d as %016x>.json` inside the run directory, and the
//! manifest becomes a small *ref index* mapping `job_id@generation` to a
//! digest. Three properties fall out:
//!
//! * **Dedup**: identical payloads (across generations, jobs, or whole
//!   runs sharing a store) occupy one object. [`ObjectStore::put`] of
//!   bytes that already exist verifies the resident object and skips the
//!   write (`store.dedup_hits`); a resident object that fails
//!   verification is atomically rewritten ("healed") rather than
//!   trusted, so a dedup hit can never launder rotted bytes.
//! * **Cheap GC**: an object is garbage exactly when no manifest entry
//!   references its digest. [`ObjectStore::sweep`] removes unreferenced
//!   objects and quarantines torn `.tmp.` fragments; `netshare_cli gc`
//!   drives it from the command line.
//! * **Backend seam**: [`ObjectStore`] is the trait; [`FsStore`] is the
//!   local-filesystem implementation. Coordinator and worker processes
//!   share one store by path and exchange only digests on the wire.
//!
//! Writes are atomic (unique temp file + rename, reusing
//! [`atomic_write`]), so a kill mid-`put` leaves at most a `.tmp.`
//! fragment that the next sweep quarantines — never a half-written
//! object under a valid address.

use crate::manifest::{atomic_write, fnv1a64, quarantine};
use std::collections::BTreeSet;
use std::io;
use std::path::{Path, PathBuf};

/// Name of the object directory inside a run directory.
pub const OBJECTS_DIR: &str = "objects";

/// The file name of an object blob (relative to the objects directory).
pub fn object_name(digest: u64) -> String {
    format!("{digest:016x}.json")
}

/// The object path for a digest, relative to the *run* directory — the
/// form recorded in manifest entries' `file` field.
pub fn object_rel(digest: u64) -> String {
    format!("{OBJECTS_DIR}/{}", object_name(digest))
}

/// Parses an object file name back into its digest. Returns `None` for
/// anything that is not exactly 16 lowercase hex digits + `.json`
/// (quarantine evidence, temp fragments, foreign files).
pub fn parse_object_name(name: &str) -> Option<u64> {
    let hex = name.strip_suffix(".json")?;
    if hex.len() != 16 || !hex.chars().all(|c| c.is_ascii_hexdigit() && !c.is_ascii_uppercase()) {
        return None;
    }
    u64::from_str_radix(hex, 16).ok()
}

/// What one [`ObjectStore::put`] did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PutOutcome {
    /// Content digest — the object's address.
    pub digest: u64,
    /// The object already existed with verified content; nothing was
    /// written.
    pub deduped: bool,
    /// The object existed but failed verification and was atomically
    /// rewritten with the clean bytes.
    pub healed: bool,
}

/// Why a verified read failed.
#[derive(Debug, Clone, PartialEq)]
pub enum GetError {
    /// No object at this address.
    Missing,
    /// The object exists but its bytes hash to `actual`, not the address.
    Corrupt {
        /// The digest the bytes actually hash to.
        actual: u64,
    },
    /// Filesystem error other than not-found.
    Io(String),
}

impl std::fmt::Display for GetError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            GetError::Missing => write!(f, "object missing"),
            GetError::Corrupt { actual } => {
                write!(f, "object corrupt: bytes hash to {actual:#018x}")
            }
            GetError::Io(m) => write!(f, "object read failed: {m}"),
        }
    }
}

/// The outcome of one GC sweep.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct GcReport {
    /// Digests of removed (unreferenced) objects.
    pub removed: Vec<u64>,
    /// Live objects left in place.
    pub kept: usize,
    /// Torn `.tmp.` fragments quarantined during the sweep.
    pub quarantined_fragments: usize,
}

/// A content-addressed blob store: the backend seam. [`FsStore`] is the
/// local-filesystem implementation; remote backends plug in here.
pub trait ObjectStore {
    /// Writes `bytes` under their content address. Idempotent: an
    /// existing verified object is a dedup hit, an existing corrupt
    /// object is healed (atomically rewritten).
    fn put(&self, bytes: &[u8]) -> io::Result<PutOutcome>;
    /// Reads and *verifies* the object at `digest` (bytes must hash back
    /// to the address).
    fn get(&self, digest: u64) -> Result<Vec<u8>, GetError>;
    /// Whether an object file exists at this address (no verification).
    fn contains(&self, digest: u64) -> bool;
    /// Digests of every resident object, sorted.
    fn list(&self) -> io::Result<Vec<u64>>;
    /// Deletes the object at `digest` (missing is not an error).
    fn remove(&self, digest: u64) -> io::Result<()>;
    /// Renames the object at `digest` to `*.quarantine`, preserving the
    /// bytes for post-mortem inspection.
    fn quarantine_object(&self, digest: u64) -> io::Result<PathBuf>;
    /// Garbage collection: removes every object whose digest is not in
    /// `live` and quarantines stray `.tmp.` fragments. Quarantine
    /// evidence is never touched.
    fn sweep(&self, live: &BTreeSet<u64>) -> io::Result<GcReport>;
}

/// Local-filesystem [`ObjectStore`] rooted at `<run-dir>/objects/`.
pub struct FsStore {
    objects: PathBuf,
}

impl FsStore {
    /// Opens (creating if needed) the object directory of a run directory.
    pub fn open(run_dir: &Path) -> io::Result<FsStore> {
        let objects = run_dir.join(OBJECTS_DIR);
        std::fs::create_dir_all(&objects)?;
        Ok(FsStore { objects })
    }

    /// Absolute path of the object file for `digest` (whether or not it
    /// exists). Filesystem-specific: chaos corruption and tests need the
    /// path; the [`ObjectStore`] trait itself never leaks one.
    pub fn object_path(&self, digest: u64) -> PathBuf {
        self.objects.join(object_name(digest))
    }

    /// The object directory this store reads and writes.
    pub fn objects_dir(&self) -> &Path {
        &self.objects
    }
}

impl ObjectStore for FsStore {
    fn put(&self, bytes: &[u8]) -> io::Result<PutOutcome> {
        let digest = fnv1a64(bytes);
        let path = self.object_path(digest);
        telemetry::metrics::counter("store.puts").inc();
        match std::fs::read(&path) {
            Ok(resident) if fnv1a64(&resident) == digest => {
                // Verified dedup hit: the address already holds exactly
                // these bytes.
                telemetry::metrics::counter("store.dedup_hits").inc();
                return Ok(PutOutcome { digest, deduped: true, healed: false });
            }
            Ok(_) => {
                // Resident object is rotten: heal it below with a fresh
                // atomic write instead of trusting the collision.
                atomic_write(&path, bytes)?;
                telemetry::metrics::counter("store.heals").inc();
                telemetry::metrics::counter("store.bytes_written").add(bytes.len() as u64);
                return Ok(PutOutcome { digest, deduped: false, healed: true });
            }
            Err(e) if e.kind() == io::ErrorKind::NotFound => {}
            Err(e) => return Err(e),
        }
        atomic_write(&path, bytes)?;
        telemetry::metrics::counter("store.bytes_written").add(bytes.len() as u64);
        Ok(PutOutcome { digest, deduped: false, healed: false })
    }

    fn get(&self, digest: u64) -> Result<Vec<u8>, GetError> {
        match std::fs::read(self.object_path(digest)) {
            Ok(bytes) => {
                let actual = fnv1a64(&bytes);
                if actual == digest {
                    Ok(bytes)
                } else {
                    Err(GetError::Corrupt { actual })
                }
            }
            Err(e) if e.kind() == io::ErrorKind::NotFound => Err(GetError::Missing),
            Err(e) => Err(GetError::Io(e.to_string())),
        }
    }

    fn contains(&self, digest: u64) -> bool {
        self.object_path(digest).exists()
    }

    fn list(&self) -> io::Result<Vec<u64>> {
        let mut digests = Vec::new();
        for entry in std::fs::read_dir(&self.objects)? {
            let entry = entry?;
            if let Some(d) = parse_object_name(&entry.file_name().to_string_lossy()) {
                digests.push(d);
            }
        }
        digests.sort_unstable();
        Ok(digests)
    }

    fn remove(&self, digest: u64) -> io::Result<()> {
        match std::fs::remove_file(self.object_path(digest)) {
            Ok(()) => Ok(()),
            Err(e) if e.kind() == io::ErrorKind::NotFound => Ok(()),
            Err(e) => Err(e),
        }
    }

    fn quarantine_object(&self, digest: u64) -> io::Result<PathBuf> {
        let dest = quarantine(&self.object_path(digest))?;
        telemetry::metrics::counter("store.quarantines").inc();
        Ok(dest)
    }

    fn sweep(&self, live: &BTreeSet<u64>) -> io::Result<GcReport> {
        let mut report = GcReport::default();
        for entry in std::fs::read_dir(&self.objects)? {
            let entry = entry?;
            let name = entry.file_name().to_string_lossy().into_owned();
            if name.ends_with(".quarantine") {
                continue; // evidence is kept until an operator deletes it
            }
            if name.contains(".tmp.") {
                // A torn fragment from an interrupted atomic write: it
                // was never addressable, so quarantine it like the
                // scheduler's stray-temp sweep does.
                if quarantine(&entry.path()).is_ok() {
                    telemetry::metrics::counter("store.quarantines").inc();
                    report.quarantined_fragments += 1;
                }
                continue;
            }
            let Some(digest) = parse_object_name(&name) else { continue };
            if live.contains(&digest) {
                report.kept += 1;
            } else {
                std::fs::remove_file(entry.path())?;
                telemetry::metrics::counter("store.gc_removed").inc();
                report.removed.push(digest);
            }
        }
        report.removed.sort_unstable();
        Ok(report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp_store(tag: &str) -> (PathBuf, FsStore) {
        let dir = std::env::temp_dir().join(format!("orch-store-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let store = FsStore::open(&dir).unwrap();
        (dir, store)
    }

    #[test]
    fn object_names_round_trip_and_reject_foreign_files() {
        let d = fnv1a64(b"payload");
        assert_eq!(parse_object_name(&object_name(d)), Some(d));
        assert_eq!(object_rel(0xab), "objects/00000000000000ab.json");
        for bad in [
            "manifest.json",
            "00000000000000ab.json.quarantine",
            ".00000000000000ab.json.tmp.42",
            "00000000000000AB.json", // uppercase is not an address we mint
            "0ab.json",
        ] {
            assert_eq!(parse_object_name(bad), None, "{bad}");
        }
    }

    #[test]
    fn put_same_content_twice_yields_one_deduped_object() {
        let (dir, store) = tmp_store("dedup");
        let first = store.put(b"{\"x\":1}").unwrap();
        assert!(!first.deduped && !first.healed);
        let second = store.put(b"{\"x\":1}").unwrap();
        assert_eq!(second.digest, first.digest);
        assert!(second.deduped, "identical content is stored once");
        assert_eq!(store.list().unwrap(), vec![first.digest]);
        assert_eq!(store.get(first.digest).unwrap(), b"{\"x\":1}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn concurrent_puts_of_one_payload_all_succeed() {
        // Two jobs of one run whose payloads dedup to one object write it
        // from two threads of one process at once.
        let (dir, store) = tmp_store("concurrent");
        let barrier = std::sync::Barrier::new(4);
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    barrier.wait();
                    for round in 0..200u32 {
                        let bytes = format!("{{\"round\":{round}}}");
                        let out = store.put(bytes.as_bytes()).expect("a racing put of the same bytes");
                        assert_eq!(store.get(out.digest).unwrap(), bytes.as_bytes());
                    }
                });
            }
        });
        assert_eq!(store.list().unwrap().len(), 200);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn put_heals_a_rotten_resident_object_instead_of_deduping() {
        let (dir, store) = tmp_store("heal");
        let d = store.put(b"clean bytes").unwrap().digest;
        std::fs::write(store.object_path(d), b"rotted").unwrap();
        let out = store.put(b"clean bytes").unwrap();
        assert!(out.healed && !out.deduped);
        assert_eq!(store.get(d).unwrap(), b"clean bytes");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn get_distinguishes_missing_corrupt_and_verified() {
        let (dir, store) = tmp_store("get");
        assert_eq!(store.get(7), Err(GetError::Missing));
        let d = store.put(b"abc").unwrap().digest;
        assert!(store.contains(d));
        std::fs::write(store.object_path(d), b"abX").unwrap();
        match store.get(d) {
            Err(GetError::Corrupt { actual }) => assert_eq!(actual, fnv1a64(b"abX")),
            other => panic!("expected Corrupt, got {other:?}"),
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn quarantine_object_preserves_bytes_under_a_new_name() {
        let (dir, store) = tmp_store("quarantine");
        let d = store.put(b"evidence").unwrap().digest;
        let dest = store.quarantine_object(d).unwrap();
        assert!(!store.contains(d));
        assert!(dest.to_string_lossy().ends_with(".json.quarantine"));
        assert_eq!(std::fs::read(&dest).unwrap(), b"evidence");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn sweep_removes_exactly_the_unreferenced_objects() {
        let (dir, store) = tmp_store("gc");
        let live = store.put(b"live").unwrap().digest;
        let dead_a = store.put(b"dead a").unwrap().digest;
        let dead_b = store.put(b"dead b").unwrap().digest;
        let refs: BTreeSet<u64> = [live].into_iter().collect();
        let report = store.sweep(&refs).unwrap();
        let mut expect = vec![dead_a, dead_b];
        expect.sort_unstable();
        assert_eq!(report.removed, expect);
        assert_eq!(report.kept, 1);
        assert_eq!(store.list().unwrap(), vec![live]);
        // Idempotent: a second sweep finds nothing to do.
        let again = store.sweep(&refs).unwrap();
        assert!(again.removed.is_empty());
        assert_eq!(again.kept, 1);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn sweep_quarantines_torn_fragments_and_spares_evidence() {
        let (dir, store) = tmp_store("torn");
        let live = store.put(b"live").unwrap().digest;
        let frag = store.objects_dir().join(".deadbeef.json.tmp.4242");
        std::fs::write(&frag, b"half a payl").unwrap();
        let evidence = store.objects_dir().join("0000000000000001.json.quarantine");
        std::fs::write(&evidence, b"old evidence").unwrap();
        let report = store.sweep(&[live].into_iter().collect()).unwrap();
        assert_eq!(report.quarantined_fragments, 1);
        assert!(!frag.exists());
        assert!(frag.with_file_name(".deadbeef.json.tmp.4242.quarantine").exists());
        assert!(evidence.exists(), "quarantine evidence is never swept");
        assert!(store.contains(live));
        std::fs::remove_dir_all(&dir).ok();
    }
}
