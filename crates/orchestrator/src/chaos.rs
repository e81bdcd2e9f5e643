//! Structured chaos harness: seeded, deterministic fault injection.
//!
//! Replaces the original single-class `NETSHARE_INJECT_FAULT=job:count`
//! panic hook with a fault *plan* covering the failure domains a long
//! chunked-training run actually meets in production: transient errors,
//! panics, hangs, slow I/O, and the three flavours of checkpoint
//! corruption (bit-flip, truncation, torn temp-file write). Faults are
//! addressed per job and fire per attempt (`attempt < count`), so the
//! retry path is exercised deterministically; corruption positions are
//! derived from the plan seed + job id + attempt, never from ambient
//! entropy.
//!
//! Grammar (also the wording of every parse error):
//!
//! ```text
//! plan   := item (';' item)*
//! item   := 'seed=' <u64> | entry
//! entry  := <job> ':' <count>                 # legacy: transient error
//!         | <job> ':' <class> [':' <count>]   # count defaults to 1
//! class  := panic | transient | hang | slow-io
//!         | corrupt-flip | corrupt-truncate | corrupt-torn
//!         | kill-worker
//! ```
//!
//! `panic`, `transient`, and `hang` strike the job *attempt* (inside the
//! scheduler's `catch_unwind` + retry machinery); `slow-io` and the
//! `corrupt-*` classes strike the checkpoint *persist* path after the job
//! body already succeeded, which is exactly where real corruption lands.
//! `kill-worker` is a *process* fault: a `netshare_worker` assigned a
//! matching job aborts the whole process (SIGABRT, no cleanup) before
//! executing it — the in-process thread pool never fires it, since
//! killing the only process would kill the run it is supposed to test.

use crate::cancel::CancelToken;
use crate::manifest::fnv1a64;
use crate::store::{FsStore, ObjectStore};
use std::io::Write;
use std::path::Path;
use std::time::Duration;

/// How long an injected `slow-io` fault stalls a checkpoint write.
const SLOW_IO_STALL: Duration = Duration::from_millis(300);

/// The failure domain a [`ChaosEntry`] injects.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultClass {
    /// The attempt panics (exercises `catch_unwind` recovery).
    Panic,
    /// The attempt returns a retryable error (the legacy fault class).
    Transient,
    /// The attempt blocks until its cancel token fires (exercises the
    /// watchdog; pair with a deadline or the run waits for cancellation).
    Hang,
    /// Checkpoint persistence is delayed (exercises interruptible waits).
    SlowIo,
    /// One bit of the persisted checkpoint is flipped after the write
    /// (digest mismatch on the next load).
    CorruptFlip,
    /// The persisted checkpoint is truncated to half its length.
    CorruptTruncate,
    /// The write dies mid-temp-file: only a partial `.tmp.` file lands on
    /// disk and the manifest never records the generation.
    CorruptTorn,
    /// The worker *process* aborts before executing the attempt (multi-
    /// process runs only; simulates SIGKILL/OOM-kill of a worker box).
    KillWorker,
    /// The *coordinator* process aborts while completing the matching
    /// job — after the payload landed in the store and the journal, but
    /// before the manifest records it (the worst-case crash window a
    /// `--resume` journal replay must heal). Workers never fire this.
    KillCoord,
}

impl FaultClass {
    /// Stable grammar name.
    pub fn name(self) -> &'static str {
        match self {
            FaultClass::Panic => "panic",
            FaultClass::Transient => "transient",
            FaultClass::Hang => "hang",
            FaultClass::SlowIo => "slow-io",
            FaultClass::CorruptFlip => "corrupt-flip",
            FaultClass::CorruptTruncate => "corrupt-truncate",
            FaultClass::CorruptTorn => "corrupt-torn",
            FaultClass::KillWorker => "kill-worker",
            FaultClass::KillCoord => "kill-coord",
        }
    }

    fn parse(s: &str) -> Option<FaultClass> {
        Some(match s {
            "panic" => FaultClass::Panic,
            "transient" => FaultClass::Transient,
            "hang" => FaultClass::Hang,
            "slow-io" => FaultClass::SlowIo,
            "corrupt-flip" => FaultClass::CorruptFlip,
            "corrupt-truncate" => FaultClass::CorruptTruncate,
            "corrupt-torn" => FaultClass::CorruptTorn,
            "kill-worker" => FaultClass::KillWorker,
            "kill-coord" => FaultClass::KillCoord,
            _ => return None,
        })
    }

    /// Whether this class strikes the job attempt (vs. checkpoint persist).
    pub fn is_attempt_fault(self) -> bool {
        matches!(
            self,
            FaultClass::Panic | FaultClass::Transient | FaultClass::Hang
        )
    }

    /// Whether this class kills the whole worker process (neither an
    /// attempt fault nor a persist fault; only multi-process runs fire it).
    pub fn is_process_fault(self) -> bool {
        matches!(self, FaultClass::KillWorker)
    }

    /// Whether this class kills the coordinator process. Only the
    /// coordinator's completion path consults it; a worker handed a
    /// kill-coord entry treats it as inert.
    pub fn is_coord_fault(self) -> bool {
        matches!(self, FaultClass::KillCoord)
    }
}

/// One planned fault: `class` fires against `job` while `attempt < count`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChaosEntry {
    /// Target job id.
    pub job: String,
    /// Failure domain to inject.
    pub class: FaultClass,
    /// Number of leading attempts the fault strikes.
    pub count: u32,
}

/// A parsed, seeded fault plan (see module docs for the grammar).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChaosPlan {
    entries: Vec<ChaosEntry>,
    /// Seed for deterministic corruption positions (`seed=<u64>` item).
    pub seed: u64,
}

/// The grammar, as quoted by every parse error (and the CLI usage text).
pub const CHAOS_GRAMMAR: &str = "expected `<job>:<count>`, `<job>:<class>[:<count>]`, or \
     `seed=<u64>` joined by `;` — classes: panic | transient | hang | \
     slow-io | corrupt-flip | corrupt-truncate | corrupt-torn | kill-worker | kill-coord";

impl ChaosPlan {
    /// Parses a fault plan, rejecting malformed specs with an error that
    /// names the expected grammar (the old hook silently ignored them).
    pub fn parse(spec: &str) -> Result<ChaosPlan, String> {
        let bad = |item: &str| format!("invalid fault spec `{item}`: {CHAOS_GRAMMAR}");
        let mut plan = ChaosPlan { entries: Vec::new(), seed: 0x6e65_7473 };
        for item in spec.split(';') {
            let item = item.trim();
            if item.is_empty() {
                return Err(bad(item));
            }
            if let Some(seed) = item.strip_prefix("seed=") {
                plan.seed = seed.parse::<u64>().map_err(|_| bad(item))?;
                continue;
            }
            let mut parts = item.split(':');
            let job = parts.next().unwrap_or_default().to_string();
            let second = parts.next();
            let third = parts.next();
            if job.is_empty() || parts.next().is_some() {
                return Err(bad(item));
            }
            let entry = match (second, third) {
                // Legacy `<job>:<count>` form: a transient, retryable error.
                (Some(n), None) if n.chars().all(|c| c.is_ascii_digit()) && !n.is_empty() => {
                    ChaosEntry {
                        job,
                        class: FaultClass::Transient,
                        count: n.parse().map_err(|_| bad(item))?,
                    }
                }
                (Some(class), count) => ChaosEntry {
                    job,
                    class: FaultClass::parse(class).ok_or_else(|| bad(item))?,
                    count: match count {
                        Some(n) => n.parse().map_err(|_| bad(item))?,
                        None => 1,
                    },
                },
                (None, _) => return Err(bad(item)),
            };
            if entry.count == 0 {
                return Err(bad(item));
            }
            plan.entries.push(entry);
        }
        Ok(plan)
    }

    /// The planned fault (if any) for this job and zero-based attempt.
    fn entry(&self, job: &str, attempt: u32) -> Option<&ChaosEntry> {
        self.entries
            .iter()
            .find(|e| e.job == job && attempt < e.count)
    }

    /// The attempt-phase fault (panic / transient / hang) to inject, with
    /// its entry for message formatting.
    pub fn attempt_fault(&self, job: &str, attempt: u32) -> Option<&ChaosEntry> {
        self.entry(job, attempt).filter(|e| e.class.is_attempt_fault())
    }

    /// The persist-phase fault (slow-io / corrupt-*) to inject against the
    /// checkpoint written after the given final attempt. Process faults
    /// are excluded: by persist time the attempt already executed, so a
    /// kill-worker entry reaching here would fire in the wrong phase.
    pub fn persist_fault(&self, job: &str, attempt: u32) -> Option<&ChaosEntry> {
        self.entry(job, attempt).filter(|e| {
            !e.class.is_attempt_fault()
                && !e.class.is_process_fault()
                && !e.class.is_coord_fault()
        })
    }

    /// The process-phase fault (kill-worker) to inject before executing
    /// the given attempt. Only `netshare_worker` processes consult this;
    /// the in-process thread pool ignores process faults entirely.
    pub fn process_fault(&self, job: &str, attempt: u32) -> Option<&ChaosEntry> {
        self.entry(job, attempt).filter(|e| e.class.is_process_fault())
    }

    /// The coordinator-phase fault (kill-coord) to inject while
    /// completing the given job. `attempt` counts completions the
    /// coordinator has processed for the job (normally 0). Only
    /// [`crate::coord`] consults this; workers and the in-process pool
    /// ignore coordinator faults entirely.
    pub fn coord_fault(&self, job: &str, attempt: u32) -> Option<&ChaosEntry> {
        self.entry(job, attempt).filter(|e| e.class.is_coord_fault())
    }

    /// Deterministic corruption position source for `job`/`attempt`.
    pub fn corruption_seed(&self, job: &str, attempt: u32) -> u64 {
        fnv1a64(format!("{}|{job}|{attempt}", self.seed).as_bytes())
    }
}

/// Writes a job's checkpoint `bytes` into `store` through whatever
/// persist-phase fault `chaos` plans for `job`'s (final) `attempt`:
/// `slow-io` stalls first (`cancel` cuts the stall short), `corrupt-flip` /
/// `corrupt-truncate` rot the object after a clean write, and
/// `corrupt-torn` leaves only a temp fragment. Returns the digest of the
/// *clean* bytes — the address the object has or would have had — and
/// whether an object landed there. It did not after a torn write:
/// exactly what a kill between temp-write and rename leaves behind, so
/// the caller must not record the generation and recovery quarantines
/// the fragment.
pub fn put_with_fault(
    store: &FsStore,
    bytes: &[u8],
    chaos: Option<&ChaosPlan>,
    job: &str,
    attempt: u32,
    cancel: &CancelToken,
) -> std::io::Result<(u64, bool)> {
    let digest = fnv1a64(bytes);
    let class = chaos.and_then(|c| c.persist_fault(job, attempt)).map(|e| e.class);
    match class {
        Some(FaultClass::SlowIo) => {
            let _ = cancel.wait_timeout(SLOW_IO_STALL);
        }
        Some(FaultClass::CorruptTorn) => {
            write_torn(&store.object_path(digest), bytes)?;
            return Ok((digest, false));
        }
        _ => {}
    }
    store.put(bytes)?;
    if let (Some(class @ (FaultClass::CorruptFlip | FaultClass::CorruptTruncate)), Some(plan)) =
        (class, chaos)
    {
        // Post-write bit rot: the object's address describes the clean
        // bytes, so the next verified read must reject this file.
        corrupt_file(class, &store.object_path(digest), plan.corruption_seed(job, attempt))?;
    }
    Ok((digest, true))
}

/// Applies an on-disk corruption class to an already-written checkpoint
/// (bit rot simulation: the manifest digest was computed from the clean
/// bytes, so the next load must detect and quarantine this file).
pub fn corrupt_file(class: FaultClass, path: &Path, seed: u64) -> std::io::Result<()> {
    match class {
        FaultClass::CorruptFlip => {
            let mut bytes = std::fs::read(path)?;
            if !bytes.is_empty() {
                let bit = (seed as usize) % (bytes.len() * 8);
                bytes[bit / 8] ^= 1 << (bit % 8);
            }
            std::fs::write(path, bytes)
        }
        FaultClass::CorruptTruncate => {
            let bytes = std::fs::read(path)?;
            std::fs::write(path, &bytes[..bytes.len() / 2])
        }
        _ => Ok(()),
    }
}

/// Simulates a torn write: the process "died" after writing half the
/// payload into the atomic-write temp file — the real `path` is never
/// created and the manifest never records it. Recovery must quarantine
/// the leftover `.tmp.` file and fall back to an older generation.
pub fn write_torn(path: &Path, bytes: &[u8]) -> std::io::Result<()> {
    let file_name = path
        .file_name()
        .and_then(|n| n.to_str())
        .unwrap_or("payload");
    let tmp = path.with_file_name(format!(".{file_name}.tmp.{}", std::process::id()));
    let mut f = std::fs::File::create(&tmp)?;
    f.write_all(&bytes[..bytes.len() / 2])?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn legacy_job_count_spec_is_a_transient_fault() {
        let plan = ChaosPlan::parse("chunk-1:1").unwrap();
        let e = plan.attempt_fault("chunk-1", 0).unwrap();
        assert_eq!(e.class, FaultClass::Transient);
        assert_eq!(e.count, 1);
        assert!(plan.attempt_fault("chunk-1", 1).is_none(), "count exhausted");
        assert!(plan.attempt_fault("chunk-2", 0).is_none(), "other job");
        assert!(plan.persist_fault("chunk-1", 0).is_none());
    }

    #[test]
    fn class_specs_parse_with_default_and_explicit_counts() {
        let plan = ChaosPlan::parse("a:panic;b:hang:3;c:corrupt-flip;seed=42").unwrap();
        assert_eq!(plan.seed, 42);
        assert_eq!(plan.attempt_fault("a", 0).unwrap().class, FaultClass::Panic);
        assert_eq!(plan.attempt_fault("b", 2).unwrap().class, FaultClass::Hang);
        assert!(plan.attempt_fault("b", 3).is_none());
        let c = plan.persist_fault("c", 0).unwrap();
        assert_eq!(c.class, FaultClass::CorruptFlip);
        assert!(plan.attempt_fault("c", 0).is_none(), "persist-phase class");
    }

    #[test]
    fn malformed_specs_are_rejected_naming_the_grammar() {
        for bad in [
            "", "job", "job:", ":1", "job:bogus", "job:1:2:3", "job:transient:x",
            "job:0", "job:panic:0", "seed=abc", "a:1;;b:1",
        ] {
            let err = ChaosPlan::parse(bad).unwrap_err();
            assert!(err.contains("invalid fault spec"), "{bad} -> {err}");
            assert!(err.contains("corrupt-torn"), "grammar named: {bad} -> {err}");
        }
    }

    #[test]
    fn kill_worker_is_a_process_fault_and_fires_in_no_other_phase() {
        let plan = ChaosPlan::parse("chunk-1:kill-worker:1").unwrap();
        let e = plan.process_fault("chunk-1", 0).unwrap();
        assert_eq!(e.class, FaultClass::KillWorker);
        assert!(plan.attempt_fault("chunk-1", 0).is_none());
        assert!(plan.persist_fault("chunk-1", 0).is_none());
        assert!(plan.process_fault("chunk-1", 1).is_none(), "count exhausted");
        assert!(plan.process_fault("chunk-2", 0).is_none(), "other job");
        assert!(FaultClass::KillWorker.is_process_fault());
        assert!(!FaultClass::Panic.is_process_fault());
    }

    #[test]
    fn kill_coord_is_a_coordinator_fault_and_fires_in_no_other_phase() {
        let plan = ChaosPlan::parse("chunk-1:kill-coord").unwrap();
        let e = plan.coord_fault("chunk-1", 0).unwrap();
        assert_eq!(e.class, FaultClass::KillCoord);
        assert!(plan.attempt_fault("chunk-1", 0).is_none());
        assert!(plan.persist_fault("chunk-1", 0).is_none());
        assert!(plan.process_fault("chunk-1", 0).is_none());
        assert!(plan.coord_fault("chunk-1", 1).is_none(), "count exhausted");
        assert!(plan.coord_fault("chunk-2", 0).is_none(), "other job");
        assert!(FaultClass::KillCoord.is_coord_fault());
        assert!(!FaultClass::KillWorker.is_coord_fault());
        assert!(plan.process_fault("chunk-1", 0).is_none(), "workers treat it as inert");
    }

    #[test]
    fn corruption_seed_is_deterministic_and_distinguishes_targets() {
        let plan = ChaosPlan::parse("a:corrupt-flip;seed=7").unwrap();
        assert_eq!(plan.corruption_seed("a", 0), plan.corruption_seed("a", 0));
        assert_ne!(plan.corruption_seed("a", 0), plan.corruption_seed("a", 1));
        assert_ne!(plan.corruption_seed("a", 0), plan.corruption_seed("b", 0));
    }

    #[test]
    fn corrupt_file_flip_and_truncate_change_bytes_on_disk() {
        let dir = std::env::temp_dir().join(format!("chaos-corrupt-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let p = dir.join("payload.json");
        std::fs::write(&p, b"0123456789abcdef").unwrap();
        corrupt_file(FaultClass::CorruptFlip, &p, 99).unwrap();
        let flipped = std::fs::read(&p).unwrap();
        assert_eq!(flipped.len(), 16);
        assert_ne!(flipped, b"0123456789abcdef");
        std::fs::write(&p, b"0123456789abcdef").unwrap();
        corrupt_file(FaultClass::CorruptTruncate, &p, 99).unwrap();
        assert_eq!(std::fs::read(&p).unwrap(), b"01234567");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn write_torn_leaves_only_a_partial_temp_file() {
        let dir = std::env::temp_dir().join(format!("chaos-torn-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let p = dir.join("gen1.json");
        write_torn(&p, b"full payload bytes").unwrap();
        assert!(!p.exists(), "real path must never be created");
        let stray: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .filter(|e| e.file_name().to_string_lossy().contains(".tmp."))
            .collect();
        assert_eq!(stray.len(), 1);
        let len = stray[0].metadata().unwrap().len() as usize;
        assert_eq!(len, b"full payload bytes".len() / 2);
        std::fs::remove_dir_all(&dir).ok();
    }
}
