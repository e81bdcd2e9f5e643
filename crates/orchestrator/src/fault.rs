//! Seeded, deterministic fault injection: one plan, one grammar, one
//! environment variable (`NETSHARE_INJECT_FAULT`) for every binary.
//!
//! A [`FaultPlan`] is how the test suites and `scripts/ci.sh` prove that
//! chunked training and serving survive what a long run meets: failed,
//! panicking and hung attempts, slow and rotten checkpoint writes, killed
//! processes and broken sockets. Every [`Fault`] class strikes in one
//! [`Phase`]. The engines decide *where* a phase strikes; this module
//! decides *what* strikes:
//!
//! * **attempt** — `panic`, `transient`, `hang`: the job attempt, under
//!   the engine's `catch_unwind` ([`FaultEntry::strike`]; pool, worker).
//! * **persist** — `slow-io`, `corrupt-flip`, `corrupt-truncate`,
//!   `corrupt-torn`: the checkpoint write after the attempt succeeded
//!   ([`put_with_fault`]; pool, worker).
//! * **process** — `kill-worker`: a `netshare_worker` process, before it
//!   runs the attempt ([`FaultEntry::strike`]; worker).
//! * **coordinator** — `kill-coord`: the coordinator, after the journal
//!   and before the manifest records a completion ([`FaultEntry::strike`]).
//! * **wire** — `torn-frame`, `reset`, `stall`, `garbage-bytes`: this
//!   process's socket I/O ([`crate::wire`]).
//!
//! Grammar (DESIGN.md §9; every parse error quotes [`FAULT_GRAMMAR`]):
//!
//! ```text
//! plan  := item (';' item)*
//! item  := 'seed=' <u64>
//!        | <wire-class> ':' <count>
//!        | <job> ':' <count>                     # legacy form: transient
//!        | <job> ':' <job-class> [':' <count>]   # count defaults to 1
//! ```
//!
//! A job entry strikes attempts `0..count` of its job. A wire entry fires
//! `count` times in this process, whichever connection moves the bytes;
//! the write path takes `torn-frame` before `reset`, the read path
//! `stall` before `garbage-bytes`. Corruption positions derive from the
//! plan seed — with the job and attempt for `corrupt-flip`, with the
//! process-wide firing index for `garbage-bytes` — never from ambient
//! entropy, so a faulted run replays bit for bit.

use crate::cancel::CancelToken;
use crate::lock;
use crate::manifest::fnv1a64;
use crate::store::{FsStore, ObjectStore};
use std::fmt;
use std::io::Write;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;
use std::time::Duration;

/// How long an injected `slow-io` fault stalls a checkpoint write.
const SLOW_IO_STALL: Duration = Duration::from_millis(300);

/// How long an injected `stall` delays a frame read.
pub(crate) const STALL: Duration = Duration::from_millis(250);

/// The seed of a plan without a `seed=` item.
const DEFAULT_SEED: u64 = 0x6e65_7473;

/// Where a [`Fault`] strikes (see the module table).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// A job attempt, in the engine that runs it.
    Attempt,
    /// The checkpoint write after a successful attempt.
    Persist,
    /// A whole worker process.
    Process,
    /// The coordinator process.
    Coordinator,
    /// This process's socket I/O.
    Wire,
}

/// A fault class of the grammar.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fault {
    /// The attempt panics.
    Panic,
    /// The attempt returns a retryable error.
    Transient,
    /// The attempt blocks until the engine cancels it (pair it with a
    /// watchdog deadline, or the run waits for cancellation).
    Hang,
    /// The checkpoint write stalls first.
    SlowIo,
    /// One seeded bit of the written checkpoint is flipped.
    CorruptFlip,
    /// The written checkpoint is cut to half its length.
    CorruptTruncate,
    /// Half the payload lands in a temp file and the object never does.
    CorruptTorn,
    /// The worker process aborts before running the attempt.
    KillWorker,
    /// The coordinator aborts while completing the job.
    KillCoord,
    /// Half a frame is written, then the write side is shut down.
    TornFrame,
    /// The socket is shut down both ways before a write.
    Reset,
    /// A read pauses for 250 ms (token-aware), then goes on.
    Stall,
    /// A received payload is garbled before it is decoded.
    GarbageBytes,
}

/// Every class with its grammar name and phase, in declaration order.
const CLASSES: [(Fault, &str, Phase); 13] = [
    (Fault::Panic, "panic", Phase::Attempt),
    (Fault::Transient, "transient", Phase::Attempt),
    (Fault::Hang, "hang", Phase::Attempt),
    (Fault::SlowIo, "slow-io", Phase::Persist),
    (Fault::CorruptFlip, "corrupt-flip", Phase::Persist),
    (Fault::CorruptTruncate, "corrupt-truncate", Phase::Persist),
    (Fault::CorruptTorn, "corrupt-torn", Phase::Persist),
    (Fault::KillWorker, "kill-worker", Phase::Process),
    (Fault::KillCoord, "kill-coord", Phase::Coordinator),
    (Fault::TornFrame, "torn-frame", Phase::Wire),
    (Fault::Reset, "reset", Phase::Wire),
    (Fault::Stall, "stall", Phase::Wire),
    (Fault::GarbageBytes, "garbage-bytes", Phase::Wire),
];

impl Fault {
    /// The grammar name.
    pub fn name(self) -> &'static str {
        CLASSES[self as usize].1
    }

    /// Where the class strikes.
    pub fn phase(self) -> Phase {
        CLASSES[self as usize].2
    }

    fn parse(name: &str) -> Option<Fault> {
        CLASSES.iter().find(|c| c.1 == name).map(|c| c.0)
    }
}

/// The grammar, as quoted by every parse error.
pub const FAULT_GRAMMAR: &str = "expected `seed=<u64>`, `<wire-class>:<count>`, \
     `<job>:<count>` or `<job>:<job-class>[:<count>]`, joined by `;` — job classes: panic | \
     transient | hang | slow-io | corrupt-flip | corrupt-truncate | corrupt-torn | kill-worker | \
     kill-coord; wire classes: torn-frame | reset | stall | garbage-bytes";

/// One planned fault.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultEntry {
    /// The job a job-phase entry targets; `None` for a wire entry.
    pub job: Option<String>,
    /// The class.
    pub fault: Fault,
    /// Attempts `0..count` of the job are struck; a wire entry fires
    /// `count` times.
    pub count: u32,
}

impl FaultEntry {
    /// Strikes an attempt, process or coordinator fault on the zero-based
    /// `attempt`. `panic` panics, for the engine's `catch_unwind` to turn
    /// into a failed attempt; `transient` is an `Err`; `hang` blocks until
    /// one of `cancel` (at least one token) fires and is an `Err` naming
    /// why; `kill-worker` and `kill-coord` abort the process — no
    /// unwinding, no cleanup, the peers learn of it from a dead socket or
    /// the journal. Persist and wire classes strike elsewhere: `Ok`.
    pub fn strike(&self, attempt: u32, cancel: &[&CancelToken]) -> Result<(), String> {
        let n = format!("({}/{})", attempt + 1, self.count);
        match self.fault {
            // lint: allow(panic-in-lib) injected panic, caught by the engine's catch_unwind
            Fault::Panic => panic!("injected panic {n}"),
            Fault::Transient => Err(format!("injected transient fault {n}")),
            Fault::Hang => {
                // lint: allow(unbounded-wait) injected hang, released by the engine's tokens
                while !cancel.iter().any(|t| t.wait_timeout(Duration::from_millis(50))) {}
                let reason = cancel.iter().find_map(|t| t.reason()).unwrap_or_default();
                Err(format!("injected hang {n} cancelled: {reason}"))
            }
            Fault::KillWorker | Fault::KillCoord => {
                let (class, job) = (self.fault.name(), self.job.as_deref().unwrap_or_default());
                eprintln!("injected {class} on `{job}` attempt {attempt}, aborting");
                std::process::abort()
            }
            _ => Ok(()),
        }
    }
}

/// A parsed, seeded fault plan (see the module docs for the grammar).
/// Its `Display` is the canonical spec: it parses back to the same plan.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultPlan {
    entries: Vec<FaultEntry>,
    /// Seed of every corruption position (`seed=<u64>` item).
    seed: u64,
}

impl FaultPlan {
    /// Parses a plan, rejecting a malformed item with an error that names
    /// it and the grammar.
    pub fn parse(spec: &str) -> Result<FaultPlan, String> {
        let mut plan = FaultPlan { entries: Vec::new(), seed: DEFAULT_SEED };
        for item in spec.split(';').map(str::trim) {
            let bad = || format!("invalid fault spec `{item}`: {FAULT_GRAMMAR}");
            if let Some(seed) = item.strip_prefix("seed=") {
                plan.seed = seed.parse().map_err(|_| bad())?;
                continue;
            }
            let parts: Vec<&str> = item.split(':').collect();
            let wire = Fault::parse(parts[0]).is_some_and(|f| f.phase() == Phase::Wire);
            let (job, class, count) = match parts[..] {
                [class, count] if wire => (None, class, Some(count)),
                _ if wire => return Err(bad()),
                [job, n] if !n.is_empty() && n.bytes().all(|b| b.is_ascii_digit()) => {
                    (Some(job), "transient", Some(n))
                }
                [job, class] => (Some(job), class, None),
                [job, class, count] => (Some(job), class, Some(count)),
                _ => return Err(bad()),
            };
            let fault = Fault::parse(class)
                .filter(|f| (f.phase() == Phase::Wire) == job.is_none())
                .ok_or_else(bad)?;
            let count = count.map_or(Ok(1), str::parse).map_err(|_| bad())?;
            if job == Some("") || count == 0 {
                return Err(bad());
            }
            plan.entries.push(FaultEntry { job: job.map(String::from), fault, count });
        }
        Ok(plan)
    }

    /// The fault of `phase` planned for `job`'s zero-based `attempt`.
    pub fn fault(&self, phase: Phase, job: &str, attempt: u32) -> Option<&FaultEntry> {
        self.entries.iter().find(|e| {
            e.fault.phase() == phase && e.job.as_deref() == Some(job) && attempt < e.count
        })
    }
}

impl fmt::Display for FaultPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for e in &self.entries {
            if let Some(job) = &e.job {
                write!(f, "{job}:")?;
            }
            write!(f, "{}:{};", e.fault.name(), e.count)?;
        }
        write!(f, "seed={}", self.seed)
    }
}

/// The corruption seed of one firing: the plan seed mixed with `key`.
fn derive(seed: u64, key: fmt::Arguments<'_>) -> u64 {
    fnv1a64(format!("{seed}|{key}").as_bytes())
}

/// The one corruption primitive: flips bit `seed mod 8·len` of `bytes`.
fn flip_bit(bytes: &mut [u8], seed: u64) {
    if !bytes.is_empty() {
        let bit = (seed % (bytes.len() as u64 * 8)) as usize;
        bytes[bit / 8] ^= 1 << (bit % 8);
    }
}

/// Writes a job's checkpoint `bytes` into `store` through whatever
/// persist fault `faults` plans for `job`'s (final) `attempt`: `slow-io`
/// stalls first (`cancel` cuts the stall short), `corrupt-flip` and
/// `corrupt-truncate` rot the object after a clean write, and
/// `corrupt-torn` leaves only half the bytes in a temp file. Returns the
/// digest of the *clean* bytes — the address the object has or would
/// have had — and whether an object landed there. It did not after a
/// torn write: exactly what a kill between temp write and rename leaves
/// behind, so the caller must not record the generation and recovery
/// quarantines the fragment.
pub fn put_with_fault(
    store: &FsStore,
    bytes: &[u8],
    faults: Option<&FaultPlan>,
    job: &str,
    attempt: u32,
    cancel: &CancelToken,
) -> std::io::Result<(u64, bool)> {
    let digest = fnv1a64(bytes);
    let path = store.object_path(digest);
    let planned = faults.and_then(|p| Some((p.seed, p.fault(Phase::Persist, job, attempt)?.fault)));
    let Some((seed, fault)) = planned else {
        return store.put(bytes).map(|_| (digest, true));
    };
    match fault {
        Fault::SlowIo => {
            let _ = cancel.wait_timeout(SLOW_IO_STALL);
        }
        Fault::CorruptTorn => {
            let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("payload");
            let tmp = path.with_file_name(format!(".{name}.tmp.{}", std::process::id()));
            std::fs::File::create(tmp)?.write_all(&bytes[..bytes.len() / 2])?;
            return Ok((digest, false));
        }
        _ => {}
    }
    store.put(bytes)?;
    // Bit rot at rest: the address describes the clean bytes, so the
    // next verified read rejects the file.
    let rotten = match fault {
        Fault::CorruptFlip => {
            let mut rotten = bytes.to_vec();
            flip_bit(&mut rotten, derive(seed, format_args!("{job}|{attempt}")));
            rotten
        }
        Fault::CorruptTruncate => bytes[..bytes.len() / 2].to_vec(),
        _ => return Ok((digest, true)),
    };
    std::fs::write(&path, rotten)?;
    Ok((digest, true))
}

/// The wire entries this process has left to fire.
struct Armed {
    entries: Vec<(Fault, u32)>,
    seed: u64,
    /// Process-wide firing counter (feeds corruption seeds).
    fires: u64,
}

/// Fast path: wire I/O checks one atomic when no wire entry is armed.
static ARMED: AtomicBool = AtomicBool::new(false);
static STATE: Mutex<Option<Armed>> = Mutex::new(None);

fn lock_state() -> std::sync::MutexGuard<'static, Option<Armed>> {
    lock(&STATE) // lint: lock-order(orchestrator.fault)
}

/// Arms this process's socket I/O with `plan`'s wire entries, replacing
/// whatever was armed before; a plan without wire entries disarms it.
fn install(plan: &FaultPlan) {
    let entries: Vec<(Fault, u32)> =
        plan.entries.iter().filter(|e| e.job.is_none()).map(|e| (e.fault, e.count)).collect();
    let mut st = lock_state();
    ARMED.store(!entries.is_empty(), Ordering::Release);
    *st = (!entries.is_empty()).then_some(Armed { entries, seed: plan.seed, fires: 0 });
}

/// Parses `NETSHARE_INJECT_FAULT` once, arms its wire entries in this
/// process and returns the plan (`None` when the variable is unset). A
/// malformed spec is an error naming the variable and the grammar, which
/// every binary reports as a usage error (exit 2).
pub fn init_from_env() -> Result<Option<FaultPlan>, String> {
    let Ok(spec) = std::env::var("NETSHARE_INJECT_FAULT") else {
        return Ok(None);
    };
    let plan = FaultPlan::parse(&spec).map_err(|e| format!("NETSHARE_INJECT_FAULT: {e}"))?;
    install(&plan);
    Ok(Some(plan))
}

/// Consumes one firing of the first class of `classes` with an armed
/// entry left, returning it with the firing's corruption seed.
pub(crate) fn take(classes: &[Fault]) -> Option<(Fault, u64)> {
    if !ARMED.load(Ordering::Acquire) {
        return None;
    }
    let mut st = lock_state();
    let armed = st.as_mut()?;
    let i = classes
        .iter()
        .find_map(|&c| armed.entries.iter().position(|&(f, n)| f == c && n > 0))?;
    armed.entries[i].1 -= 1;
    armed.fires += 1;
    Some((armed.entries[i].0, derive(armed.seed, format_args!("{}", armed.fires))))
}

/// Garbles a received payload in place: the leading bytes become `0xFF`
/// (JSON never starts with it, so decoding fails as *malformed*, never as
/// a shorter valid frame) and one seeded bit flips for positional
/// variety.
pub(crate) fn garble(payload: &mut [u8], seed: u64) {
    let n = payload.len().min(4);
    payload[..n].fill(0xFF);
    flip_bit(payload, seed);
    if let Some(first) = payload.first_mut() {
        *first = 0xFF; // the seeded flip must not un-garble the sentinel
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire;

    // The armed wire state is process-global, so tests touching it run
    // under one lock to stay independent of test-thread interleaving.
    static TEST_GUARD: Mutex<()> = Mutex::new(());

    fn plan(spec: &str) -> FaultPlan {
        FaultPlan::parse(spec).unwrap()
    }

    #[test]
    fn the_class_table_is_in_declaration_order() {
        for (i, (fault, name, _)) in CLASSES.iter().enumerate() {
            assert_eq!(*fault as usize, i, "{name}");
            assert_eq!(Fault::parse(name), Some(*fault));
        }
    }

    #[test]
    fn legacy_job_count_spec_is_a_transient_fault() {
        let p = plan("chunk-1:1");
        let e = p.fault(Phase::Attempt, "chunk-1", 0).unwrap();
        assert_eq!((e.fault, e.count), (Fault::Transient, 1));
        assert!(p.fault(Phase::Attempt, "chunk-1", 1).is_none(), "count exhausted");
        assert!(p.fault(Phase::Attempt, "chunk-2", 0).is_none(), "other job");
        assert!(p.fault(Phase::Persist, "chunk-1", 0).is_none());
    }

    #[test]
    fn every_class_fires_only_in_its_own_phase() {
        let p = plan("a:panic;b:hang:3;c:corrupt-flip;d:kill-worker;e:kill-coord;seed=42");
        assert_eq!(p.seed, 42);
        let expect = [
            ("a", Phase::Attempt, Fault::Panic),
            ("b", Phase::Attempt, Fault::Hang),
            ("c", Phase::Persist, Fault::CorruptFlip),
            ("d", Phase::Process, Fault::KillWorker),
            ("e", Phase::Coordinator, Fault::KillCoord),
        ];
        let phases =
            [Phase::Attempt, Phase::Persist, Phase::Process, Phase::Coordinator, Phase::Wire];
        for (job, phase, fault) in expect {
            for other in phases {
                let hit = p.fault(other, job, 0).map(|e| e.fault);
                assert_eq!(hit, (other == phase).then_some(fault), "{job} in {other:?}");
            }
        }
        assert!(p.fault(Phase::Attempt, "b", 2).is_some());
        assert!(p.fault(Phase::Attempt, "b", 3).is_none(), "count exhausted");
    }

    #[test]
    fn wire_classes_lead_their_item_and_take_a_count() {
        let p = plan("torn-frame:2;seed=9;garbage-bytes:1;chunk-1:panic");
        assert_eq!(p.to_string(), "torn-frame:2;garbage-bytes:1;chunk-1:panic:1;seed=9");
        for class in ["torn-frame", "stall", "reset", "garbage-bytes"] {
            assert_eq!(plan(&format!("{class}:1")).entries[0].job, None);
        }
    }

    #[test]
    fn malformed_specs_are_rejected_naming_the_grammar() {
        for bad in [
            "", "job", "job:", ":1", "job:bogus", "job:1:2:3", "job:transient:x", "job:0",
            "job:panic:0", "seed=abc", "a:1;;b:1", ";", "torn-frame", "torn-frame:",
            "torn-frame:0", "stall:panic:1", "bogus:1:2", "chunk-1:reset", "chunk-1:stall:1",
            "reset:x",
        ] {
            let err = FaultPlan::parse(bad).unwrap_err();
            assert!(err.contains("invalid fault spec"), "{bad} -> {err}");
            assert!(err.contains("corrupt-torn") && err.contains("garbage-bytes"), "{err}");
        }
    }

    /// Bits and seeds recorded before the job and wire grammars were one
    /// plan: folding the two seeded derivations moved no corrupted byte.
    #[test]
    fn corruption_positions_are_pinned_for_explicit_seeds() {
        let dir = std::env::temp_dir().join(format!("fault-pinned-{}", std::process::id()));
        let store = FsStore::open(&dir).unwrap();
        let clean = b"0123456789abcdef";
        for (spec, job, attempt, bit) in [
            ("j:corrupt-flip:2;seed=7", "j", 0, 48),
            ("j:corrupt-flip:2;seed=7", "j", 1, 99),
            ("chunk-1:corrupt-flip:1;seed=42", "chunk-1", 0, 48),
            ("chunk-1:corrupt-flip", "chunk-1", 0, 47),
        ] {
            let p = plan(spec);
            let never = CancelToken::new();
            let (digest, landed) =
                put_with_fault(&store, clean, Some(&p), job, attempt, &never).unwrap();
            assert!(landed);
            let mut want = clean.to_vec();
            want[bit / 8] ^= 1 << (bit % 8);
            assert_eq!(std::fs::read(store.object_path(digest)).unwrap(), want, "{spec}");
        }
        std::fs::remove_dir_all(&dir).ok();

        let _g = TEST_GUARD.lock().unwrap();
        for (spec, seeds) in [
            ("garbage-bytes:2;seed=5", &[2577488455140903599, 2577489554652531810][..]),
            ("stall:4;garbage-bytes:1;seed=11", &[1570911780549812780]),
        ] {
            install(&plan(spec));
            let mut fired = Vec::new();
            while let Some((fault, seed)) = take(&[Fault::Stall, Fault::GarbageBytes]) {
                if fault == Fault::GarbageBytes {
                    fired.push(seed);
                }
            }
            assert_eq!(fired, seeds, "{spec}");
        }
        let mut payload = br#"{"Claim":null}"#.to_vec();
        garble(&mut payload, 2577488455140903599);
        assert_eq!(payload[..5], [255, 127, 255, 255, 97]);
        install(&plan("seed=0"));
    }

    #[test]
    fn persist_faults_stall_rot_truncate_and_tear() {
        let dir = std::env::temp_dir().join(format!("fault-persist-{}", std::process::id()));
        let store = FsStore::open(&dir).unwrap();
        let never = CancelToken::new();
        let put = |spec: &str, bytes: &[u8]| {
            put_with_fault(&store, bytes, Some(&plan(spec)), "j", 0, &never).unwrap()
        };
        let (d, landed) = put("j:corrupt-truncate", b"0123456789abcdef");
        assert!(landed);
        assert_eq!(std::fs::read(store.object_path(d)).unwrap(), b"01234567");
        let (d, landed) = put("j:slow-io", b"slow payload");
        assert!(landed && store.get(d).is_ok(), "slow I/O never corrupts");
        let (d, landed) = put("j:corrupt-torn", b"full payload bytes");
        assert!(!landed && !store.object_path(d).exists(), "no object at the address");
        let stray: Vec<_> = std::fs::read_dir(dir.join("objects"))
            .unwrap()
            .filter_map(|e| e.ok())
            .filter(|e| e.file_name().to_string_lossy().contains(".tmp."))
            .collect();
        assert_eq!(stray.len(), 1);
        assert_eq!(stray[0].metadata().unwrap().len() as usize, b"full payload bytes".len() / 2);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn attempt_faults_strike_with_one_message_per_class() {
        let p = plan("t:transient:2;h:hang;x:panic");
        let token = CancelToken::new();
        let strike = |job: &str, t: &CancelToken| {
            p.fault(Phase::Attempt, job, 0).unwrap().strike(0, &[t, t])
        };
        assert_eq!(strike("t", &token), Err("injected transient fault (1/2)".into()));
        let panicked = std::panic::catch_unwind(|| strike("x", &token)).unwrap_err();
        assert_eq!(crate::dag::panic_message(&*panicked), "injected panic (1/1)");
        token.cancel("deadline");
        assert_eq!(strike("h", &token), Err("injected hang (1/1) cancelled: deadline".into()));
        let slow = plan("j:slow-io");
        let entry = slow.fault(Phase::Persist, "j", 0).unwrap();
        assert_eq!(entry.strike(0, &[&token]), Ok(()), "persist classes strike elsewhere");
    }

    #[test]
    fn wire_counts_decrement_and_exhaust_deterministically() {
        let _g = TEST_GUARD.lock().unwrap();
        install(&plan("torn-frame:2;stall:1;chunk-1:panic"));
        let write = || take(&[Fault::TornFrame, Fault::Reset]).map(|f| f.0);
        assert_eq!(write(), Some(Fault::TornFrame));
        assert_eq!(write(), Some(Fault::TornFrame));
        assert_eq!(write(), None, "count exhausted");
        assert_eq!(take(&[Fault::Stall, Fault::GarbageBytes]).map(|f| f.0), Some(Fault::Stall));
        assert_eq!(take(&[Fault::Stall, Fault::GarbageBytes]), None);
        install(&plan("chunk-1:panic"));
        assert!(!ARMED.load(Ordering::Acquire), "a plan without wire entries disarms");
    }

    fn socket_pair(listener: &std::net::TcpListener) -> (std::net::TcpStream, std::net::TcpStream) {
        let client = std::net::TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (server, _) = listener.accept().unwrap();
        wire::configure(&client).unwrap();
        wire::configure(&server).unwrap();
        (client, server)
    }

    #[test]
    fn wire_faults_tear_reset_stall_and_garble_sockets() {
        let _g = TEST_GUARD.lock().unwrap();
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let token = CancelToken::new();
        let framed = wire::frame(br#"{"Claim":null}"#, 64).unwrap();

        let (mut client, mut server) = socket_pair(&listener);
        install(&plan("torn-frame:1"));
        let err = wire::write_all(&mut client, &framed, &token).unwrap_err();
        assert!(matches!(&err, wire::WireError::Io(m) if m.contains("torn-frame")), "{err}");
        // The peer got half a frame and then a write-side shutdown.
        assert_eq!(
            wire::read_frame_bytes(&mut server, &token, 64),
            Err(wire::WireError::Truncated)
        );

        let (mut client, mut server) = socket_pair(&listener);
        install(&plan("reset:1"));
        let err = wire::write_all(&mut client, &framed, &token).unwrap_err();
        assert!(matches!(&err, wire::WireError::Io(m) if m.contains("reset")), "{err}");
        assert!(wire::read_frame_bytes(&mut server, &token, 64).is_err());

        let (mut client, mut server) = socket_pair(&listener);
        install(&plan("stall:1;garbage-bytes:1"));
        for _ in 0..3 {
            wire::write_all(&mut client, &framed, &token).unwrap();
        }
        // A stalled read is delayed but still delivers the clean frame,
        // the next one arrives garbled, and the third is clean again.
        let read = |server: &mut std::net::TcpStream| {
            wire::read_frame_bytes(server, &token, 64).unwrap()
        };
        assert_eq!(read(&mut server), br#"{"Claim":null}"#);
        assert_eq!(read(&mut server)[0], 0xFF, "payload arrived garbled");
        assert_eq!(read(&mut server), br#"{"Claim":null}"#);
        install(&plan("seed=0"));
    }

    #[test]
    fn garble_always_breaks_json_decoding() {
        for seed in 0..64u64 {
            let mut payload = br#"{"Claim":null}"#.to_vec();
            garble(&mut payload, seed);
            // 0xFF is never valid UTF-8, so no JSON decoder can accept it.
            assert!(std::str::from_utf8(&payload).is_err(), "seed {seed}");
        }
        garble(&mut [], 7); // must not panic on the degenerate case
    }
}
