//! Seeded socket-layer fault injection (`NETSHARE_INJECT_NETFAULT`).
//!
//! The checkpoint chaos harness ([`crate::chaos`]) strikes the *disk*
//! path; this shim strikes the *wire*. A process that arms a plan (via
//! [`install`] in tests, or [`init_from_env`] in the binaries) has
//! faults injected into its own socket I/O inside [`crate::wire`] — the
//! single sanctioned byte layer — so both the coordinator/worker control
//! channel and the `netshared` streaming protocol inherit the whole
//! matrix without any per-protocol hooks.
//!
//! Grammar (also the wording of every parse error):
//!
//! ```text
//! plan  := item (';' item)*
//! item  := 'seed=' <u64> | <class> ':' <count>
//! class := torn-frame | stall | reset | garbage-bytes
//! ```
//!
//! Classes and where they strike:
//!
//! * `torn-frame` — **write path**: half the frame's bytes are written,
//!   then the write side is shut down. The peer sees a mid-frame close
//!   (`Truncated`), the injecting side an I/O error.
//! * `reset` — **write path**: the socket is shut down in both
//!   directions before any byte moves; both sides see a dead peer.
//! * `stall` — **read path**: the read is delayed by a bounded,
//!   token-aware pause before proceeding normally (exercises timeout and
//!   heartbeat machinery without killing the connection).
//! * `garbage-bytes` — **read path**: the frame arrives, but its payload
//!   is deterministically corrupted before the caller decodes it
//!   (exercises the malformed-frame path end to end).
//!
//! Each entry fires `count` times process-wide, in plan order per class;
//! corruption positions derive from the plan seed and the firing index,
//! never from ambient entropy, so a faulted run replays bit-for-bit.

use crate::manifest::fnv1a64;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;

/// The socket fault a [`NetFaultPlan`] entry injects.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NetFaultClass {
    /// Half a frame is written, then the write side dies.
    TornFrame,
    /// A read is delayed by a bounded pause, then proceeds.
    Stall,
    /// The socket is shut down in both directions mid-conversation.
    Reset,
    /// A received payload is corrupted before it is decoded.
    GarbageBytes,
}

impl NetFaultClass {
    /// Stable grammar name.
    pub fn name(self) -> &'static str {
        match self {
            NetFaultClass::TornFrame => "torn-frame",
            NetFaultClass::Stall => "stall",
            NetFaultClass::Reset => "reset",
            NetFaultClass::GarbageBytes => "garbage-bytes",
        }
    }

    fn parse(s: &str) -> Option<NetFaultClass> {
        Some(match s {
            "torn-frame" => NetFaultClass::TornFrame,
            "stall" => NetFaultClass::Stall,
            "reset" => NetFaultClass::Reset,
            "garbage-bytes" => NetFaultClass::GarbageBytes,
            _ => return None,
        })
    }
}

/// The grammar, as quoted by every parse error (and the CLI usage text).
pub const NETFAULT_GRAMMAR: &str = "expected `<class>:<count>` or `seed=<u64>` joined by `;` \
     — classes: torn-frame | stall | reset | garbage-bytes";

/// A parsed, seeded socket-fault plan (see module docs for the grammar).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NetFaultPlan {
    entries: Vec<(NetFaultClass, u32)>,
    /// Seed for deterministic payload-corruption positions.
    pub seed: u64,
}

impl NetFaultPlan {
    /// Parses a net-fault plan, rejecting malformed specs with an error
    /// that names the expected grammar.
    pub fn parse(spec: &str) -> Result<NetFaultPlan, String> {
        let bad = |item: &str| format!("invalid net fault spec `{item}`: {NETFAULT_GRAMMAR}");
        let mut plan = NetFaultPlan { entries: Vec::new(), seed: 0x6e66_6c74 };
        for item in spec.split(';') {
            let item = item.trim();
            if item.is_empty() {
                return Err(bad(item));
            }
            if let Some(seed) = item.strip_prefix("seed=") {
                plan.seed = seed.parse::<u64>().map_err(|_| bad(item))?;
                continue;
            }
            let (class, count) = item.split_once(':').ok_or_else(|| bad(item))?;
            let class = NetFaultClass::parse(class).ok_or_else(|| bad(item))?;
            let count: u32 = count.parse().map_err(|_| bad(item))?;
            if count == 0 {
                return Err(bad(item));
            }
            plan.entries.push((class, count));
        }
        Ok(plan)
    }
}

/// A write-path fault [`crate::wire::write_all`] must apply now.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WriteFault {
    /// Write half the bytes, then shut the write side down.
    Torn,
    /// Shut the socket down in both directions without writing.
    Reset,
}

/// A read-path fault [`crate::wire::read_frame_bytes`] must apply now.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReadFault {
    /// Pause (bounded, token-aware) before reading normally.
    Stall,
    /// Corrupt the received payload with this firing's seed.
    Garbage(u64),
}

struct Armed {
    entries: Vec<(NetFaultClass, u32)>,
    seed: u64,
    /// Process-wide firing counter (feeds corruption seeds).
    fires: u64,
}

/// Fast path: wire I/O checks one relaxed atomic when no plan is armed.
static ARMED: AtomicBool = AtomicBool::new(false);
static STATE: Mutex<Option<Armed>> = Mutex::new(None);

fn lock_state() -> std::sync::MutexGuard<'static, Option<Armed>> {
    crate::lock(&STATE) // lint: lock-order(orchestrator.netfault)
}

/// Arms `plan` process-wide (tests and the binaries' env hook). Replaces
/// any previously armed plan.
pub fn install(plan: NetFaultPlan) {
    let mut st = lock_state();
    *st = Some(Armed { entries: plan.entries, seed: plan.seed, fires: 0 });
    ARMED.store(true, Ordering::Release);
}

/// Disarms injection entirely (tests).
pub fn disarm() {
    let mut st = lock_state();
    *st = None;
    ARMED.store(false, Ordering::Release);
}

/// Arms a plan from `NETSHARE_INJECT_NETFAULT` if the variable is set.
/// A malformed spec is an error the binaries report as usage (exit 2);
/// an unset variable is a quiet no-op.
pub fn init_from_env() -> Result<(), String> {
    match std::env::var("NETSHARE_INJECT_NETFAULT") {
        Ok(spec) => {
            let plan =
                NetFaultPlan::parse(&spec).map_err(|e| format!("NETSHARE_INJECT_NETFAULT: {e}"))?;
            install(plan);
            Ok(())
        }
        Err(_) => Ok(()),
    }
}

/// Consumes one firing of `class` if an armed entry has count remaining,
/// returning the per-firing corruption seed.
fn take(class: NetFaultClass) -> Option<u64> {
    if !ARMED.load(Ordering::Acquire) {
        return None;
    }
    let mut st = lock_state();
    let armed = st.as_mut()?;
    let entry = armed.entries.iter_mut().find(|(c, n)| *c == class && *n > 0)?;
    entry.1 -= 1;
    armed.fires += 1;
    let fire = armed.fires;
    Some(fnv1a64(format!("{}|{fire}", armed.seed).as_bytes()))
}

/// The write-path fault to inject now, if any (torn-frame wins over
/// reset when both are armed, matching plan-order intuition for the
/// common single-class CI matrix).
pub fn next_write_fault() -> Option<WriteFault> {
    if !ARMED.load(Ordering::Acquire) {
        return None;
    }
    if take(NetFaultClass::TornFrame).is_some() {
        return Some(WriteFault::Torn);
    }
    if take(NetFaultClass::Reset).is_some() {
        return Some(WriteFault::Reset);
    }
    None
}

/// The read-path fault to inject now, if any.
pub fn next_read_fault() -> Option<ReadFault> {
    if !ARMED.load(Ordering::Acquire) {
        return None;
    }
    if take(NetFaultClass::Stall).is_some() {
        return Some(ReadFault::Stall);
    }
    take(NetFaultClass::GarbageBytes).map(ReadFault::Garbage)
}

/// Deterministically corrupts a received payload in place: the leading
/// bytes are clobbered (JSON can never start with `0xFF`, so decoding is
/// guaranteed to fail as *malformed*, never as a shorter valid frame)
/// and one seeded bit is flipped for positional variety.
pub fn garble(payload: &mut [u8], seed: u64) {
    let n = payload.len().min(4);
    for b in &mut payload[..n] {
        *b = 0xFF;
    }
    if !payload.is_empty() {
        let bit = (seed as usize) % (payload.len() * 8);
        payload[bit / 8] ^= 1 << (bit % 8);
        payload[0] = 0xFF; // the seeded flip must not un-garble the sentinel
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // The armed state is process-global, so tests touching it run under
    // one lock to stay independent of test-thread interleaving.
    static TEST_GUARD: Mutex<()> = Mutex::new(());

    #[test]
    fn grammar_parses_classes_counts_and_seed() {
        let plan = NetFaultPlan::parse("torn-frame:2;seed=9;garbage-bytes:1").unwrap();
        assert_eq!(plan.seed, 9);
        assert_eq!(
            plan.entries,
            vec![(NetFaultClass::TornFrame, 2), (NetFaultClass::GarbageBytes, 1)]
        );
        for class in ["torn-frame", "stall", "reset", "garbage-bytes"] {
            NetFaultPlan::parse(&format!("{class}:1")).unwrap();
        }
    }

    #[test]
    fn malformed_specs_are_rejected_naming_the_grammar() {
        for bad in ["", "torn-frame", "torn-frame:", "torn-frame:0", "bogus:1", "seed=x", ";", "stall:1;;"] {
            let err = NetFaultPlan::parse(bad).unwrap_err();
            assert!(err.contains("invalid net fault spec"), "{bad} -> {err}");
            assert!(err.contains("garbage-bytes"), "grammar named: {bad} -> {err}");
        }
    }

    #[test]
    fn counts_decrement_and_exhaust_deterministically() {
        let _g = TEST_GUARD.lock().unwrap();
        install(NetFaultPlan::parse("torn-frame:2;stall:1").unwrap());
        assert_eq!(next_write_fault(), Some(WriteFault::Torn));
        assert_eq!(next_write_fault(), Some(WriteFault::Torn));
        assert_eq!(next_write_fault(), None, "count exhausted");
        assert_eq!(next_read_fault(), Some(ReadFault::Stall));
        assert_eq!(next_read_fault(), None);
        disarm();
        assert_eq!(next_write_fault(), None, "disarmed");
    }

    #[test]
    fn garbage_seeds_are_deterministic_per_firing() {
        let _g = TEST_GUARD.lock().unwrap();
        install(NetFaultPlan::parse("garbage-bytes:2;seed=5").unwrap());
        let a = match next_read_fault() {
            Some(ReadFault::Garbage(s)) => s,
            other => panic!("expected garbage, got {other:?}"),
        };
        let b = match next_read_fault() {
            Some(ReadFault::Garbage(s)) => s,
            other => panic!("expected garbage, got {other:?}"),
        };
        assert_ne!(a, b, "each firing gets its own corruption seed");
        // Re-arming the identical plan replays the identical seeds.
        install(NetFaultPlan::parse("garbage-bytes:2;seed=5").unwrap());
        assert_eq!(next_read_fault(), Some(ReadFault::Garbage(a)));
        assert_eq!(next_read_fault(), Some(ReadFault::Garbage(b)));
        disarm();
    }

    #[test]
    fn wire_write_faults_tear_and_reset_sockets() {
        use crate::cancel::CancelToken;
        use crate::wire;
        let _g = TEST_GUARD.lock().unwrap();
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let mut client = std::net::TcpStream::connect(addr).unwrap();
        let (mut server, _) = listener.accept().unwrap();
        wire::configure(&client).unwrap();
        wire::configure(&server).unwrap();
        let token = CancelToken::new();

        install(NetFaultPlan::parse("torn-frame:1").unwrap());
        let framed = wire::frame(br#"{"Claim":null}"#, 64).unwrap();
        let err = wire::write_all(&mut client, &framed, &token).unwrap_err();
        assert!(matches!(&err, wire::WireError::Io(m) if m.contains("torn-frame")), "{err}");
        // The peer got half a frame and then a write-side shutdown.
        assert_eq!(
            wire::read_frame_bytes(&mut server, &token, 64),
            Err(wire::WireError::Truncated)
        );

        let mut client = std::net::TcpStream::connect(addr).unwrap();
        let (mut server, _) = listener.accept().unwrap();
        wire::configure(&client).unwrap();
        wire::configure(&server).unwrap();
        install(NetFaultPlan::parse("reset:1").unwrap());
        let err = wire::write_all(&mut client, &framed, &token).unwrap_err();
        assert!(matches!(&err, wire::WireError::Io(m) if m.contains("reset")), "{err}");
        assert!(wire::read_frame_bytes(&mut server, &token, 64).is_err());
        disarm();
    }

    #[test]
    fn wire_read_faults_stall_then_deliver_and_garble_payloads() {
        use crate::cancel::CancelToken;
        use crate::wire;
        let _g = TEST_GUARD.lock().unwrap();
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let mut client = std::net::TcpStream::connect(addr).unwrap();
        let (mut server, _) = listener.accept().unwrap();
        wire::configure(&client).unwrap();
        wire::configure(&server).unwrap();
        let token = CancelToken::new();
        let framed = wire::frame(br#"{"Claim":null}"#, 64).unwrap();

        install(NetFaultPlan::parse("stall:1").unwrap());
        wire::write_all(&mut client, &framed, &token).unwrap();
        // A stalled read is delayed but still delivers the clean frame.
        let payload = wire::read_frame_bytes(&mut server, &token, 64).unwrap();
        assert_eq!(payload, br#"{"Claim":null}"#);

        install(NetFaultPlan::parse("garbage-bytes:1").unwrap());
        wire::write_all(&mut client, &framed, &token).unwrap();
        let payload = wire::read_frame_bytes(&mut server, &token, 64).unwrap();
        assert_eq!(payload[0], 0xFF, "payload arrived garbled");
        // The next frame is clean again (count exhausted).
        wire::write_all(&mut client, &framed, &token).unwrap();
        let payload = wire::read_frame_bytes(&mut server, &token, 64).unwrap();
        assert_eq!(payload, br#"{"Claim":null}"#);
        disarm();
    }

    #[test]
    fn garble_always_breaks_json_decoding() {
        for seed in 0..64u64 {
            let mut payload = br#"{"Claim":null}"#.to_vec();
            garble(&mut payload, seed);
            assert_eq!(payload[0], 0xFF, "seed {seed}");
            // 0xFF is never valid UTF-8, so no JSON decoder can accept it.
            assert!(std::str::from_utf8(&payload).is_err());
        }
        let mut empty: Vec<u8> = Vec::new();
        garble(&mut empty, 7); // must not panic on the degenerate case
    }
}
