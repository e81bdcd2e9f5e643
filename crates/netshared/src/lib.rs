//! # netshared
//!
//! Generation-as-a-service: a long-running daemon that loads trained
//! [`ArtifactBundle`](doppelganger::ArtifactBundle)s and streams
//! synthetic flows/packets to many concurrent clients over a
//! length-prefixed, versioned, credit-based TCP protocol. The deployment
//! shape the paper's consumers need — "generate me traffic" as a
//! service, not a batch CLI run (ROADMAP item 1).
//!
//! The three load-bearing guarantees, each pinned by an integration
//! suite:
//!
//! * **Bitwise fidelity** (`tests/service.rs`): a streamed pull is
//!   byte-identical to `sample_fast` run offline from the same bundle —
//!   the producer walks the same
//!   [`SampleCursor`](doppelganger::SampleCursor) loop, artifact rebuild
//!   restores the exact RNG state, and the JSON frame codec round-trips
//!   `f32` bitwise.
//! * **Bounded memory under backpressure** (`tests/backpressure.rs`):
//!   each stream buffers at most its configured capacity in encoded
//!   frames; a stalled client stalls its own producer
//!   ([`machine::Stream`]) without affecting other streams or growing
//!   the heap.
//! * **No stranded resources** (`tests/service.rs`): disconnects,
//!   malformed frames, idle eviction (the reused orchestrator
//!   [`Watchdog`](orchestrator::watchdog::Watchdog)), and server drain
//!   all unwind sessions completely — gauges return to zero and every
//!   thread is joined.
//!
//! Module map: [`protocol`] (wire grammar + interruptible socket I/O),
//! [`machine`] (one subscription's credit, queue and statistic as a pure
//! state machine), `session` (per-connection threads driving it), `seek`
//! (batch boundaries a resume starts from), [`server`] (accept loop +
//! drain), [`client`] (`pull` helper), [`demo`] (seeded untrained
//! bundles for smoke tests).

#![warn(missing_docs)]

pub mod client;
pub mod demo;
pub mod machine;
pub mod protocol;
pub(crate) mod seek;
pub(crate) mod session;
pub mod server;

pub use client::{pull, PullConfig, PullError, PullResult};
pub use demo::{demo_bundle, demo_config};
pub use protocol::{Frame, ProtoError, MAX_FRAME_BYTES, PROTOCOL_VERSION};
pub use server::{Server, ServerConfig, ServerStats};

use std::sync::{Condvar, LockResult, Mutex, MutexGuard};

/// Locks a mutex of this crate. A poisoned lock means a thread panicked
/// while holding it: the state it guards may be torn and no session can
/// repair that, so the panic propagates. [`wait_timeout`] follows the
/// same rule.
pub(crate) fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    unpoisoned(m.lock())
}

/// [`Condvar::wait_timeout`] under [`lock`]'s poisoning rule.
pub(crate) fn wait_timeout<'a, T>(
    cond: &Condvar,
    guard: MutexGuard<'a, T>,
    dur: std::time::Duration,
) -> MutexGuard<'a, T> {
    unpoisoned(cond.wait_timeout(guard, dur)).0
}

fn unpoisoned<G>(r: LockResult<G>) -> G {
    r.expect("poisoned lock") // lint: allow(panic-in-lib) poisoned lock is unrecoverable (see `lock`)
}
