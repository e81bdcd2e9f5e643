//! # orchestrator
//!
//! A job-DAG scheduler for NetShare's chunked training, mirroring the
//! paper's Ray topology (§5): one public/seed **pretrain** job feeding N
//! independent per-chunk **fine-tune** jobs. The paper's scalability win
//! (Fig. 4) comes from fanning those fine-tunes out across workers; its
//! practical pain point is that GAN training is the dominant, failure-prone
//! cost of the pipeline. This crate amortizes that cost:
//!
//! * **Job DAG** ([`JobSpec`], [`Plan`]): jobs are named closures with
//!   explicit dependencies; the plan is validated (unique ids, known deps,
//!   acyclic) before anything runs, and keeps what validation resolved as
//!   a [`Graph`] of indices.
//! * **Bounded worker pool** ([`run`]): `workers` scoped threads pull ready
//!   jobs from a shared queue; completion unlocks dependents. Job outputs
//!   are pure functions of their inputs, so results are identical at any
//!   worker count.
//! * **Content-addressed checkpoints** ([`store`], [`manifest`]): each
//!   completed job's payload is written to `objects/<fnv1a64-digest>.json`
//!   — the digest of the bytes *is* the address — and `manifest.json` maps
//!   `job@generation → digest` as a pure reference index. Both writes are
//!   atomic (temp file + rename) so a kill mid-write never corrupts the
//!   run directory; identical payloads across jobs, generations, and runs
//!   are stored once, and `FsStore::sweep` garbage-collects objects no
//!   manifest references.
//! * **Resume**: a rerun with [`RunOptions::resume`] skips every job the
//!   manifest can verify (run-key match + payload digest match) and loads
//!   its payload from disk instead of recomputing it. Checkpoints are
//!   *generational*: the last [`RunOptions::keep_generations`] verified
//!   payloads per job are kept, and recovery falls back newest-to-oldest,
//!   quarantining (`*.quarantine`) every corrupt file it walks past.
//! * **Fault tolerance**: every attempt runs under `catch_unwind`; failures
//!   (panics or `Err` returns) retry with bounded exponential backoff that
//!   wakes early on cancellation. A seeded [`FaultPlan`] ([`fault`])
//!   injects panics, transient errors, hangs, slow I/O, checkpoint
//!   corruption, killed processes and broken sockets, so the whole
//!   failure domain is exercised deterministically.
//! * **Watchdog** ([`WatchdogOptions`]): each attempt carries a
//!   [`CancelToken`] and a [`Heartbeat`]; a polling thread cancels
//!   attempts that blow their deadline or stop beating, converting hangs
//!   into ordinary retried failures.
//! * **JSONL events** ([`events`]): run/job lifecycle, retries, training
//!   losses, quarantines, watchdog cancellations, worker joins/losses,
//!   and per-job wall/CPU seconds stream to any combination of an
//!   in-memory buffer, a file, and stderr.
//! * **Process scale-out** ([`coord`], [`worker`]): a [`coord::Coordinator`]
//!   serves the same DAG over a local TCP control socket to
//!   `netshare_worker` processes, which claim jobs, heartbeat over the
//!   wire, and exchange results *by digest* through the shared store —
//!   a SIGKILLed worker's jobs are detected (dead socket or stale
//!   heartbeat) and requeued, and the final artifacts are bitwise
//!   identical to a single-process run.
//!
//! ## Two front-ends, one engine underneath
//!
//! [`pool`] (scoped threads pulling closures) and [`coord`] (TCP sessions
//! handing out specs) differ only in how work reaches an executor. Both
//! drive one pure [`Machine`], which alone decides who gets a job, what a
//! failed, lost or tripped attempt costs, and which results are believed.
//! Everything below the transport exists once:
//!
//! | step | where | used by |
//! |---|---|---|
//! | validated graph, ready-[`Frontier`] | [`dag`] | the machine |
//! | assignment, retry and backoff, stale results, first hard failure | [`machine`] | both |
//! | open / recover / commit a run directory | [`Manifest::open`], [`Manifest::recover`], [`Manifest::commit`] | both |
//! | persist-phase faults (`slow-io`, `corrupt-*`) | [`fault::put_with_fault`] | pool, worker |
//! | attempt faults (`panic` / `transient` / `hang`) | [`fault::FaultEntry::strike`] | pool and worker, each under its `catch_unwind` |
//! | retry delay | `Requeue{after}` | the pool's `RunOptions::backoff`; zero for the coordinator |
//! | write-ahead journal | [`journal`] | coordinator only |

#![warn(missing_docs)]

use std::sync::{Condvar, LockResult, Mutex, MutexGuard};
use std::time::Duration;

pub mod backoff;
pub mod cancel;
pub mod coord;
pub mod dag;
pub mod events;
pub mod fault;
pub mod journal;
pub mod machine;
pub mod manifest;
pub mod pool;
pub mod store;
pub mod timing;
pub mod watchdog;
pub mod wire;
pub mod worker;

pub use backoff::Backoff;
pub use cancel::CancelToken;
pub use coord::{
    sim_plan, CoordOptions, CoordReport, Coordinator, CtrlFrame, DistJob, DistPlan, COORD_VERSION,
};
pub use dag::{Frontier, Graph, JobInputs, JobSpec, OrchestratorError, Plan};
pub use events::{Event, EventLog};
pub use fault::{Fault, FaultPlan, FAULT_GRAMMAR};
pub use journal::{Journal, JournalRecord};
pub use machine::{Input, Machine, Output};
pub use manifest::{
    atomic_write, fnv1a64, quarantine, JobStats, Manifest, ManifestEntry, Probed,
};
pub use pool::{run, RunOptions, RunReport};
pub use store::{FsStore, GcReport, ObjectStore, PutOutcome};
pub use timing::{measure, thread_cpu_seconds, Heartbeat};
pub use watchdog::{WatchGuard, Watchdog, WatchdogOptions};
pub use worker::{run_worker, ExecutorRegistry, WorkerOptions, WorkerReport};

/// Locks a mutex of this crate. A poisoned lock means a thread panicked
/// while holding it, outside any `catch_unwind`: the state it guards may
/// be torn and no retry policy can repair that, so the panic propagates.
/// [`wait_timeout`] and [`into_inner`] follow the same rule.
pub(crate) fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    unpoisoned(m.lock())
}

/// [`Condvar::wait_timeout`] under [`lock`]'s poisoning rule.
pub(crate) fn wait_timeout<'a, T>(
    cond: &Condvar,
    guard: MutexGuard<'a, T>,
    dur: Duration,
) -> MutexGuard<'a, T> {
    unpoisoned(cond.wait_timeout(guard, dur)).0
}

/// [`Mutex::into_inner`] under [`lock`]'s poisoning rule.
pub(crate) fn into_inner<T>(m: Mutex<T>) -> T {
    unpoisoned(m.into_inner())
}

fn unpoisoned<G>(r: LockResult<G>) -> G {
    r.expect("poisoned lock") // lint: allow(panic-in-lib) poisoned lock is unrecoverable (see `lock`)
}
