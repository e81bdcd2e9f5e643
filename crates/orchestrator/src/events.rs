//! The JSONL event stream.
//!
//! Every run narrates itself as a sequence of self-describing events —
//! one JSON object per line — so long runs are observable while they
//! execute (`tail -f events.jsonl`) and diagnosable after they die. The
//! same stream carries the training telemetry that used to leak out as
//! ad-hoc `eprintln!` debugging (scaled step counts, d/g losses).

use serde::{Deserialize, Serialize};
use std::io::Write;
use std::path::Path;
use std::sync::Mutex;

/// One orchestrator event. Serialized externally tagged, one per line.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Event {
    /// A run began (after plan validation and manifest recovery).
    RunStarted {
        /// Fingerprint of the configuration the run executes under.
        run_key: String,
        /// Total jobs in the plan.
        jobs: u64,
        /// Worker threads in the pool.
        workers: u64,
        /// Jobs skipped because the manifest verified them.
        resumed: u64,
    },
    /// A job attempt began.
    JobStarted {
        /// Job id.
        job: String,
        /// Zero-based attempt number.
        attempt: u32,
    },
    /// A job attempt failed and will be retried after a backoff.
    JobRetried {
        /// Job id.
        job: String,
        /// Zero-based attempt number that failed.
        attempt: u32,
        /// The failure (panic message or job error).
        error: String,
        /// Backoff slept before the next attempt, in milliseconds.
        backoff_ms: u64,
    },
    /// A job completed successfully.
    JobFinished {
        /// Job id.
        job: String,
        /// Attempts it took (1 = first try).
        attempts: u32,
        /// Wall-clock seconds across all attempts.
        wall_seconds: f64,
        /// Thread-CPU seconds across all attempts.
        cpu_seconds: f64,
    },
    /// A job was skipped: the manifest already holds a verified payload.
    JobSkipped {
        /// Job id.
        job: String,
    },
    /// A job exhausted its retries; the run will fail.
    JobFailed {
        /// Job id.
        job: String,
        /// Attempts executed.
        attempts: u32,
        /// The final failure.
        error: String,
    },
    /// Step budget scaled to a chunk's share of the data (paper Insight 3:
    /// training effort ∝ data seen).
    ScaledSteps {
        /// Job id.
        job: String,
        /// Whole-trace step budget.
        requested: u64,
        /// Steps this chunk actually trains.
        scaled: u64,
        /// Sequences in this chunk.
        items: u64,
        /// Sequences in the whole trace.
        total_items: u64,
    },
    /// Final training losses of a job, from `TrainStats`.
    Losses {
        /// Job id.
        job: String,
        /// Last critic loss.
        d_loss: f64,
        /// Last generator loss.
        g_loss: f64,
        /// Critic steps executed (== DP-SGD steps in DP mode).
        critic_steps: u64,
        /// Generator steps executed.
        gen_steps: u64,
    },
    /// The nnet runtime sanitizer tripped inside a training job (feature
    /// `sanitize` on the pipeline). Emitted by the sanitizer hook *before*
    /// the fatal panic, so the diagnostic lands in the stream even though
    /// the worker's panic recovery then reports a generic `JobRetried` /
    /// `JobFailed`.
    SanitizerTripped {
        /// Layer-attribution scope path (e.g. `seq[2]:Linear`).
        scope: String,
        /// The op that tripped (e.g. `matmul_add_bias`).
        op: String,
        /// Violation kind: `non-finite`, `shape-mismatch`, `grad-explosion`.
        kind: String,
        /// Human-readable specifics (index, value, shapes, norms).
        detail: String,
    },
    /// A telemetry span closed (feature `telemetry` on the pipeline).
    /// Bridged from `telemetry::span`'s process-global sink; children
    /// close before parents, so leaf spans appear first in the stream and
    /// readers reconstruct the tree from `path` + `depth`.
    Span {
        /// Slash-joined names of every frame open on the emitting thread
        /// (e.g. `job[chunk-1]/attempt[0]/chunk[1]/fine_tune`).
        path: String,
        /// Span entry time, µs since the telemetry process epoch (only
        /// meaningful for ordering/duration within one run).
        start_us: u64,
        /// Span duration in microseconds.
        duration_us: u64,
        /// 1-based nesting depth on the emitting thread.
        depth: u32,
    },
    /// A checkpoint file failed verification (digest mismatch,
    /// unparseable payload, or a torn temp file) and was renamed to
    /// `<file>.quarantine`; recovery fell back to the next-newest
    /// verified generation or re-runs the job.
    CheckpointQuarantined {
        /// Job id (empty for a file not attributable to a job: a stray
        /// temp file, the fitted codec object).
        job: String,
        /// The quarantined file, relative to the run directory.
        file: String,
        /// Why verification failed.
        reason: String,
    },
    /// The watchdog cancelled a job attempt whose deadline or heartbeat
    /// was blown; the attempt re-enters the retry/backoff path.
    WatchdogCancelled {
        /// Job id.
        job: String,
        /// Zero-based attempt number that was cancelled.
        attempt: u32,
        /// Which limit tripped, with the observed values.
        reason: String,
        /// Wall seconds the attempt had been running.
        elapsed_seconds: f64,
    },
    /// The divergence sentinel rolled a training job back to its last
    /// good snapshot and resumed with a decayed learning rate.
    SentinelRollback {
        /// Job id.
        job: String,
        /// Generator step the rollback rewound to.
        step: u64,
        /// The detected divergence (non-finite loss, explosion, collapse).
        reason: String,
        /// 1-based rollback number within this job (bounded by the budget).
        rollback: u32,
        /// The decayed learning rate the job resumed with.
        lr: f64,
    },
    /// A worker process completed the control-channel handshake with the
    /// coordinator (multi-process runs only).
    WorkerJoined {
        /// Worker-chosen name from its `WorkerHello`.
        worker: String,
    },
    /// A worker's control connection ended while it still had assigned
    /// jobs; the coordinator requeued them. Graceful drains (no inflight
    /// work) emit nothing.
    WorkerLost {
        /// Worker name.
        worker: String,
        /// Job ids pulled back into the ready queue.
        requeued: Vec<String>,
    },
    /// A completion the manifest missed was healed from the write-ahead
    /// journal on resume: the journal recorded the digest, the store
    /// re-verified the payload, and the manifest was repaired (a
    /// coordinator crashed in the journal→manifest window).
    JournalRecovered {
        /// Job id.
        job: String,
        /// Content address of the store-verified payload.
        digest: u64,
    },
    /// The run finished (all jobs completed or verified).
    RunFinished {
        /// Wall-clock seconds of the whole run.
        wall_seconds: f64,
        /// Summed per-job CPU seconds (including manifest-recorded values
        /// for skipped jobs).
        cpu_seconds: f64,
        /// Jobs executed this run.
        completed: u64,
        /// Jobs skipped via the manifest.
        skipped: u64,
    },
}

/// A thread-safe multi-sink event log. Every event is kept in memory (for
/// programmatic inspection) and appended as one JSON line to each
/// attached sink.
#[derive(Default)]
pub struct EventLog {
    memory: Mutex<Vec<Event>>,
    sinks: Mutex<Vec<Box<dyn Write + Send>>>,
}

impl EventLog {
    /// An in-memory-only log.
    pub fn new() -> Self {
        EventLog::default()
    }

    /// Adds a stderr sink (used when `NETSHARE_DEBUG_STEPS` is set, the
    /// successor of the old ad-hoc eprintln debugging).
    pub fn with_stderr(self) -> Self {
        self.with_sink(Box::new(std::io::stderr()))
    }

    /// Adds an arbitrary writer sink (tests and embedders).
    pub fn with_sink(self, sink: Box<dyn Write + Send>) -> Self {
        crate::lock(&self.sinks).push(sink); // lint: lock-order(orchestrator.event_sinks)
        self
    }

    /// Adds a file sink, appending to `path`.
    pub fn with_file(self, path: &Path) -> std::io::Result<Self> {
        let file = std::fs::OpenOptions::new().create(true).append(true).open(path)?;
        Ok(self.with_sink(Box::new(file)))
    }

    /// Records an event and writes it as one JSON line to every sink.
    pub fn emit(&self, ev: Event) {
        let line = serde_json::to_string(&ev).unwrap_or_else(|e| {
            format!("{{\"EventSerializationError\":\"{e}\"}}")
        });
        {
            let mut sinks = crate::lock(&self.sinks); // lint: lock-order(orchestrator.event_sinks)
            for s in sinks.iter_mut() {
                // Sink failures must never take training down; drop the line.
                let _ = writeln!(s, "{line}");
                let _ = s.flush();
            }
        }
        crate::lock(&self.memory).push(ev); // lint: lock-order(orchestrator.event_memory)
    }

    /// A snapshot of every event emitted so far.
    pub fn events(&self) -> Vec<Event> {
        crate::lock(&self.memory).clone() // lint: lock-order(orchestrator.event_memory)
    }
}

/// Parses one JSONL line back into an [`Event`] (for tests and tooling
/// reading `events.jsonl`).
pub fn parse_event(line: &str) -> Result<Event, serde_json::Error> {
    serde_json::from_str(line)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_event_round_trips_through_jsonl() {
        let evs = vec![
            Event::RunStarted {
                run_key: "abc".into(),
                jobs: 3,
                workers: 2,
                resumed: 1,
            },
            Event::JobStarted { job: "pretrain".into(), attempt: 0 },
            Event::JobRetried {
                job: "chunk-1".into(),
                attempt: 0,
                error: "injected fault".into(),
                backoff_ms: 50,
            },
            Event::JobFinished {
                job: "chunk-1".into(),
                attempts: 2,
                wall_seconds: 0.25,
                cpu_seconds: 0.5,
            },
            Event::JobSkipped { job: "chunk-2".into() },
            Event::JobFailed {
                job: "chunk-3".into(),
                attempts: 3,
                error: "boom".into(),
            },
            Event::ScaledSteps {
                job: "chunk-1".into(),
                requested: 300,
                scaled: 42,
                items: 10,
                total_items: 70,
            },
            Event::Losses {
                job: "chunk-1".into(),
                d_loss: 0.125,
                g_loss: -1.5,
                critic_steps: 12,
                gen_steps: 4,
            },
            Event::SanitizerTripped {
                scope: "seq[2]:Linear".into(),
                op: "matmul_add_bias".into(),
                kind: "non-finite".into(),
                detail: "element 3 of 128 is NaN".into(),
            },
            Event::Span {
                path: "job[chunk-1]/attempt[0]/chunk[1]/fine_tune".into(),
                start_us: 1_234,
                duration_us: 567,
                depth: 4,
            },
            Event::CheckpointQuarantined {
                job: "chunk-1".into(),
                file: "jobs/chunk-1.gen2.json".into(),
                reason: "digest mismatch".into(),
            },
            Event::WatchdogCancelled {
                job: "chunk-1".into(),
                attempt: 0,
                reason: "deadline exceeded: 12.3s >= max-job-secs 10".into(),
                elapsed_seconds: 12.3,
            },
            Event::SentinelRollback {
                job: "chunk-1".into(),
                step: 40,
                reason: "non-finite generator loss".into(),
                rollback: 1,
                lr: 0.0005,
            },
            Event::WorkerJoined { worker: "w0".into() },
            Event::WorkerLost {
                worker: "w0".into(),
                requeued: vec!["chunk-1".into(), "chunk-2".into()],
            },
            Event::JournalRecovered { job: "chunk-1".into(), digest: 0xfeed_u64 << 40 },
            Event::RunFinished {
                wall_seconds: 1.0,
                cpu_seconds: 2.0,
                completed: 2,
                skipped: 1,
            },
        ];
        for ev in evs {
            let line = serde_json::to_string(&ev).unwrap();
            assert!(!line.contains('\n'), "one event per line");
            assert_eq!(parse_event(&line).unwrap(), ev);
        }
    }

    /// Golden test: the exact JSONL bytes of a span event. External
    /// tooling greps and parses these lines, so the tag name, field
    /// names, and field order are a frozen schema (DESIGN.md §8).
    #[test]
    fn span_event_jsonl_schema_is_pinned() {
        let ev = Event::Span {
            path: "pretrain/dpsgd/sanitize_batch[16]".into(),
            start_us: 10,
            duration_us: 20,
            depth: 3,
        };
        assert_eq!(
            serde_json::to_string(&ev).unwrap(),
            "{\"Span\":{\"path\":\"pretrain/dpsgd/sanitize_batch[16]\",\
             \"start_us\":10,\"duration_us\":20,\"depth\":3}}"
        );
    }

    #[test]
    fn log_records_in_memory_and_to_file() {
        let dir = std::env::temp_dir().join(format!("orch-events-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("events.jsonl");
        let _ = std::fs::remove_file(&path);
        let log = EventLog::new().with_file(&path).unwrap();
        log.emit(Event::JobSkipped { job: "a".into() });
        log.emit(Event::JobSkipped { job: "b".into() });
        assert_eq!(log.events().len(), 2);
        let text = std::fs::read_to_string(&path).unwrap();
        let parsed: Vec<Event> = text.lines().map(|l| parse_event(l).unwrap()).collect();
        assert_eq!(parsed, log.events());
        std::fs::remove_dir_all(&dir).ok();
    }
}
