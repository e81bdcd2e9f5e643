//! The job state machine under both engines.
//!
//! [`Machine`] is the one place that decides who gets a job, whether a
//! failed, lost or watchdog-tripped attempt is retried or fails the run,
//! and whether a `Complete` is believed or dropped as stale. It is pure:
//! no I/O, no clock, no locks, no threads. A driver feeds it [`Input`]s
//! stamped with its own notion of `now` and carries out the [`Output`]s:
//!
//! * [`crate::pool::run`] — scoped threads running closures in-process;
//! * [`crate::coord::Coordinator::serve`] — TCP sessions with workers;
//! * `tests/machine_sim.rs` — a seeded scheduler on a virtual clock that
//!   checks the machine against a reference model.
//!
//! Jobs are deterministic, so a verified result is believed from whoever
//! sends it, even from an attempt the machine already gave up on.
//! Anything else an attempt reports — a failure, or a result that did not
//! verify — only counts while its sender holds the job's live attempt.

use crate::dag::{Frontier, Graph, OrchestratorError};
use crate::events::Event;
use crate::journal::JournalRecord;
use crate::manifest::JobStats;
use std::collections::BTreeMap;
use std::time::Duration;

/// Who holds an attempt: a pool thread or a coordinator session, numbered
/// by its driver.
pub type Owner = u64;

/// Something that happened to the run.
#[derive(Debug)]
pub enum Input<'a> {
    /// `owner`, named `worker`, asks for a job.
    Claim {
        /// The claimer.
        owner: Owner,
        /// Its name, for the journal and error messages.
        worker: &'a str,
    },
    /// `owner` reports `job` done, its result stored at `digest`.
    Complete {
        /// The sender.
        owner: Owner,
        /// Job index.
        job: usize,
        /// Content address of the result.
        digest: u64,
        /// Whether the driver read the result back intact, or why not.
        verified: Result<(), String>,
        /// Wall seconds of the attempt.
        wall_seconds: f64,
        /// CPU seconds of the attempt.
        cpu_seconds: f64,
    },
    /// `owner`'s attempt at `job` failed with `error`.
    Fail {
        /// The sender.
        owner: Owner,
        /// Job index.
        job: usize,
        /// What went wrong.
        error: String,
    },
    /// `owner` is gone, and every attempt it held with it.
    Lost {
        /// The lost owner.
        owner: Owner,
    },
    /// The watchdog cancelled attempt `attempt` of `job` for `reason`.
    Tripped {
        /// Job index.
        job: usize,
        /// The cancelled attempt.
        attempt: u32,
        /// Which limit tripped.
        reason: String,
    },
    /// The driver cannot go on (a checkpoint write failed).
    Abort(OrchestratorError),
}

/// What the driver must do, in the order given.
#[derive(Debug, Clone, PartialEq)]
pub enum Output {
    /// Hand attempt `attempt` of `job` to the claimer.
    Assign {
        /// Job index.
        job: usize,
        /// Zero-based attempt number.
        attempt: u32,
    },
    /// Nothing to hand out now; claim again, at the latest at `until`
    /// when a delayed retry falls due then.
    Wait {
        /// Run time at which the next delayed retry is ready.
        until: Option<Duration>,
    },
    /// Nothing will be handed out again: every job is done, or the run
    /// failed ([`Machine::failure`]).
    Drained,
    /// `job` is handed out again once `after` has passed.
    Requeue {
        /// Job index.
        job: usize,
        /// Delay before the retry.
        after: Duration,
    },
    /// The result of `job` is believed: make it durable and publish it.
    Commit {
        /// Job index.
        job: usize,
        /// Content address of the result.
        digest: u64,
        /// Its accounting.
        stats: JobStats,
    },
    /// A record for the write-ahead journal.
    Journal(JournalRecord),
    /// `job` will not be retried: its attempts are spent or the run died.
    JobFailed {
        /// Job index.
        job: usize,
    },
    /// An event for the run's event stream.
    Event(Event),
}

/// The scheduling state of one run (see module docs).
#[derive(Debug)]
pub struct Machine {
    graph: Graph,
    frontier: Frontier,
    max_retries: u32,
    /// Delay before the first retry; doubles per retry, capped at 2 s.
    backoff: Duration,
    /// Attempts started per job (the next attempt's number).
    attempts: Vec<u32>,
    /// The live attempt of every job out: owner, its name, attempt number.
    live: BTreeMap<usize, (Owner, String, u32)>,
    /// Retries waiting out their delay: due time, job, error.
    delayed: Vec<(Duration, usize, String)>,
    done: Vec<Option<(u64, JobStats)>>,
    failure: Option<OrchestratorError>,
    requeues: u64,
}

impl Machine {
    /// The machine of a run over `graph` whose `resumed` jobs are already
    /// satisfied (digest and stats). A job fails the run after
    /// `max_retries` retries; retry `k` waits `backoff × 2^k`, capped at
    /// 2 s.
    pub fn new(
        graph: &Graph,
        max_retries: u32,
        backoff: Duration,
        mut resumed: BTreeMap<usize, (u64, JobStats)>,
    ) -> Machine {
        Machine {
            graph: graph.clone(),
            frontier: Frontier::seed(graph, |i| resumed.contains_key(&i)),
            max_retries,
            backoff,
            attempts: vec![0; graph.len()],
            live: BTreeMap::new(),
            delayed: Vec::new(),
            done: (0..graph.len()).map(|i| resumed.remove(&i)).collect(),
            failure: None,
            requeues: 0,
        }
    }

    /// Applies one input at run time `now`.
    pub fn step(&mut self, now: Duration, input: Input<'_>) -> Vec<Output> {
        let mut out = Vec::new();
        match input {
            Input::Claim { owner, worker } => self.claim(now, owner, worker, &mut out),
            Input::Complete { job, .. } if self.is_done(job) => {}
            Input::Complete { job, digest, verified: Ok(()), wall_seconds, cpu_seconds, .. } => {
                let attempts = self.attempts[job].max(1);
                let stats = JobStats { attempts, wall_seconds, cpu_seconds, skipped: false };
                self.live.remove(&job);
                self.delayed.retain(|d| d.1 != job);
                self.frontier.complete(job);
                self.done[job] = Some((digest, stats.clone()));
                out.push(Output::Commit { job, digest, stats });
                let job = self.graph.id(job).to_string();
                let finished = Event::JobFinished { job, attempts, wall_seconds, cpu_seconds };
                out.push(Output::Event(finished));
            }
            Input::Complete { owner, job, verified: Err(error), .. }
            | Input::Fail { owner, job, error } => {
                if self.live.get(&job).is_some_and(|a| a.0 == owner) {
                    self.live.remove(&job);
                    self.retry(now, job, error, &mut out);
                }
            }
            Input::Lost { owner } => {
                let mine: Vec<usize> =
                    self.live.iter().filter(|(_, a)| a.0 == owner).map(|(&i, _)| i).collect();
                let Some(worker) = mine.first().map(|i| self.live[i].1.clone()) else {
                    return out;
                };
                let requeued = mine.iter().map(|&i| self.graph.id(i).to_string()).collect();
                out.push(Output::Event(Event::WorkerLost { worker: worker.clone(), requeued }));
                for i in mine {
                    self.live.remove(&i);
                    let error = format!("worker `{worker}` disconnected mid-attempt");
                    self.retry(now, i, error, &mut out);
                }
            }
            Input::Tripped { job, attempt, reason } => {
                if let Some((_, worker, _)) = self.live.get(&job).filter(|a| a.2 == attempt) {
                    let error = format!("worker `{worker}` attempt cancelled: {reason}");
                    self.live.remove(&job);
                    self.retry(now, job, error, &mut out);
                }
            }
            Input::Abort(err) => self.fail_run(err, &mut out),
        }
        out
    }

    fn claim(&mut self, now: Duration, owner: Owner, worker: &str, out: &mut Vec<Output>) {
        if self.finished() {
            return out.push(Output::Drained);
        }
        self.delayed.sort_by_key(|d| d.0);
        let due = self.delayed.iter().take_while(|d| d.0 <= now).count();
        for (_, i, _) in self.delayed.drain(..due) {
            self.frontier.requeue(i);
        }
        let Some(job) = self.frontier.pop() else {
            return out.push(Output::Wait { until: self.delayed.first().map(|d| d.0) });
        };
        let attempt = self.attempts[job];
        self.attempts[job] += 1;
        self.live.insert(job, (owner, worker.to_string(), attempt));
        let id = self.graph.id(job).to_string();
        out.push(Output::Assign { job, attempt });
        let worker = worker.to_string();
        out.push(Output::Journal(JournalRecord::Assigned { job: id.clone(), attempt, worker }));
        out.push(Output::Event(Event::JobStarted { job: id, attempt }));
    }

    /// The retry policy for a lost attempt: requeue after the backoff, or
    /// fail the job — and with it the run — once its attempts are spent.
    /// A dead run retries nothing.
    fn retry(&mut self, now: Duration, job: usize, error: String, out: &mut Vec<Output>) {
        let (id, attempts) = (self.graph.id(job).to_string(), self.attempts[job]);
        if attempts > self.max_retries {
            let err = OrchestratorError::JobFailed { job: id, attempts, error: error.clone() };
            self.job_failed(job, error, out);
            return self.fail_run(err, out);
        }
        if let Some(reason) = self.failure.as_ref().map(run_failed) {
            return self.job_failed(job, format!("{error}; retry abandoned: {reason}"), out);
        }
        let failed = attempts - 1;
        let after = self.backoff.saturating_mul(1 << failed.min(6)).min(Duration::from_secs(2));
        self.requeues += 1;
        if after.is_zero() {
            self.frontier.requeue(job);
        } else {
            self.delayed.push((now + after, job, error.clone()));
        }
        out.push(Output::Requeue { job, after });
        let record = JournalRecord::Requeued { job: id.clone(), error: error.clone() };
        out.push(Output::Journal(record));
        let backoff_ms = after.as_millis() as u64;
        out.push(Output::Event(Event::JobRetried { job: id, attempt: failed, error, backoff_ms }));
    }

    fn job_failed(&mut self, job: usize, error: String, out: &mut Vec<Output>) {
        let (id, attempts) = (self.graph.id(job).to_string(), self.attempts[job]);
        out.push(Output::JobFailed { job });
        out.push(Output::Event(Event::JobFailed { job: id, attempts, error }));
    }

    /// Records the run's first hard failure (later ones change nothing)
    /// and abandons every retry still waiting out its delay.
    fn fail_run(&mut self, err: OrchestratorError, out: &mut Vec<Output>) {
        if self.failure.is_some() {
            return;
        }
        let reason = run_failed(&err);
        self.failure = Some(err);
        for (_, job, error) in std::mem::take(&mut self.delayed) {
            self.job_failed(job, format!("{error}; retry abandoned: {reason}"), out);
        }
    }

    /// Whether `job` has a believed result (resumed or committed).
    pub fn is_done(&self, job: usize) -> bool {
        self.done[job].is_some()
    }

    /// Whether nothing will be handed out again.
    pub fn finished(&self) -> bool {
        self.failure.is_some() || self.frontier.drained()
    }

    /// The run's first hard failure, if any.
    pub fn failure(&self) -> Option<&OrchestratorError> {
        self.failure.as_ref()
    }

    /// `(dependency index, digest)` of every finished dependency of `job`
    /// — all of them once `job` has been assigned.
    pub fn dep_digests(&self, job: usize) -> impl Iterator<Item = (usize, u64)> + '_ {
        self.graph.deps(job).iter().filter_map(|&d| Some((d, self.done[d].as_ref()?.0)))
    }

    /// Attempts requeued so far.
    pub fn requeues(&self) -> u64 {
        self.requeues
    }

    /// Every job's digest and stats, or the run's failure.
    pub fn finish(self) -> Result<Vec<(u64, JobStats)>, OrchestratorError> {
        if let Some(err) = self.failure {
            return Err(err);
        }
        let unfinished = |i: usize| OrchestratorError::JobFailed {
            job: self.graph.id(i).to_string(),
            attempts: self.attempts[i],
            error: "the run ended before the job finished".into(),
        };
        self.done.iter().enumerate().map(|(i, d)| d.clone().ok_or_else(|| unfinished(i))).collect()
    }
}

/// The reason a failed run gives everything it cancels.
pub fn run_failed(err: &OrchestratorError) -> String {
    format!("run failed: {err}")
}
