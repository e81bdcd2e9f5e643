//! Job specifications, the validated [`Graph`] both engines schedule
//! over, the ready-[`Frontier`] their [`crate::machine::Machine`] holds,
//! and the run error they share.

use std::collections::{BTreeMap, VecDeque};
use std::path::PathBuf;
use std::sync::Arc;

/// The boxed job body: receives the outputs of its dependencies, returns
/// the job's payload or an error message. Must be `Send + Sync` because
/// worker threads share the plan; the lifetime lets bodies borrow data
/// (datasets, configs) that outlives the run.
pub type JobFn<'a, P> = Box<dyn Fn(&JobInputs<P>) -> Result<P, String> + Send + Sync + 'a>;

/// One node of the job DAG.
pub struct JobSpec<'a, P> {
    /// Unique job name (also the checkpoint file stem).
    pub id: String,
    /// Ids of jobs whose outputs this job consumes.
    pub deps: Vec<String>,
    /// The job body.
    pub run: JobFn<'a, P>,
}

impl<'a, P> JobSpec<'a, P> {
    /// Builds a job.
    pub fn new<I, S, F>(id: impl Into<String>, deps: I, run: F) -> Self
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
        F: Fn(&JobInputs<P>) -> Result<P, String> + Send + Sync + 'a,
    {
        JobSpec {
            id: id.into(),
            deps: deps.into_iter().map(Into::into).collect(),
            run: Box::new(run),
        }
    }
}

/// The outputs a job's dependencies produced, keyed by job id, plus the
/// cooperative-cancellation handles of the current attempt.
pub struct JobInputs<P> {
    pub(crate) deps: BTreeMap<String, Arc<P>>,
    /// Zero-based attempt number of the current execution.
    pub attempt: u32,
    /// Cancellation token for this attempt; long-running bodies should
    /// poll it (or wire it into their step loop) so watchdog/run-failure
    /// cancellation turns into a prompt `Err` instead of orphaned work.
    pub cancel: crate::cancel::CancelToken,
    /// Liveness beacon for this attempt; bodies with step loops beat it
    /// so heartbeat-staleness watchdog limits can distinguish slow from
    /// hung.
    pub heartbeat: crate::timing::Heartbeat,
}

impl<P> JobInputs<P> {
    /// The payload of dependency `id`, if it is a declared dependency.
    pub fn dep(&self, id: &str) -> Result<&P, String> {
        self.deps
            .get(id)
            .map(|a| a.as_ref())
            .ok_or_else(|| format!("job input `{id}` is not a declared dependency"))
    }
}

/// The validated shape of a job DAG: ids resolved to declaration-order
/// indices, edges in both directions. [`Plan`] and
/// [`DistPlan`](crate::coord::DistPlan) each hold the one their
/// constructor validated, so no scheduler resolves an id twice.
#[derive(Debug, Clone, PartialEq)]
pub struct Graph {
    ids: Vec<String>,
    index: BTreeMap<String, usize>,
    deps: Vec<Vec<usize>>,
    /// Shared with every [`Frontier`] seeded from this graph.
    dependents: Arc<[Vec<usize>]>,
}

impl Graph {
    /// Validates `(id, dependency ids)` pairs: ids must be unique and
    /// non-empty, dependencies must name existing jobs, and the graph
    /// must be acyclic.
    pub fn new<'a>(
        jobs: impl IntoIterator<Item = (&'a str, &'a [String])>,
    ) -> Result<Graph, String> {
        let jobs: Vec<(&str, &[String])> = jobs.into_iter().collect();
        let mut index: BTreeMap<String, usize> = BTreeMap::new();
        for (i, (id, _)) in jobs.iter().enumerate() {
            if id.is_empty() {
                return Err("job id must be non-empty".into());
            }
            if index.insert(id.to_string(), i).is_some() {
                return Err(format!("duplicate job id `{id}`"));
            }
        }
        let mut deps: Vec<Vec<usize>> = vec![Vec::new(); jobs.len()];
        let mut dependents: Vec<Vec<usize>> = vec![Vec::new(); jobs.len()];
        for (i, (id, job_deps)) in jobs.iter().enumerate() {
            for d in job_deps.iter() {
                let Some(&di) = index.get(d.as_str()) else {
                    return Err(format!("job `{id}` depends on unknown job `{d}`"));
                };
                if di == i {
                    return Err(format!("job `{id}` depends on itself"));
                }
                deps[i].push(di);
                dependents[di].push(i);
            }
        }
        // Kahn's algorithm; a leftover node means a cycle.
        let mut indegree: Vec<usize> = deps.iter().map(Vec::len).collect();
        let mut ready: Vec<usize> = (0..jobs.len()).filter(|&i| indegree[i] == 0).collect();
        let mut sorted = 0;
        while let Some(i) = ready.pop() {
            sorted += 1;
            for &k in &dependents[i] {
                indegree[k] -= 1;
                if indegree[k] == 0 {
                    ready.push(k);
                }
            }
        }
        if sorted != jobs.len() {
            let stuck: Vec<&str> = (0..jobs.len())
                .filter(|&i| indegree[i] > 0)
                .map(|i| jobs[i].0)
                .collect();
            return Err(format!("job graph has a cycle involving {stuck:?}"));
        }
        let ids = jobs.iter().map(|(id, _)| id.to_string()).collect();
        Ok(Graph { ids, index, deps, dependents: dependents.into() })
    }

    /// The id of job `i`.
    pub fn id(&self, i: usize) -> &str {
        &self.ids[i]
    }

    /// Number of jobs.
    pub fn len(&self) -> usize {
        self.deps.len()
    }

    /// Whether the graph has no jobs.
    pub fn is_empty(&self) -> bool {
        self.deps.is_empty()
    }

    /// The declaration-order index of job `id`.
    pub fn index_of(&self, id: &str) -> Option<usize> {
        self.index.get(id).copied()
    }

    /// Indices of job `i`'s dependencies, in the order it declared them.
    pub fn deps(&self, i: usize) -> &[usize] {
        &self.deps[i]
    }
}

/// The scheduling state of one run over a [`Graph`]: which jobs may be
/// handed out now. Pure bookkeeping — no lock, no I/O, no clock — so the
/// [`crate::machine::Machine`] holds it and a test can drive it
/// directly. A job is *out* between [`Frontier::pop`] and the
/// [`Frontier::complete`] or [`Frontier::requeue`] that answers it.
#[derive(Debug, Clone)]
pub struct Frontier {
    dependents: Arc<[Vec<usize>]>,
    /// Unfinished dependency count per unfinished job.
    remaining: Vec<usize>,
    ready: VecDeque<usize>,
    done: Vec<bool>,
    completed: usize,
}

impl Frontier {
    /// The frontier of a run in which every job `i` with `done(i)` is
    /// already satisfied (resume). The done set need not be closed under
    /// dependencies: a satisfied job whose dependency re-executes stays
    /// satisfied.
    pub fn seed(graph: &Graph, done: impl Fn(usize) -> bool) -> Frontier {
        let done: Vec<bool> = (0..graph.len()).map(done).collect();
        let remaining: Vec<usize> = graph
            .deps
            .iter()
            .map(|deps| deps.iter().filter(|&&d| !done[d]).count())
            .collect();
        Frontier {
            dependents: Arc::clone(&graph.dependents),
            ready: (0..graph.len()).filter(|&i| !done[i] && remaining[i] == 0).collect(),
            completed: done.iter().filter(|&&d| d).count(),
            remaining,
            done,
        }
    }

    /// Hands out the next ready job, if any.
    pub fn pop(&mut self) -> Option<usize> {
        self.ready.pop_front()
    }

    /// Marks job `i` finished and readies every dependent it was the last
    /// unfinished dependency of. Completing a finished job is a no-op; a
    /// job completed while requeued (a late result of an abandoned
    /// attempt) leaves the ready queue.
    pub fn complete(&mut self, i: usize) {
        if std::mem::replace(&mut self.done[i], true) {
            return;
        }
        self.ready.retain(|&k| k != i);
        self.completed += 1;
        for &k in &self.dependents[i] {
            if self.done[k] {
                continue;
            }
            self.remaining[k] -= 1;
            if self.remaining[k] == 0 {
                self.ready.push_back(k);
            }
        }
    }

    /// Puts an out job back at the end of the ready queue (its attempt was
    /// lost or failed and will be retried).
    pub fn requeue(&mut self, i: usize) {
        self.ready.push_back(i);
    }

    /// Whether every job is finished.
    pub fn drained(&self) -> bool {
        self.completed == self.done.len()
    }
}

/// Why a run failed.
#[derive(Debug)]
pub enum OrchestratorError {
    /// The job list failed validation (duplicate id, unknown dep, cycle).
    InvalidPlan(String),
    /// A checkpoint/manifest filesystem operation failed.
    Io {
        /// Offending path.
        path: PathBuf,
        /// OS error text.
        message: String,
    },
    /// A payload failed to serialize or deserialize.
    Codec {
        /// Job whose payload was involved.
        job: String,
        /// Codec error text.
        message: String,
    },
    /// A job exhausted its retries.
    JobFailed {
        /// Job id.
        job: String,
        /// Attempts executed.
        attempts: u32,
        /// Final failure (panic message or job error).
        error: String,
    },
}

impl OrchestratorError {
    pub(crate) fn io(path: impl Into<PathBuf>, error: impl std::fmt::Display) -> Self {
        OrchestratorError::Io { path: path.into(), message: error.to_string() }
    }
}

impl std::fmt::Display for OrchestratorError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            OrchestratorError::InvalidPlan(m) => write!(f, "invalid job plan: {m}"),
            OrchestratorError::Io { path, message } => {
                write!(f, "checkpoint I/O failed at {}: {message}", path.display())
            }
            OrchestratorError::Codec { job, message } => {
                write!(f, "payload codec failed for job `{job}`: {message}")
            }
            OrchestratorError::JobFailed { job, attempts, error } => {
                write!(f, "job `{job}` failed after {attempts} attempt(s): {error}")
            }
        }
    }
}

impl std::error::Error for OrchestratorError {}

/// The message a caught panic carried (`panic!` with a literal or a
/// formatted string; anything else is opaque). Pass `&*payload`, not
/// `&payload`: a `&Box<dyn Any>` would itself coerce to `&dyn Any` and
/// the downcasts would miss.
pub(crate) fn panic_message(panic: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = panic.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = panic.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".into()
    }
}

/// A validated job DAG.
pub struct Plan<'a, P> {
    pub(crate) jobs: Vec<JobSpec<'a, P>>,
    pub(crate) graph: Graph,
}

impl<'a, P> Plan<'a, P> {
    /// Validates a job list into a plan: ids must be unique and non-empty,
    /// dependencies must name existing jobs, and the graph must be acyclic.
    pub fn new(jobs: Vec<JobSpec<'a, P>>) -> Result<Self, String> {
        let graph = Graph::new(jobs.iter().map(|j| (j.id.as_str(), j.deps.as_slice())))?;
        Ok(Plan { jobs, graph })
    }

    /// Number of jobs in the plan.
    pub fn len(&self) -> usize {
        self.jobs.len()
    }

    /// Whether the plan has no jobs.
    pub fn is_empty(&self) -> bool {
        self.jobs.is_empty()
    }
}

impl<P> std::fmt::Debug for Plan<'_, P> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // Job bodies are opaque closures; show the graph structure only.
        let mut d = f.debug_map();
        for j in &self.jobs {
            d.entry(&j.id, &j.deps);
        }
        d.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn job(id: &str, deps: &[&str]) -> JobSpec<'static, u32> {
        JobSpec::new(id, deps.iter().copied(), |_| Ok(0))
    }

    #[test]
    fn valid_diamond_passes() {
        let p = Plan::new(vec![
            job("a", &[]),
            job("b", &["a"]),
            job("c", &["a"]),
            job("d", &["b", "c"]),
        ])
        .unwrap();
        assert_eq!(p.len(), 4);
        assert_eq!(p.graph.deps(3), [1, 2]);
        assert_eq!(p.graph.id(3), "d");
    }

    #[test]
    fn duplicate_ids_rejected() {
        let err = Plan::new(vec![job("a", &[]), job("a", &[])]).unwrap_err();
        assert!(err.contains("duplicate"), "{err}");
    }

    #[test]
    fn unknown_dep_rejected() {
        let err = Plan::new(vec![job("a", &["ghost"])]).unwrap_err();
        assert!(err.contains("unknown"), "{err}");
    }

    #[test]
    fn cycles_rejected() {
        let err = Plan::new(vec![job("a", &["b"]), job("b", &["a"])]).unwrap_err();
        assert!(err.contains("cycle"), "{err}");
        let err = Plan::new(vec![job("a", &["a"])]).unwrap_err();
        assert!(err.contains("itself"), "{err}");
    }

    #[test]
    fn empty_id_rejected() {
        let err = Plan::new(vec![job("", &[])]).unwrap_err();
        assert!(err.contains("non-empty"), "{err}");
    }
}
