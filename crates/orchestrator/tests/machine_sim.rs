//! The job state machine under a seeded scheduler on a virtual clock.
//!
//! Random DAGs and resume sets; workers that claim, complete, fail, hang
//! and get lost; reports delivered late and out of order, duplicated, or
//! corrupt; watchdog trips of live and of long-gone attempts; the odd
//! driver abort. Every output of the [`Machine`] is checked against a
//! reference model of each job's life — Queued → Assigned → Completed |
//! Requeued — written, like `tests/frontier.rs`, over plain sets.

use orchestrator::machine::Owner;
use orchestrator::{Graph, Input, JobStats, Machine, OrchestratorError, Output};
use proptest::prelude::*;
use std::collections::{BTreeMap, BTreeSet};
use std::time::Duration;

/// The reference model.
struct Model {
    deps: Vec<BTreeSet<usize>>,
    max_retries: u32,
    backoff: Duration,
    attempts: Vec<u32>,
    done: BTreeMap<usize, u64>,
    /// Assigned jobs: owner and attempt.
    live: BTreeMap<usize, (Owner, u32)>,
    /// Jobs requeued with a delay and not claimable yet, with the time
    /// they may be handed out again. The first claim after that time
    /// queues them; a run that fails first abandons them.
    requeued: BTreeMap<usize, Duration>,
    failed: bool,
}

impl Model {
    /// A claim at `now`: due requeues are queued, then every job that is
    /// neither finished, out nor waiting, and whose dependencies are all
    /// finished, may be handed out.
    fn eligible(&mut self, now: Duration) -> BTreeSet<usize> {
        if !self.failed {
            self.requeued.retain(|_, due| *due > now);
        }
        (0..self.deps.len())
            .filter(|i| !self.done.contains_key(i) && !self.live.contains_key(i))
            .filter(|i| !self.requeued.contains_key(i))
            .filter(|i| self.deps[*i].iter().all(|d| self.done.contains_key(d)))
            .collect()
    }

    /// The attempt of `job` is over without a result.
    fn retry(&mut self, job: usize, now: Duration) -> Vec<Output> {
        self.live.remove(&job);
        if self.attempts[job] > self.max_retries {
            let mut out = vec![Output::JobFailed { job }];
            out.extend(self.fail());
            return out;
        }
        if self.failed {
            return vec![Output::JobFailed { job }];
        }
        let k = self.attempts[job] - 1;
        let after = (self.backoff * (1 << k.min(6))).min(Duration::from_secs(2));
        if !after.is_zero() {
            self.requeued.insert(job, now + after);
        }
        vec![Output::Requeue { job, after }]
    }

    fn fail(&mut self) -> Vec<Output> {
        if std::mem::replace(&mut self.failed, true) {
            return Vec::new();
        }
        let abandoned = std::mem::take(&mut self.requeued);
        abandoned.into_keys().map(|job| Output::JobFailed { job }).collect()
    }

    fn complete(&mut self, job: usize, stats: JobStats) -> Vec<Output> {
        self.live.remove(&job);
        self.requeued.remove(&job);
        let digest = digest(job);
        self.done.insert(job, digest);
        vec![Output::Commit { job, digest, stats }]
    }
}

fn digest(job: usize) -> u64 {
    0xd1_9e57 + job as u64
}

/// What a worker will eventually say about an attempt.
#[derive(Clone, Copy, Debug)]
enum Report {
    Complete { owner: Owner, job: usize, intact: bool },
    Fail { owner: Owner, job: usize },
}

/// SplitMix64: the scheduler's only source of choices.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }
    fn below(&mut self, n: usize) -> usize {
        (self.next() % n.max(1) as u64) as usize
    }
    fn chance(&mut self, percent: u64) -> bool {
        self.next() % 100 < percent
    }
}

struct Sim {
    rng: Rng,
    now: Duration,
    machine: Machine,
    model: Model,
    workers: Vec<Owner>,
    next_owner: Owner,
    pending: Vec<Report>,
    /// Every `(job, attempt)` ever handed out, for late trips.
    assigned: Vec<(usize, u32)>,
    /// Every report ever delivered, for duplicates.
    delivered: Vec<Report>,
    trace: Vec<String>,
}

impl Sim {
    /// Feeds `input` to the machine and checks the actions it returns
    /// against `expected` (in any order).
    fn check(&mut self, input: Input<'_>, expected: Vec<Output>) -> Vec<Output> {
        self.trace.push(format!("{:?} {input:?}", self.now));
        let out = self.machine.step(self.now, input);
        let key = |o: &Output| format!("{o:?}");
        let actions = out.iter().filter(|o| !matches!(o, Output::Journal(_) | Output::Event(_)));
        let mut got: Vec<Output> = actions.cloned().collect();
        let mut want = expected;
        got.sort_by_key(key);
        want.sort_by_key(key);
        assert_eq!(got, want, "trace:\n{}", self.trace.join("\n"));
        out
    }

    fn claim(&mut self, worker: usize, hang_percent: usize) {
        let owner = self.workers[worker];
        self.trace.push(format!("{:?} Claim {owner}", self.now));
        let out = self.machine.step(self.now, Input::Claim { owner, worker: "w" });
        let eligible = self.model.eligible(self.now);
        let context = || format!("eligible {eligible:?}\ntrace:\n{}", self.trace.join("\n"));
        match out.first() {
            Some(&Output::Assign { job, attempt }) => {
                assert!(!self.model.failed, "assigned {job} after the run failed\n{}", context());
                assert!(eligible.contains(&job), "assigned {job}\n{}", context());
                assert_eq!(attempt, self.model.attempts[job], "{}", context());
                self.model.attempts[job] += 1;
                self.model.live.insert(job, (owner, attempt));
                self.model.requeued.remove(&job);
                self.assigned.push((job, attempt));
                match self.rng.below(100) {
                    p if p < hang_percent => {}
                    p if p < hang_percent + 10 => self.pending.push(Report::Fail { owner, job }),
                    p if p < hang_percent + 20 => {
                        self.pending.push(Report::Complete { owner, job, intact: false })
                    }
                    _ => self.pending.push(Report::Complete { owner, job, intact: true }),
                }
            }
            Some(Output::Wait { until }) => {
                assert!(eligible.is_empty() && !self.model.failed, "waited\n{}", context());
                let due = self.model.requeued.values().filter(|d| **d > self.now).min();
                assert_eq!(until.as_ref(), due, "{}", context());
            }
            Some(Output::Drained) => {
                let all = self.model.done.len() == self.model.deps.len();
                assert!(self.model.failed || all, "drained early\n{}", context());
            }
            other => panic!("claim answered {other:?}\n{}", context()),
        }
    }

    fn deliver(&mut self, report: Report) {
        self.delivered.push(report);
        let (Report::Complete { job, .. } | Report::Fail { job, .. }) = report;
        assert_eq!(self.machine.is_done(job), self.model.done.contains_key(&job));
        let stats = |m: &Model, job: usize| JobStats {
            attempts: m.attempts[job].max(1),
            wall_seconds: 0.5,
            cpu_seconds: 0.25,
            skipped: false,
        };
        let (input, expected) = match report {
            Report::Complete { owner, job, intact } => {
                let verified =
                    if intact { Ok(()) } else { Err("result failed verification".into()) };
                let input = Input::Complete {
                    owner,
                    job,
                    digest: digest(job),
                    verified,
                    wall_seconds: 0.5,
                    cpu_seconds: 0.25,
                };
                let expected = match self.model.live.get(&job) {
                    _ if self.model.done.contains_key(&job) => Vec::new(),
                    _ if intact => self.model.complete(job, stats(&self.model, job)),
                    Some(&(o, _)) if o == owner => self.model.retry(job, self.now),
                    _ => Vec::new(),
                };
                (input, expected)
            }
            Report::Fail { owner, job } => {
                let expected = match self.model.live.get(&job) {
                    Some(&(o, _)) if o == owner => self.model.retry(job, self.now),
                    _ => Vec::new(),
                };
                (Input::Fail { owner, job, error: "injected".into() }, expected)
            }
        };
        self.check(input, expected);
    }

    fn trip(&mut self, job: usize, attempt: u32) {
        let expected = match self.model.live.get(&job) {
            Some(&(_, a)) if a == attempt => self.model.retry(job, self.now),
            _ => Vec::new(),
        };
        self.check(Input::Tripped { job, attempt, reason: "heartbeat stale".into() }, expected);
    }

    fn lose(&mut self, worker: usize) {
        let owner = self.workers[worker];
        let mine: Vec<usize> =
            self.model.live.iter().filter(|(_, l)| l.0 == owner).map(|(&j, _)| j).collect();
        let expected = mine.into_iter().flat_map(|j| self.model.retry(j, self.now)).collect();
        self.check(Input::Lost { owner }, expected);
        self.workers[worker] = self.next_owner;
        self.next_owner += 1;
    }

    fn abort(&mut self) {
        let expected = self.model.fail();
        self.check(Input::Abort(OrchestratorError::InvalidPlan("disk full".into())), expected);
    }

    /// One random scheduling step.
    fn step(&mut self) {
        match self.rng.below(100) {
            0..=34 => {
                let worker = self.rng.below(self.workers.len());
                self.claim(worker, 10);
            }
            35..=64 if !self.pending.is_empty() => {
                let report = self.pending.swap_remove(self.rng.below(self.pending.len()));
                self.deliver(report);
            }
            65..=74 => self.now += Duration::from_millis(self.rng.below(400) as u64),
            75..=79 => {
                let worker = self.rng.below(self.workers.len());
                self.lose(worker);
            }
            80..=89 if !self.assigned.is_empty() => {
                let (job, attempt) = self.assigned[self.rng.below(self.assigned.len())];
                self.trip(job, attempt);
            }
            90..=98 if !self.delivered.is_empty() => {
                let report = self.delivered[self.rng.below(self.delivered.len())];
                self.deliver(report);
            }
            99 if self.rng.chance(30) => self.abort(),
            _ => {}
        }
    }

    /// Drives the run to its end: every report arrives, hung attempts trip,
    /// every new attempt succeeds.
    fn finish(&mut self) {
        for _ in 0..10_000 {
            while let Some(report) = self.pending.pop() {
                self.deliver(report);
            }
            let hung: Vec<(usize, u32)> = self.model.live.iter().map(|(&j, l)| (j, l.1)).collect();
            hung.into_iter().for_each(|(job, attempt)| self.trip(job, attempt));
            self.now += Duration::from_secs(3);
            self.claim(0, 0);
            let all_done = self.model.done.len() == self.model.deps.len();
            if self.machine.finished() && self.model.failed || all_done {
                break;
            }
        }
        self.claim(0, 0);
        assert!(self.machine.finished(), "the run ends\n{}", self.trace.join("\n"));
    }
}

/// A random DAG over `n` jobs whose edges follow `rank`, not declaration
/// order (as in `tests/frontier.rs`).
fn dag(rng: &mut Rng, n: usize) -> Vec<BTreeSet<usize>> {
    let rank: Vec<u64> = (0..n).map(|_| rng.next() % 8).collect();
    let mut deps = vec![BTreeSet::new(); n];
    for _ in 0..rng.below(2 * n + 1) {
        let (a, b) = (rng.below(n), rng.below(n));
        if rank[a] < rank[b] {
            deps[b].insert(a);
        }
    }
    deps
}

fn simulate(seed: u64) {
    let mut rng = Rng(seed);
    let n = 1 + rng.below(8);
    let deps = dag(&mut rng, n);
    let ids: Vec<String> = (0..n).map(|i| format!("j{i}")).collect();
    let dep_ids: Vec<Vec<String>> =
        deps.iter().map(|d| d.iter().map(|&k| ids[k].clone()).collect()).collect();
    let graph = Graph::new(ids.iter().map(String::as_str).zip(dep_ids.iter().map(Vec::as_slice)))
        .expect("rank-ordered edges cannot form a cycle");

    // Resume set: any subset, so a finished job may sit downstream of an
    // unfinished one — what a damaged run directory leaves behind.
    let skipped = JobStats { attempts: 1, wall_seconds: 0.0, cpu_seconds: 0.0, skipped: true };
    let resumed: BTreeMap<usize, (u64, JobStats)> =
        (0..n).filter(|_| rng.chance(30)).map(|i| (i, (digest(i), skipped.clone()))).collect();
    let max_retries = rng.below(4) as u32;
    let backoff = Duration::from_millis([0, 0, 50, 700][rng.below(4)]);
    let machine = Machine::new(&graph, max_retries, backoff, resumed.clone());
    let model = Model {
        deps,
        max_retries,
        backoff,
        attempts: vec![0; n],
        done: resumed.iter().map(|(&i, (d, _))| (i, *d)).collect(),
        live: BTreeMap::new(),
        requeued: BTreeMap::new(),
        failed: false,
    };
    let workers = 1 + rng.below(4);
    let mut sim = Sim {
        rng,
        now: Duration::ZERO,
        machine,
        model,
        workers: (0..workers as Owner).collect(),
        next_owner: workers as Owner,
        pending: Vec::new(),
        assigned: Vec::new(),
        delivered: Vec::new(),
        trace: vec![format!("seed {seed:#x}, resumed {:?}", resumed.keys())],
    };
    for _ in 0..sim.rng.below(120) {
        sim.step();
    }
    sim.finish();

    let Sim { machine, model, trace, .. } = sim;
    match machine.finish() {
        Ok(done) => {
            assert!(!model.failed, "trace:\n{}", trace.join("\n"));
            let digests: BTreeMap<usize, u64> = done.iter().map(|d| d.0).enumerate().collect();
            assert_eq!(digests, model.done, "trace:\n{}", trace.join("\n"));
        }
        Err(_) => assert!(model.failed, "trace:\n{}", trace.join("\n")),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn machine_agrees_with_the_reference_model(seed in any::<u64>()) {
        simulate(seed);
    }
}

#[test]
fn retry_delays_double_and_cap_at_two_seconds() {
    let graph = Graph::new([("j", &[][..])]).unwrap();
    let mut m = Machine::new(&graph, 9, Duration::from_millis(50), BTreeMap::new());
    let mut now = Duration::ZERO;
    let mut delays = Vec::new();
    for _ in 0..9 {
        now += Duration::from_secs(5);
        let claimed = m.step(now, Input::Claim { owner: 0, worker: "w" });
        assert!(matches!(claimed[0], Output::Assign { .. }));
        let out = m.step(now, Input::Fail { owner: 0, job: 0, error: "boom".into() });
        let Some(&Output::Requeue { after, .. }) = out.first() else { panic!("{out:?}") };
        delays.push(after.as_millis());
    }
    assert_eq!(delays, [50, 100, 200, 400, 800, 1600, 2000, 2000, 2000]);
}
