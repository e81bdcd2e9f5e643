//! Reference-model check of [`Frontier`], the ready-set both engines
//! schedule from: random DAGs, random resume seeds, and random
//! interleavings of `pop` / `complete` / `requeue` must agree with a
//! set-based model of "which jobs may be handed out now".

use orchestrator::{Frontier, Graph};
use proptest::prelude::*;
use std::collections::BTreeSet;

/// The model: a job is eligible exactly when it is neither finished nor
/// out and every dependency is finished.
struct Model {
    deps: Vec<BTreeSet<usize>>,
    done: BTreeSet<usize>,
    out: BTreeSet<usize>,
}

impl Model {
    fn eligible(&self) -> BTreeSet<usize> {
        (0..self.deps.len())
            .filter(|i| !self.done.contains(i) && !self.out.contains(i))
            .filter(|&i| self.deps[i].is_subset(&self.done))
            .collect()
    }
}

/// A random DAG over `n` jobs whose edge directions follow `rank`, not
/// declaration order, so dependencies are declared before and after the
/// jobs that name them.
fn dag(n: usize, rank: &[u8], edges: &[(usize, usize)]) -> Vec<BTreeSet<usize>> {
    let mut deps = vec![BTreeSet::new(); n];
    for &(a, b) in edges {
        let (a, b) = (a % n, b % n);
        match rank[a].cmp(&rank[b]) {
            std::cmp::Ordering::Less => deps[b].insert(a),
            std::cmp::Ordering::Greater => deps[a].insert(b),
            std::cmp::Ordering::Equal => false,
        };
    }
    deps
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn frontier_agrees_with_the_set_model(
        n in 1usize..=12,
        rank in prop::collection::vec(any::<u8>(), 12),
        edges in prop::collection::vec((0usize..12, 0usize..12), 0..30),
        seed_bits in any::<u16>(),
        close_seed in any::<bool>(),
        ops in prop::collection::vec((0u8..3, any::<u16>()), 0..80),
    ) {
        let deps = dag(n, &rank, &edges);
        let ids: Vec<String> = (0..n).map(|i| format!("j{i}")).collect();
        let dep_ids: Vec<Vec<String>> =
            deps.iter().map(|d| d.iter().map(|&k| ids[k].clone()).collect()).collect();
        let graph = Graph::new(ids.iter().map(String::as_str).zip(dep_ids.iter().map(Vec::as_slice)))
            .expect("rank-ordered edges cannot form a cycle");
        for (i, d) in deps.iter().enumerate() {
            let got: BTreeSet<usize> = graph.deps(i).iter().copied().collect();
            prop_assert_eq!(&got, d, "graph resolves ids to declaration indices");
        }

        // Resume seed: any subset, or (half the cases) its closure under
        // dependencies — what a manifest holds when nothing was damaged.
        let mut seeded: BTreeSet<usize> = (0..n).filter(|i| seed_bits >> i & 1 == 1).collect();
        if close_seed {
            let mut stack: Vec<usize> = seeded.iter().copied().collect();
            while let Some(i) = stack.pop() {
                stack.extend(deps[i].iter().copied().filter(|&d| seeded.insert(d)));
            }
        }
        let mut model = Model { deps, done: seeded.clone(), out: BTreeSet::new() };
        let mut frontier = Frontier::seed(&graph, |i| seeded.contains(&i));
        let mut handed_out: Vec<usize> = Vec::new();
        let mut requeues = 0usize;

        // Random interleaving, then drive whatever is left to completion.
        let finish = std::iter::repeat_n((3u8, 0u16), 4 * n + ops.len());
        for (kind, pick) in ops.iter().copied().chain(finish) {
            let nth_out = model.out.iter().copied().nth(pick as usize % model.out.len().max(1));
            match (kind, nth_out) {
                (1 | 3, Some(i)) => {
                    frontier.complete(i);
                    model.out.remove(&i);
                    model.done.insert(i);
                }
                (2, Some(i)) => {
                    frontier.requeue(i);
                    model.out.remove(&i);
                    requeues += 1;
                }
                _ => {
                    let eligible = model.eligible();
                    match frontier.pop() {
                        Some(i) => {
                            prop_assert!(
                                eligible.contains(&i),
                                "handed out {i}, eligible {eligible:?}, out {:?}, done {:?}",
                                model.out, model.done
                            );
                            model.out.insert(i);
                            handed_out.push(i);
                        }
                        None => prop_assert!(eligible.is_empty(), "withheld {eligible:?}"),
                    }
                }
            }
            prop_assert_eq!(frontier.drained(), model.done.len() == n);
        }

        prop_assert!(frontier.drained(), "the run finishes");
        prop_assert_eq!(frontier.pop(), None, "nothing is handed out after the last completion");
        let distinct: BTreeSet<usize> = handed_out.iter().copied().collect();
        let expected: BTreeSet<usize> = (0..n).filter(|i| !seeded.contains(i)).collect();
        prop_assert_eq!(distinct, expected, "exactly the unseeded jobs are handed out");
        prop_assert_eq!(handed_out.len(), n - seeded.len() + requeues, "once each, plus once per requeue");
    }
}
