//! Fixture (capability-graph): ambient entropy and clock reads, linted as a lib,
//! a bin and a test file under `crates/orchestrator/` and `crates/telemetry/`.
//! Expected in each: 4 deny findings, 1 waived.

use std::time::{Instant, SystemTime};

pub fn positive_wall_clock() -> SystemTime {
    SystemTime::now()
}

pub fn positive_monotonic_clock() {
    let _ = Instant::now();
}

pub fn positive_os_rng() {
    let _ = thread_rng();
}

pub fn positive_rand_random() {
    let _: u64 = rand::random();
}

pub fn waived() {
    let _ = Instant::now(); // lint: allow(capability-graph) fixture: demonstrating a waiver
}

pub fn negative_seeded(seed: u64) -> u64 {
    // A plain `random` identifier without the `rand::` path is fine.
    fn random(s: u64) -> u64 {
        s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407)
    }
    random(seed)
}
